//! The serving-spec grammar: one comma-separated `key=value` string
//! describes the whole open-loop experiment, mirroring `FaultSpec`'s
//! grammar so every harness flag reads the same way.

/// Arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate` tasks/s.
    #[default]
    Poisson,
    /// Two-state Markov-modulated Poisson process: a calm phase and a
    /// burst phase with exponential sojourns, calibrated so the long-run
    /// average equals the nominal `rate` (see [`crate::plan`]).
    Bursty,
    /// Sinusoidally modulated Poisson (day/night load), realized by
    /// thinning; over one full period the mean is exactly `rate`.
    Diurnal,
}

/// What to do with an arrival when its client's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Reject the incoming task (classic tail drop).
    #[default]
    Newest,
    /// Drop the oldest queued task and accept the incoming one.
    Oldest,
}

/// Payload mix for generated serving tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskMix {
    /// Zero-duration executables (middleware stress, the knee-sweep unit).
    #[default]
    Null,
    /// Fixed-duration executable sleeps of `dur` seconds.
    Dummy,
    /// Fixed-duration function tasks (Dragon's native unit).
    Function,
    /// Per-arrival coin flip between executable and function payloads —
    /// the hybrid AI-HPC shape that exercises type-aware routing.
    Mixed,
}

/// Parsed serving specification.
///
/// The default spec is **inactive** (`rate == 0`, `horizon == 0`): a
/// session handed one runs byte-identically to a session that never heard
/// of the serving plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSpec {
    /// Aggregate offered load, tasks/s (0 = inactive).
    pub rate: f64,
    /// Arrival process shape.
    pub process: ArrivalProcess,
    /// Number of clients sharing the arrival stream.
    pub clients: u32,
    /// Per-client admission weights (empty = all 1). Length must equal
    /// `clients` when given.
    pub weights: Vec<u32>,
    /// Arrival horizon in seconds (0 = inactive). Arrivals stop here; the
    /// session still drains everything admitted.
    pub horizon_s: f64,
    /// Per-client admission queue capacity.
    pub queue: usize,
    /// Load-shedding policy for full queues.
    pub shed: ShedPolicy,
    /// In-flight window: admitted-but-not-terminal cap (backpressure).
    pub window: usize,
    /// Max tasks released into the agent per admission pump (batching).
    pub batch: usize,
    /// Payload mix.
    pub kind: TaskMix,
    /// Payload duration in seconds for dummy/function/mixed tasks.
    pub dur_s: f64,
    /// Burstiness factor for [`ArrivalProcess::Bursty`]: the burst
    /// phase runs at `burst`× the calm phase's rate.
    pub burst: f64,
    /// Modulation amplitude in `[0, 1)` for [`ArrivalProcess::Diurnal`].
    pub amp: f64,
    /// Modulation period in seconds for diurnal (0 = the whole horizon,
    /// which makes the realized mean exactly `rate`).
    pub period_s: f64,
    /// First serving task uid; arrivals get `base`, `base+1`, … so they
    /// never collide with batch-workload uids (which count from 0).
    pub base: u64,
}

impl Default for ServingSpec {
    fn default() -> Self {
        ServingSpec {
            rate: 0.0,
            process: ArrivalProcess::Poisson,
            clients: 1,
            weights: Vec::new(),
            horizon_s: 0.0,
            queue: 1024,
            shed: ShedPolicy::Newest,
            window: 4096,
            batch: 128,
            kind: TaskMix::Null,
            dur_s: 1.0,
            burst: 4.0,
            amp: 0.5,
            period_s: 0.0,
            base: 1_000_000,
        }
    }
}

impl ServingSpec {
    /// Whether this spec generates any traffic at all.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && self.horizon_s > 0.0
    }

    /// Effective per-client weights (defaults filled in).
    pub fn effective_weights(&self) -> Vec<u32> {
        if self.weights.is_empty() {
            vec![1; self.clients as usize]
        } else {
            self.weights.clone()
        }
    }

    /// Parse the comma `key=value` grammar. Keys: `rate` (tasks/s),
    /// `process` (`poisson|bursty|diurnal`), `clients`, `weights`
    /// (colon-separated, e.g. `3:2:1`), `horizon` (s), `queue`, `shed`
    /// (`newest|oldest`), `window`, `batch`, `kind`
    /// (`null|dummy|function|mixed`), `dur` (s), `burst`, `amp`,
    /// `period` (s), `base` (first uid). The empty string parses to the
    /// inactive default.
    pub fn parse(s: &str) -> Result<ServingSpec, String> {
        let mut spec = ServingSpec::default();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("`{part}`: expected key=value"))?;
            let f64v = || -> Result<f64, String> {
                val.parse::<f64>()
                    .map_err(|_| format!("{key}={val}: not a number"))
                    .and_then(|v| {
                        if v.is_finite() && v >= 0.0 {
                            Ok(v)
                        } else {
                            Err(format!("{key}={val}: must be finite and >= 0"))
                        }
                    })
            };
            let uint = || -> Result<u64, String> {
                val.parse::<u64>()
                    .map_err(|_| format!("{key}={val}: not an integer"))
            };
            match key {
                "rate" => spec.rate = f64v()?,
                "process" => {
                    spec.process = match val {
                        "poisson" => ArrivalProcess::Poisson,
                        "bursty" => ArrivalProcess::Bursty,
                        "diurnal" => ArrivalProcess::Diurnal,
                        other => return Err(format!("process={other}: unknown process")),
                    }
                }
                "clients" => {
                    spec.clients = uint()?.clamp(1, 4096) as u32;
                }
                "weights" => {
                    spec.weights =
                        val.split(':')
                            .map(|w| {
                                w.parse::<u32>().ok().filter(|&w| w > 0).ok_or_else(|| {
                                    format!("weights={val}: weights are integers > 0")
                                })
                            })
                            .collect::<Result<_, _>>()?;
                }
                "horizon" => spec.horizon_s = f64v()?,
                "queue" => spec.queue = uint()?.max(1) as usize,
                "shed" => {
                    spec.shed = match val {
                        "newest" => ShedPolicy::Newest,
                        "oldest" => ShedPolicy::Oldest,
                        other => return Err(format!("shed={other}: unknown policy")),
                    }
                }
                "window" => spec.window = uint()?.max(1) as usize,
                "batch" => spec.batch = uint()?.max(1) as usize,
                "kind" => {
                    spec.kind = match val {
                        "null" => TaskMix::Null,
                        "dummy" => TaskMix::Dummy,
                        "function" => TaskMix::Function,
                        "mixed" => TaskMix::Mixed,
                        other => return Err(format!("kind={other}: unknown task mix")),
                    }
                }
                "dur" => spec.dur_s = f64v()?,
                "burst" => {
                    let b = f64v()?;
                    if b < 1.0 {
                        return Err(format!("burst={val}: must be >= 1"));
                    }
                    spec.burst = b;
                }
                "amp" => {
                    let a = f64v()?;
                    if a >= 1.0 {
                        return Err(format!("amp={val}: must be in [0, 1)"));
                    }
                    spec.amp = a;
                }
                "period" => spec.period_s = f64v()?,
                "base" => spec.base = uint()?,
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        if !spec.weights.is_empty() && spec.weights.len() != spec.clients as usize {
            return Err(format!(
                "weights lists {} entries for {} clients",
                spec.weights.len(),
                spec.clients
            ));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_inactive_default() {
        let spec = ServingSpec::parse("").expect("parses");
        assert_eq!(spec, ServingSpec::default());
        assert!(!spec.is_active());
    }

    #[test]
    fn full_grammar_roundtrips() {
        let spec = ServingSpec::parse(
            "rate=200,process=bursty,clients=3,weights=3:2:1,horizon=120,queue=64,\
             shed=oldest,window=512,batch=32,kind=mixed,dur=2.5,burst=8,amp=0.9,period=30,base=5000",
        )
        .expect("parses");
        assert!(spec.is_active());
        assert_eq!(spec.rate, 200.0);
        assert_eq!(spec.process, ArrivalProcess::Bursty);
        assert_eq!(spec.clients, 3);
        assert_eq!(spec.weights, vec![3, 2, 1]);
        assert_eq!(spec.horizon_s, 120.0);
        assert_eq!(spec.queue, 64);
        assert_eq!(spec.shed, ShedPolicy::Oldest);
        assert_eq!(spec.window, 512);
        assert_eq!(spec.batch, 32);
        assert_eq!(spec.kind, TaskMix::Mixed);
        assert_eq!(spec.dur_s, 2.5);
        assert_eq!(spec.burst, 8.0);
        assert_eq!(spec.amp, 0.9);
        assert_eq!(spec.period_s, 30.0);
        assert_eq!(spec.base, 5000);
    }

    #[test]
    fn malformed_specs_fail_loudly() {
        for bad in [
            "rate",
            "rate=fast",
            "rate=-1",
            "process=weibull",
            "shed=none",
            "kind=gpu",
            "weights=3:0",
            "clients=2,weights=1:2:3",
            "burst=0.5",
            "amp=1.5",
            "frequency=2",
        ] {
            assert!(ServingSpec::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    /// xorshift64, enough to drive the seeded mutations below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// `seed` with 1–8 byte-level edits: flips, inserts of the grammar's
    /// punctuation, extreme numbers and multi-byte text, deletions,
    /// truncation and spliced copies. The result is made UTF-8 lossily,
    /// so it can hold U+FFFD.
    fn mutate(seed: &str, rng: &mut Rng) -> String {
        const PIECES: [&str; 16] = [
            ",",
            "=",
            ":",
            ".",
            "-",
            " ",
            "0",
            "e",
            "NaN",
            "inf",
            "1e309",
            "4294967296",
            "99999999999999999999",
            "bursty",
            "é",
            "\u{1F600}",
        ];
        let mut b = seed.as_bytes().to_vec();
        for _ in 0..1 + rng.below(8) {
            let at = rng.below(b.len() + 1);
            match rng.below(5) {
                0 if at < b.len() => b[at] ^= 1 << rng.below(8),
                1 => {
                    let piece = PIECES[rng.below(PIECES.len())].as_bytes();
                    b.splice(at..at, piece.iter().copied());
                }
                2 if at < b.len() => {
                    let end = (at + 1 + rng.below(16)).min(b.len());
                    b.drain(at..end);
                }
                3 => b.truncate(at),
                _ => {
                    let from = rng.below(b.len() + 1);
                    let end = (from + rng.below(64)).min(b.len());
                    let copy = b[from..end].to_vec();
                    b.splice(at..at, copy);
                }
            }
        }
        String::from_utf8_lossy(&b).into_owned()
    }

    /// The spec in the grammar `parse` reads (`{}` prints an `f64` that
    /// parses back to the same value).
    fn render(s: &ServingSpec) -> String {
        let process = match s.process {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Bursty => "bursty",
            ArrivalProcess::Diurnal => "diurnal",
        };
        let shed = match s.shed {
            ShedPolicy::Newest => "newest",
            ShedPolicy::Oldest => "oldest",
        };
        let kind = match s.kind {
            TaskMix::Null => "null",
            TaskMix::Dummy => "dummy",
            TaskMix::Function => "function",
            TaskMix::Mixed => "mixed",
        };
        let mut out = format!(
            "rate={},process={process},clients={},horizon={},queue={},shed={shed},\
             window={},batch={},kind={kind},dur={},burst={},amp={},period={},base={}",
            s.rate,
            s.clients,
            s.horizon_s,
            s.queue,
            s.window,
            s.batch,
            s.dur_s,
            s.burst,
            s.amp,
            s.period_s,
            s.base,
        );
        if !s.weights.is_empty() {
            let w: Vec<String> = s.weights.iter().map(u32::to_string).collect();
            out += &format!(",weights={}", w.join(":"));
        }
        out
    }

    #[test]
    fn parse_never_panics_and_reparses_what_it_accepts() {
        let seed = "rate=200,process=bursty,clients=3,weights=3:2:1,horizon=120,queue=64,\
                    shed=oldest,window=512,batch=32,kind=mixed,dur=2.5,burst=8,amp=0.9,\
                    period=30,base=5000";
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut ok = 0;
        for _ in 0..4000 {
            let text = mutate(seed, &mut rng);
            if let Ok(spec) = ServingSpec::parse(&text) {
                ok += 1;
                let again = ServingSpec::parse(&render(&spec)).expect("a parsed spec re-parses");
                assert_eq!(spec, again, "{text:?}");
            }
        }
        // The mutations must leave both accepting and rejecting inputs.
        assert!((1..4000).contains(&ok), "{ok} specs parsed");
    }

    #[test]
    fn default_weights_fill_per_client() {
        let spec = ServingSpec::parse("rate=10,horizon=5,clients=4").expect("parses");
        assert_eq!(spec.effective_weights(), vec![1, 1, 1, 1]);
    }
}
