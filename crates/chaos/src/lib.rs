//! `rp-chaos` — the deterministic fault-injection plane.
//!
//! A [`FaultSpec`] describes *how much* chaos a run should suffer (node
//! failures, backend crashes, hung tasks, the recovery policy); a
//! [`FaultPlan`] is that spec *realized* against a concrete deployment
//! shape with a dedicated seed. Realization draws every random decision —
//! fault times, victim partitions, victim nodes, hang victims — up front
//! from one `RngStream::derive(fault_seed, "chaos.plan")` stream, so:
//!
//! 1. the plan is a pure function of `(spec, fault_seed, shape)` — the
//!    same fault seed replays the exact same faults, byte for byte;
//! 2. no draw ever interleaves with the workload or backend streams — the
//!    healthy trajectory between faults is untouched, and disabling
//!    faults reproduces the fault-free run exactly.
//!
//! The plan is consumed by `rp-core`'s agent: each [`FaultEvent`] becomes
//! one engine message scheduled before the run starts, and recovery is
//! steered by the plan's [`RecoveryPolicy`] on the agent's existing
//! fail/retry path.

#![warn(missing_docs)]

use rp_sim::{RngStream, SimDuration, SimTime};

/// What kind of fault an event injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A node vanishes mid-run: its free capacity is removed and resident
    /// tasks are killed.
    NodeFailure,
    /// A backend/adapter crash: the whole instance dies, losing every
    /// queued and running task, and optionally restarts later.
    BackendCrash,
    /// A task hangs at launch: the backend never acknowledges it, and only
    /// the watchdog timeout recovers it.
    TaskHang,
}

impl FaultKind {
    /// Stable lower-case name (used in alarms and narration).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::NodeFailure => "node_failure",
            FaultKind::BackendCrash => "backend_crash",
            FaultKind::TaskHang => "task_hang",
        }
    }
}

/// How a fault-failed task is recovered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryPolicy {
    /// Re-stage after `base * factor^attempt` (attempt counts prior
    /// retries); the delay shows up as `recovery_overhead` blame.
    RetryBackoff {
        /// Delay before the first retry.
        base: SimDuration,
        /// Multiplier applied per additional retry.
        factor: u32,
    },
    /// Re-stage immediately, steering placement away from the partition
    /// that failed the task.
    ResubmitElsewhere,
    /// Never retry: a fault-failed task ends `Failed` at once, whatever
    /// the retry budget (`retries=N` still bounds the ordinary exception
    /// path).
    GiveUp,
}

impl RecoveryPolicy {
    /// The delay before re-staging a task that has already been retried
    /// `prior_retries` times.
    pub fn backoff(&self, prior_retries: u32) -> SimDuration {
        match self {
            RecoveryPolicy::RetryBackoff { base, factor } => {
                let mult = u64::from(*factor).saturating_pow(prior_retries.min(16));
                SimDuration::from_micros(base.as_micros().saturating_mul(mult))
            }
            _ => SimDuration::ZERO,
        }
    }
}

/// A parsed `--faults` specification. See [`FaultSpec::parse`] for the
/// accepted grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Number of node failures to inject.
    pub node_failures: u32,
    /// Number of backend crashes to inject.
    pub crashes: u32,
    /// Number of tasks that hang at launch.
    pub hangs: u32,
    /// Faults are injected uniformly inside `[window_start, window_end)`.
    pub window_start: SimDuration,
    /// End of the injection window.
    pub window_end: SimDuration,
    /// How long a failed node stays down (ZERO = forever).
    pub downtime: SimDuration,
    /// Restart latency after a backend crash (`None` = no restart).
    pub restart: Option<SimDuration>,
    /// Watchdog timeout detecting hung tasks.
    pub watchdog: SimDuration,
    /// Recovery policy for fault-failed tasks.
    pub policy: RecoveryPolicy,
    /// Override for the pilot's max retry count (`None` = keep config).
    pub max_retries: Option<u32>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            node_failures: 0,
            crashes: 0,
            hangs: 0,
            window_start: SimDuration::from_secs(30),
            window_end: SimDuration::from_secs(600),
            downtime: SimDuration::from_secs(120),
            restart: Some(SimDuration::from_secs(30)),
            watchdog: SimDuration::from_secs(60),
            policy: RecoveryPolicy::RetryBackoff {
                base: SimDuration::from_secs(5),
                factor: 2,
            },
            max_retries: None,
        }
    }
}

impl FaultSpec {
    /// Parse a comma-separated spec, e.g.
    /// `nodes=2,crashes=1,hangs=3,window=60..600,downtime=120,restart=30,watchdog=90,retries=3,policy=backoff:5:2`.
    ///
    /// Fields (all optional; unset fields keep [`FaultSpec::default`]):
    ///
    /// * `nodes=N` — node failures; `crashes=N` — backend crashes;
    ///   `hangs=N` — hung tasks;
    /// * `window=A..B` — injection window in seconds;
    /// * `downtime=S` — node downtime seconds (0 = node never returns);
    /// * `restart=S` — backend restart latency seconds (`restart=never`
    ///   disables restarts);
    /// * `watchdog=S` — hung-task detection timeout seconds;
    /// * `retries=N` — override the pilot's max retry count;
    /// * `policy=backoff:BASE_S:FACTOR | elsewhere | giveup`.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for field in s.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            let (key, val) = field
                .split_once('=')
                .ok_or_else(|| format!("fault spec field `{field}` is not key=value"))?;
            let uint = |v: &str| -> Result<u64, String> {
                v.parse::<u64>()
                    .map_err(|_| format!("fault spec `{key}={v}`: not an integer"))
            };
            let count = |v: &str| -> Result<u32, String> {
                u32::try_from(uint(v)?)
                    .map_err(|_| format!("fault spec `{key}={v}`: above {}", u32::MAX))
            };
            let secs = |v: &str| -> Result<SimDuration, String> {
                let us = uint(v)?.checked_mul(SimDuration::from_secs(1).as_micros());
                us.map(SimDuration::from_micros)
                    .ok_or_else(|| format!("fault spec `{key}={v}`: seconds overflow the clock"))
            };
            match key {
                "nodes" => spec.node_failures = count(val)?,
                "crashes" => spec.crashes = count(val)?,
                "hangs" => spec.hangs = count(val)?,
                "window" => {
                    let (a, b) = val
                        .split_once("..")
                        .ok_or_else(|| format!("fault spec `window={val}`: want A..B"))?;
                    spec.window_start = secs(a)?;
                    spec.window_end = secs(b)?;
                    if spec.window_end <= spec.window_start {
                        return Err(format!("fault spec `window={val}`: empty window"));
                    }
                }
                "downtime" => spec.downtime = secs(val)?,
                "restart" => {
                    spec.restart = if val == "never" {
                        None
                    } else {
                        Some(secs(val)?)
                    }
                }
                "watchdog" => spec.watchdog = secs(val)?,
                "retries" => spec.max_retries = Some(count(val)?),
                "policy" => {
                    let mut parts = val.split(':');
                    spec.policy = match parts.next() {
                        Some("backoff") => {
                            let base = parts.next().map(secs).transpose()?;
                            let factor = parts.next().map(count).transpose()?;
                            RecoveryPolicy::RetryBackoff {
                                base: base.unwrap_or(SimDuration::from_secs(5)),
                                factor: factor.unwrap_or(2),
                            }
                        }
                        Some("elsewhere") => RecoveryPolicy::ResubmitElsewhere,
                        Some("giveup") => RecoveryPolicy::GiveUp,
                        other => {
                            return Err(format!("fault spec policy `{other:?}` unknown"));
                        }
                    };
                }
                other => return Err(format!("fault spec field `{other}` unknown")),
            }
        }
        Ok(spec)
    }

    /// Whether this spec injects anything at all.
    pub fn is_active(&self) -> bool {
        self.node_failures > 0 || self.crashes > 0 || self.hangs > 0
    }
}

/// The deployment shape a plan is realized against.
#[derive(Debug, Clone, Copy)]
pub struct PlanShape {
    /// Number of backend partitions (instances).
    pub partitions: u32,
    /// Nodes per partition.
    pub nodes_per_partition: u32,
    /// Whether the backend is instance-structured (crashable). When false
    /// (srun), requested crashes are realized as node failures instead.
    pub instance_structured: bool,
    /// Upper bound on task uids, for hang-victim selection.
    pub task_hint: u64,
}

/// One scheduled fault (or its paired recovery transition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Take a node down, killing resident tasks.
    FailNode {
        /// Victim partition.
        partition: u32,
        /// Node index within the partition.
        node_idx: u32,
    },
    /// Bring a previously failed node back.
    RestoreNode {
        /// Partition of the returning node.
        partition: u32,
        /// Node index within the partition.
        node_idx: u32,
    },
    /// Crash a whole backend instance.
    CrashBackend {
        /// Victim partition.
        partition: u32,
    },
    /// Restart a crashed backend instance (fresh bootstrap).
    RestartBackend {
        /// Partition to restart.
        partition: u32,
    },
}

/// A fault action bound to its injection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute sim time of the action.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A realized plan: every fault decision made up front, nothing left to
/// chance at run time.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Scheduled fault events, ordered by `(at, generation index)`.
    pub events: Vec<FaultEvent>,
    /// Uids that hang on their first launch attempt (sorted, deduped).
    pub hang_victims: Vec<u64>,
    /// Watchdog timeout for hang detection.
    pub watchdog: SimDuration,
    /// Recovery policy for fault-failed tasks.
    pub policy: RecoveryPolicy,
    /// Max-retry override (`None` = keep the pilot config's value).
    pub max_retries: Option<u32>,
}

impl FaultPlan {
    /// Realize `spec` against `shape` with its own RNG stream. Pure:
    /// identical inputs produce identical plans.
    pub fn generate(spec: &FaultSpec, fault_seed: u64, shape: &PlanShape) -> FaultPlan {
        let mut rng = RngStream::derive(fault_seed, "chaos.plan");
        let partitions = shape.partitions.max(1);
        let nodes = shape.nodes_per_partition.max(1);
        let span = spec
            .window_end
            .as_micros()
            .saturating_sub(spec.window_start.as_micros())
            .max(1);
        let draw_at = |rng: &mut RngStream| {
            SimTime::ZERO
                + spec.window_start
                + SimDuration::from_micros((rng.next_u64() % span).max(1))
        };

        let mut events: Vec<FaultEvent> = Vec::new();
        for _ in 0..spec.node_failures {
            let at = draw_at(&mut rng);
            let partition = rng.index(partitions as usize) as u32;
            let node_idx = rng.index(nodes as usize) as u32;
            events.push(FaultEvent {
                at,
                action: FaultAction::FailNode {
                    partition,
                    node_idx,
                },
            });
            if spec.downtime > SimDuration::ZERO {
                events.push(FaultEvent {
                    at: at + spec.downtime,
                    action: FaultAction::RestoreNode {
                        partition,
                        node_idx,
                    },
                });
            }
        }
        for _ in 0..spec.crashes {
            let at = draw_at(&mut rng);
            let partition = rng.index(partitions as usize) as u32;
            if shape.instance_structured {
                events.push(FaultEvent {
                    at,
                    action: FaultAction::CrashBackend { partition },
                });
                if let Some(latency) = spec.restart {
                    events.push(FaultEvent {
                        at: at + latency,
                        action: FaultAction::RestartBackend { partition },
                    });
                }
            } else {
                // srun has no crashable instance: degrade to a node failure
                // so the requested fault count still lands.
                let node_idx = rng.index(nodes as usize) as u32;
                events.push(FaultEvent {
                    at,
                    action: FaultAction::FailNode {
                        partition,
                        node_idx,
                    },
                });
                if spec.downtime > SimDuration::ZERO {
                    events.push(FaultEvent {
                        at: at + spec.downtime,
                        action: FaultAction::RestoreNode {
                            partition,
                            node_idx,
                        },
                    });
                }
            }
        }
        // Stable order: by time, generation index breaking ties, so the
        // engine's FIFO tie-break sees a deterministic schedule.
        events.sort_by_key(|e| e.at);

        let mut hang_victims: Vec<u64> = Vec::new();
        if shape.task_hint > 0 {
            for _ in 0..spec.hangs {
                hang_victims.push(rng.next_u64() % shape.task_hint);
            }
            hang_victims.sort_unstable();
            hang_victims.dedup();
        }

        FaultPlan {
            events,
            hang_victims,
            watchdog: spec.watchdog,
            policy: spec.policy,
            max_retries: spec.max_retries,
        }
    }

    /// Whether this plan injects anything.
    pub fn is_active(&self) -> bool {
        !self.events.is_empty() || !self.hang_victims.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> PlanShape {
        PlanShape {
            partitions: 4,
            nodes_per_partition: 8,
            instance_structured: true,
            task_hint: 1000,
        }
    }

    #[test]
    fn parse_roundtrips_every_field() {
        let s = FaultSpec::parse(
            "nodes=2,crashes=1,hangs=3,window=60..600,downtime=120,restart=30,watchdog=90,retries=3,policy=backoff:5:2",
        )
        .expect("valid spec");
        assert_eq!(s.node_failures, 2);
        assert_eq!(s.crashes, 1);
        assert_eq!(s.hangs, 3);
        assert_eq!(s.window_start, SimDuration::from_secs(60));
        assert_eq!(s.window_end, SimDuration::from_secs(600));
        assert_eq!(s.downtime, SimDuration::from_secs(120));
        assert_eq!(s.restart, Some(SimDuration::from_secs(30)));
        assert_eq!(s.watchdog, SimDuration::from_secs(90));
        assert_eq!(s.max_retries, Some(3));
        assert_eq!(
            s.policy,
            RecoveryPolicy::RetryBackoff {
                base: SimDuration::from_secs(5),
                factor: 2
            }
        );
        assert!(s.is_active());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FaultSpec::parse("nodes").is_err());
        assert!(FaultSpec::parse("nodes=x").is_err());
        assert!(FaultSpec::parse("window=9..3").is_err());
        assert!(FaultSpec::parse("policy=quantum").is_err());
        assert!(FaultSpec::parse("zebras=4").is_err());
    }

    #[test]
    fn parse_rejects_counts_above_u32() {
        for key in ["nodes", "crashes", "hangs", "retries"] {
            assert!(
                FaultSpec::parse(&format!("{key}=4294967295")).is_ok(),
                "{key}"
            );
            let err = FaultSpec::parse(&format!("{key}=4294967296")).unwrap_err();
            assert!(err.contains(&format!("`{key}=4294967296`")), "{err}");
        }
        let err = FaultSpec::parse("policy=backoff:5:4294967296").unwrap_err();
        assert!(err.contains("`policy=4294967296`"), "{err}");
    }

    #[test]
    fn parse_rejects_seconds_that_overflow_the_clock() {
        // u64::MAX µs is 18,446,744,073,709.55 s: the last whole second
        // fits, the next one must not wrap or panic.
        let max = "18446744073709";
        let over = "18446744073710";
        for key in ["downtime", "restart", "watchdog"] {
            assert!(FaultSpec::parse(&format!("{key}={max}")).is_ok(), "{key}");
            let err = FaultSpec::parse(&format!("{key}={over}")).unwrap_err();
            assert!(err.contains(&format!("`{key}={over}`")), "{err}");
            let err = FaultSpec::parse(&format!("{key}=99999999999999")).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
        assert!(FaultSpec::parse(&format!("window=0..{max}")).is_ok());
        let err = FaultSpec::parse(&format!("window=0..{over}")).unwrap_err();
        assert!(err.contains(&format!("`window={over}`")), "{err}");
        let err = FaultSpec::parse(&format!("window={over}..{over}9")).unwrap_err();
        assert!(err.contains(&format!("`window={over}`")), "{err}");
        assert!(FaultSpec::parse(&format!("policy=backoff:{max}:2")).is_ok());
        let err = FaultSpec::parse(&format!("policy=backoff:{over}:2")).unwrap_err();
        assert!(err.contains(&format!("`policy={over}`")), "{err}");
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
    /// punctuation, huge numbers and multi-byte text, deletions,
    /// truncation and spliced copies. The result is made UTF-8 lossily,
    /// so it can hold U+FFFD.
    fn mutate(seed: &str, rng: &mut Rng) -> String {
        const PIECES: [&str; 16] = [
            ",",
            "=",
            "..",
            ":",
            "-",
            " ",
            "0",
            "9",
            "4294967296",
            "18446744073710",
            "99999999999999999999",
            "never",
            "backoff",
            "elsewhere",
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

    /// The spec in the grammar `parse` reads; every parsed duration is a
    /// whole number of seconds.
    fn render(s: &FaultSpec) -> String {
        let secs = |d: SimDuration| d.as_micros() / SimDuration::from_secs(1).as_micros();
        let mut out = format!(
            "nodes={},crashes={},hangs={},window={}..{},downtime={},watchdog={}",
            s.node_failures,
            s.crashes,
            s.hangs,
            secs(s.window_start),
            secs(s.window_end),
            secs(s.downtime),
            secs(s.watchdog),
        );
        match s.restart {
            Some(d) => out += &format!(",restart={}", secs(d)),
            None => out += ",restart=never",
        }
        if let Some(n) = s.max_retries {
            out += &format!(",retries={n}");
        }
        match s.policy {
            RecoveryPolicy::RetryBackoff { base, factor } => {
                out += &format!(",policy=backoff:{}:{factor}", secs(base))
            }
            RecoveryPolicy::ResubmitElsewhere => out += ",policy=elsewhere",
            RecoveryPolicy::GiveUp => out += ",policy=giveup",
        }
        out
    }

    #[test]
    fn parse_never_panics_and_reparses_what_it_accepts() {
        let seed = "nodes=2,crashes=1,hangs=3,window=60..600,downtime=120,\
                    restart=30,watchdog=90,retries=3,policy=backoff:5:2";
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut ok = 0;
        for _ in 0..4000 {
            let text = mutate(seed, &mut rng);
            if let Ok(spec) = FaultSpec::parse(&text) {
                ok += 1;
                let again = FaultSpec::parse(&render(&spec)).expect("a parsed spec re-parses");
                assert_eq!(spec, again, "{text:?}");
            }
        }
        // The mutations must leave both accepting and rejecting inputs.
        assert!((1..4000).contains(&ok), "{ok} specs parsed");
    }

    #[test]
    fn empty_spec_is_inactive_default() {
        let s = FaultSpec::parse("").expect("empty spec is fine");
        assert_eq!(s, FaultSpec::default());
        assert!(!s.is_active());
    }

    #[test]
    fn same_seed_same_plan() {
        let spec = FaultSpec::parse("nodes=3,crashes=2,hangs=5").unwrap();
        let a = FaultPlan::generate(&spec, 0xFA17, &shape());
        let b = FaultPlan::generate(&spec, 0xFA17, &shape());
        assert_eq!(a.events, b.events);
        assert_eq!(a.hang_victims, b.hang_victims);
        assert!(a.is_active());
    }

    #[test]
    fn different_seed_different_plan() {
        let spec = FaultSpec::parse("nodes=3,crashes=2,hangs=5").unwrap();
        let a = FaultPlan::generate(&spec, 1, &shape());
        let b = FaultPlan::generate(&spec, 2, &shape());
        assert_ne!((a.events, a.hang_victims), (b.events, b.hang_victims));
    }

    #[test]
    fn events_are_time_ordered_and_inside_window() {
        let spec = FaultSpec::parse("nodes=8,crashes=4,window=10..50").unwrap();
        let plan = FaultPlan::generate(&spec, 7, &shape());
        let lo = SimTime::ZERO + spec.window_start;
        for w in plan.events.windows(2) {
            assert!(w[0].at <= w[1].at, "events must be time-ordered");
        }
        for e in &plan.events {
            // Recovery transitions may land past the window; injections not.
            if matches!(
                e.action,
                FaultAction::FailNode { .. } | FaultAction::CrashBackend { .. }
            ) {
                assert!(e.at >= lo, "injection before window: {e:?}");
                assert!(
                    e.at <= lo + SimDuration::from_secs(40),
                    "injection past window: {e:?}"
                );
            }
        }
    }

    #[test]
    fn srun_shape_degrades_crashes_to_node_failures() {
        let spec = FaultSpec::parse("crashes=3,downtime=0").unwrap();
        let plan = FaultPlan::generate(
            &spec,
            11,
            &PlanShape {
                partitions: 1,
                nodes_per_partition: 4,
                instance_structured: false,
                task_hint: 10,
            },
        );
        assert_eq!(plan.events.len(), 3);
        assert!(plan
            .events
            .iter()
            .all(|e| matches!(e.action, FaultAction::FailNode { .. })));
    }

    #[test]
    fn backoff_grows_geometrically_and_saturates() {
        let p = RecoveryPolicy::RetryBackoff {
            base: SimDuration::from_secs(5),
            factor: 2,
        };
        assert_eq!(p.backoff(0), SimDuration::from_secs(5));
        assert_eq!(p.backoff(1), SimDuration::from_secs(10));
        assert_eq!(p.backoff(2), SimDuration::from_secs(20));
        assert!(p.backoff(60) > SimDuration::from_secs(20)); // saturating, no panic
        assert_eq!(RecoveryPolicy::GiveUp.backoff(3), SimDuration::ZERO);
        assert_eq!(
            RecoveryPolicy::ResubmitElsewhere.backoff(3),
            SimDuration::ZERO
        );
    }

    #[test]
    fn hang_victims_bounded_by_task_hint() {
        let spec = FaultSpec::parse("hangs=50").unwrap();
        let plan = FaultPlan::generate(&spec, 3, &shape());
        assert!(!plan.hang_victims.is_empty());
        assert!(plan.hang_victims.iter().all(|&u| u < 1000));
        let mut sorted = plan.hang_victims.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, plan.hang_victims, "sorted + deduped");
    }
}
