//! Randomized invariant tests for the simulation kernel: deterministic
//! replay, monotone clock, FIFO tie-breaking under arbitrary schedules, the
//! engine against a sorted-list reference model, and distribution sanity. Cases are generated from fixed-seed [`RngStream`]s,
//! so failures replay exactly (no external property-testing framework: the
//! workspace builds offline).

use rp_sim::{Actor, Ctx, Dist, Engine, RngStream, SimDuration, SimTime};

/// Actor that logs `(time, payload)` and optionally echoes with a delay.
struct Logger {
    log: Vec<(u64, u32)>,
    echo_delay_us: Option<u64>,
}

impl Actor<u32> for Logger {
    fn handle(&mut self, msg: u32, ctx: &mut Ctx<u32>) {
        self.log.push((ctx.now().as_micros(), msg));
        if let Some(d) = self.echo_delay_us {
            if msg > 0 {
                ctx.timer(SimDuration::from_micros(d), msg - 1);
            }
        }
    }
}

fn run_schedule(schedule: &[(u64, u32)], echo_delay_us: Option<u64>) -> Vec<(u64, u32)> {
    let mut eng = Engine::new();
    let id = eng.add_actor(Logger {
        log: Vec::new(),
        echo_delay_us,
    });
    for &(at, msg) in schedule {
        eng.schedule(SimTime::from_micros(at), id, msg);
    }
    eng.run_until_idle(1_000_000);
    eng.into_actor().log
}

fn random_schedule(rng: &mut RngStream, max_len: usize, t_max: u64, m_max: u32) -> Vec<(u64, u32)> {
    let len = rng.index(max_len + 1);
    (0..len)
        .map(|_| {
            (
                rng.next_u64() % t_max,
                (rng.next_u64() % m_max as u64) as u32,
            )
        })
        .collect()
}

/// The same schedule replays to the identical delivery log.
#[test]
fn engine_is_deterministic() {
    let mut rng = RngStream::derive(0xD15C0, "engine_is_deterministic");
    for case in 0..64 {
        let schedule: Vec<_> = random_schedule(&mut rng, 200, 10_000, 50)
            .into_iter()
            // Bound echo chains: cap payloads when delay could be zero to
            // avoid the livelock guard (payload n spawns n echoes).
            .map(|(t, m)| (t, m.min(30)))
            .collect();
        let delay = if rng.chance(0.5) {
            Some(rng.next_u64() % 100)
        } else {
            None
        };
        let a = run_schedule(&schedule, delay);
        let b = run_schedule(&schedule, delay);
        assert_eq!(a, b, "case {case} diverged (delay {delay:?})");
    }
}

/// Delivery times never decrease, and equal-time deliveries preserve
/// scheduling order.
#[test]
fn clock_is_monotone_and_ties_fifo() {
    let mut rng = RngStream::derive(0xF1F0, "clock_is_monotone_and_ties_fifo");
    for case in 0..64 {
        let mut schedule = random_schedule(&mut rng, 300, 1_000, 1_000);
        if schedule.is_empty() {
            schedule.push((0, 0));
        }
        let log = run_schedule(&schedule, None);
        assert_eq!(log.len(), schedule.len(), "case {case}");
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: clock went backwards: {w:?}");
        }
        // Group by time; within a group, order must match schedule order.
        let mut expected = schedule.clone();
        expected.sort_by_key(|&(t, _)| t); // stable: preserves insertion order per t
        assert_eq!(log, expected, "case {case}");
    }
}

/// splitmix64: a stateless hash, so a handler's timers are a pure
/// function of its inputs and the model can recompute them.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The delays, in µs, of the timers the handler of `msg` sets: none (3
/// in 8), one (3 in 8), two or four; a third of the delays are zero.
fn plan(seed: u64, msg: u32) -> Vec<u64> {
    let h = mix(seed ^ u64::from(msg));
    let n = [0, 0, 0, 1, 1, 1, 2, 4][(h % 8) as usize];
    (0..n)
        .map(|j| {
            let r = mix(h.wrapping_add(j));
            if (r >> 16).is_multiple_of(3) {
                0
            } else {
                (r >> 24) % 50
            }
        })
        .collect()
}

/// An actor that logs `(now, msg)` and sets the timers [`plan`] names,
/// numbering new messages from `next` until `cap`.
struct Node {
    seed: u64,
    log: Vec<(u64, u32)>,
    next: u32,
    cap: u32,
}

impl Actor<u32> for Node {
    fn handle(&mut self, msg: u32, ctx: &mut Ctx<u32>) {
        let now = ctx.now().as_micros();
        self.log.push((now, msg));
        for us in plan(self.seed, msg) {
            if self.next >= self.cap {
                break;
            }
            ctx.timer(SimDuration::from_micros(us), self.next);
            self.next += 1;
        }
    }
}

/// The reference engine: pending messages in a list sorted by
/// `(at, seq)`, delivered from the front.
#[derive(Default)]
struct Model {
    now: u64,
    seq: u64,
    next: u32,
    delivered: u64,
    peak: usize,
    pending: Vec<(u64, u64, u32)>,
    log: Vec<(u64, u32)>,
}

impl Model {
    fn push(&mut self, at: u64, msg: u32) {
        let key = (at.max(self.now), self.seq);
        self.seq += 1;
        let i = self.pending.partition_point(|p| (p.0, p.1) < key);
        self.pending.insert(i, (key.0, key.1, msg));
    }

    fn schedule(&mut self, at: u64, msg: u32) {
        self.push(at, msg);
        self.peak = self.peak.max(self.pending.len());
    }

    fn step(&mut self, seed: u64, cap: u32) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let (at, _, msg) = self.pending.remove(0);
        self.now = at;
        self.delivered += 1;
        self.log.push((at, msg));
        for us in plan(seed, msg) {
            if self.next >= cap {
                break;
            }
            let id = self.next;
            self.next += 1;
            self.push(at + us, id);
        }
        self.peak = self.peak.max(self.pending.len());
        true
    }
}

/// The engine delivers exactly what a list sorted by `(at, seq)` delivers,
/// with `seq` in send order, while the handler sets zero, one or several
/// timers (same-instant or delayed), and outside `schedule` calls land
/// between steps, some behind the clock (clamped to now). The delivery
/// log, `delivered()`, `peak_queue_depth()` and the final clock agree.
#[test]
fn engine_matches_sorted_list_model() {
    let mut rng = RngStream::derive(0x5E0, "engine_matches_sorted_list_model");
    let mut total = 0;
    for case in 0..48 {
        let seed = rng.next_u64();
        let cap = 500 + rng.index(2500) as u32;
        let mut eng = Engine::new();
        let id = eng.add_actor(Node {
            seed,
            log: Vec::new(),
            next: 0,
            cap,
        });
        let mut model = Model::default();
        // Two bursts of outside messages, the second after a few steps
        // and partly behind the clock.
        for burst in 0..2 {
            for _ in 0..1 + rng.index(16) {
                let at = rng.next_u64() % 200;
                let msg = eng.actor().next;
                eng.actor_mut().next += 1;
                model.next = msg + 1;
                eng.schedule(SimTime::from_micros(at), id, msg);
                model.schedule(at, msg);
            }
            if burst == 0 {
                for _ in 0..rng.index(40) {
                    assert_eq!(eng.step(), model.step(seed, cap), "case {case}");
                }
                assert_eq!(eng.actor().next, model.next, "case {case}");
            }
        }
        let end = eng.run_until_idle(1_000_000);
        while model.step(seed, cap) {}
        assert_eq!(eng.delivered(), model.delivered, "case {case}");
        assert_eq!(eng.peak_queue_depth(), model.peak, "case {case}");
        assert_eq!(end.as_micros(), model.now, "case {case}");
        assert_eq!(eng.queue_depth(), 0, "case {case}");
        assert_eq!(eng.into_actor().log, model.log, "case {case}");
        total += model.delivered;
    }
    // Most cases run until the send budget is spent, not until their
    // message chains die out.
    assert!(total > 48 * 1_000, "only {total} deliveries");
}

/// Every distribution yields non-negative finite samples, and scaling by
/// k scales the empirical mean by ~k.
#[test]
fn dists_sample_sane() {
    let mut rng = RngStream::derive(0xD157, "dists_sample_sane");
    for case in 0..32 {
        let seed = rng.next_u64();
        let mean = rng.uniform_range(0.001, 10.0);
        let k = rng.uniform_range(0.1, 5.0);
        let d = Dist::Exp { mean };
        let mut r1 = RngStream::derive(seed, "prop");
        let n = 4_000;
        let base: f64 = (0..n).map(|_| d.sample_secs(&mut r1)).sum::<f64>() / n as f64;
        let mut r2 = RngStream::derive(seed, "prop");
        let scaled: f64 = (0..n)
            .map(|_| d.scaled(k).sample_secs(&mut r2))
            .sum::<f64>()
            / n as f64;
        assert!(base.is_finite() && base >= 0.0, "case {case}");
        assert!(
            (scaled / base - k).abs() < 0.05 * k + 1e-9,
            "case {case}: scaled mean {scaled} vs base {base} * k {k}"
        );
    }
}

/// SimDuration::from_secs_f64 round-trips within 1 µs for sane inputs.
#[test]
fn duration_roundtrip() {
    let mut rng = RngStream::derive(0xD0, "duration_roundtrip");
    for _ in 0..10_000 {
        let s = rng.uniform_range(0.0, 1.0e6);
        let d = SimDuration::from_secs_f64(s);
        assert!((d.as_secs_f64() - s).abs() <= 1e-6, "input {s}");
    }
}
