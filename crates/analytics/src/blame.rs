//! Blame decomposition over causal lineage: *where did each task's time
//! go, exactly?*
//!
//! [`blame_task`] decomposes one task's time-to-completion into named
//! blame segments with an exact identity: segments are the gaps between
//! consecutive **milestone** events (submit, stage done, sched done,
//! handoff, place ok, launch start, exec, term seen, and the terminal
//! states), named after the phase the earlier milestone opens. Because
//! the decomposition telescopes over the milestone chain in integer
//! microseconds, the segment durations *sum exactly* to the end-to-end
//! latency — no float accumulation, no special cases for retries or
//! failures (a retry loop simply contributes `retry` and repeated
//! pipeline segments).
//!
//! Annotation events (route decisions, queue positions, placement
//! rejects, broker hops) never open segments; they decorate the story
//! [`explain`] narrates and feed the reject/retry counters.
//!
//! [`blame_report`] folds every task's segments per phase and picks the
//! critical path: the blame of the task whose terminal milestone comes
//! last, preceded by a `pending` segment from the run's first submission
//! to that task's submission. Pending plus the task's segments equal the
//! makespan exactly, by the same telescoping.
//!
//! [`diff_reports`] compares two runs phase-by-phase — the differential
//! attribution behind `rp-explain --diff a/ b/`: which blame segment
//! moved between a baseline and a candidate run.

use rp_lineage::{
    detail_name, Event, LineageData, EV_BACKEND_QUEUE, EV_BROKER_HOP, EV_CANCELED, EV_DONE,
    EV_EXEC, EV_FAILED, EV_FAULT, EV_HANDOFF, EV_LAUNCH_START, EV_PLACE_OK, EV_PLACE_REJECT,
    EV_RETRY, EV_ROUTE, EV_SCHED_DONE, EV_STAGE_DONE, EV_SUBMIT, EV_TERM_SEEN, NO_BACKEND,
    NO_PARTITION, NO_VALUE,
};
use rp_sim::SimTime;
use std::fmt::Write as _;

/// Canonical blame phases, in pipeline order. Reports always list all of
/// them (zeros included) so two runs diff column-by-column.
pub const PHASES: [&str; 9] = [
    "stage",
    "schedule",
    "adapter",
    "backend_queue",
    "launch",
    "execute",
    "collect",
    "retry",
    "recovery_overhead",
];

/// The blame phase the gap *after* a milestone of `kind` belongs to, or
/// `None` when `kind` is an annotation or a terminal milestone (nothing
/// follows it).
pub fn phase_after(kind: u8) -> Option<&'static str> {
    match kind {
        EV_SUBMIT | EV_RETRY => Some("stage"),
        EV_STAGE_DONE => Some("schedule"),
        EV_SCHED_DONE => Some("adapter"),
        EV_HANDOFF => Some("backend_queue"),
        // Placement grant and launch-machinery engagement both open
        // launch time; adjacent same-name gaps merge into one segment.
        EV_PLACE_OK | EV_LAUNCH_START => Some("launch"),
        EV_EXEC => Some("execute"),
        EV_TERM_SEEN => Some("collect"),
        EV_FAILED => Some("retry"),
        // A fault marker follows its fault-induced `EV_FAILED` at the same
        // instant; everything from there to the retry (watchdog drain,
        // recovery backoff, re-staging delay) is recovery overhead.
        EV_FAULT => Some("recovery_overhead"),
        _ => None,
    }
}

/// True when `kind` is a milestone — an event that closes the previous
/// blame segment and opens the next.
pub fn is_milestone(kind: u8) -> bool {
    matches!(
        kind,
        EV_SUBMIT
            | EV_STAGE_DONE
            | EV_SCHED_DONE
            | EV_HANDOFF
            | EV_PLACE_OK
            | EV_LAUNCH_START
            | EV_EXEC
            | EV_TERM_SEEN
            | EV_DONE
            | EV_FAILED
            | EV_RETRY
            | EV_CANCELED
            | EV_FAULT
    )
}

/// One named blame segment of a task's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlameSegment {
    /// Phase name (one of [`PHASES`]).
    pub phase: &'static str,
    /// When the segment opened on the sim clock.
    pub start: SimTime,
    /// Exact length in integer microseconds.
    pub duration_us: u64,
}

/// One task's complete blame decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskBlame {
    /// The task.
    pub uid: u64,
    /// First milestone (submission) timestamp.
    pub submitted: SimTime,
    /// Last milestone (terminal) timestamp.
    pub finished: SimTime,
    /// Exact end-to-end latency in integer microseconds.
    pub end_to_end_us: u64,
    /// `done`, `failed`, `canceled`, or `incomplete` (no terminal
    /// milestone on file).
    pub outcome: &'static str,
    /// Final routed backend (`BackendKind as u8`), when a route event
    /// exists.
    pub backend: Option<u8>,
    /// Final routed partition.
    pub partition: Option<u32>,
    /// Blame segments in chronological order, adjacent same-phase gaps
    /// merged. Zero-length gaps are kept only when they separate
    /// distinct phases (they carry no time either way).
    pub segments: Vec<BlameSegment>,
    /// Placement attempts that bounced (annotation count).
    pub rejects: u32,
    /// Retry attempts.
    pub retries: u32,
}

impl TaskBlame {
    /// Sum of segment durations — by construction equal to
    /// [`TaskBlame::end_to_end_us`]; exposed so tests can assert the
    /// identity.
    pub fn segments_total_us(&self) -> u64 {
        self.segments.iter().map(|s| s.duration_us).sum()
    }
}

/// Decompose one task's recorded chain. `None` when the lineage has no
/// milestone events for `uid`.
pub fn blame_task(data: &LineageData, uid: u64) -> Option<TaskBlame> {
    let events = data.events_for(uid);
    let mut segments: Vec<BlameSegment> = Vec::new();
    let mut prev: Option<&Event> = None;
    let mut first: Option<&Event> = None;
    let mut last: Option<&Event> = None;
    let mut backend = None;
    let mut partition = None;
    let mut rejects = 0u32;
    let mut retries = 0u32;
    for e in events {
        match e.kind {
            EV_ROUTE => {
                if e.backend != NO_BACKEND {
                    backend = Some(e.backend);
                }
                if e.partition != NO_PARTITION {
                    partition = Some(e.partition);
                }
            }
            EV_PLACE_REJECT => rejects += 1,
            EV_RETRY => retries += 1,
            _ => {}
        }
        if !is_milestone(e.kind) {
            continue;
        }
        if let Some(p) = prev {
            let phase = phase_after(p.kind).unwrap_or("stage");
            let dur = e.t.as_micros() - p.t.as_micros();
            match segments.last_mut() {
                Some(s) if s.phase == phase => s.duration_us += dur,
                _ => segments.push(BlameSegment {
                    phase,
                    start: p.t,
                    duration_us: dur,
                }),
            }
        }
        first.get_or_insert(e);
        last = Some(e);
        prev = Some(e);
    }
    let (first, last) = (first?, last?);
    let outcome = match last.kind {
        EV_DONE => "done",
        EV_CANCELED => "canceled",
        // A trailing fault marker means the task gave up right after its
        // fault-induced terminal failure.
        EV_FAILED | EV_FAULT => "failed",
        _ => "incomplete",
    };
    Some(TaskBlame {
        uid,
        submitted: first.t,
        finished: last.t,
        end_to_end_us: last.t.as_micros() - first.t.as_micros(),
        outcome,
        backend,
        partition,
        segments,
        rejects,
        retries,
    })
}

/// The chain that decides a run's makespan (first submission → last
/// terminal milestone): a `pending` wait until the last-finishing task
/// was submitted, then that task's own blame segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Exact makespan in integer microseconds.
    pub makespan_us: u64,
    /// The run's first submission → the critical task's submission.
    pub pending_us: u64,
    /// The task with the latest terminal milestone (ties go to the
    /// lowest uid).
    pub task: TaskBlame,
}

impl CriticalPath {
    /// `pending` plus the task's segments — by construction equal to
    /// [`CriticalPath::makespan_us`]; exposed so tests can assert the
    /// identity.
    pub fn segments_total_us(&self) -> u64 {
        self.pending_us + self.task.segments_total_us()
    }
}

/// Aggregate blame across every task in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameReport {
    /// Tasks decomposed.
    pub tasks: u64,
    /// Sum of end-to-end latencies (µs) — equals the sum of
    /// `phase_total_us`, the aggregate form of the per-task identity.
    pub total_us: u64,
    /// Total µs attributed to each phase, indexed like [`PHASES`].
    pub phase_total_us: [u64; PHASES.len()],
    /// Placement rejects across all tasks.
    pub rejects: u64,
    /// Retry attempts across all tasks.
    pub retries: u64,
    /// Tasks by outcome: done, failed, canceled, incomplete.
    pub outcomes: [u64; 4],
    /// The makespan-deciding chain; `None` when no task reached a
    /// terminal milestone.
    pub critical: Option<CriticalPath>,
}

/// Decompose every task in `data`, fold the segments per phase, and pick
/// the critical path.
pub fn blame_report(data: &LineageData) -> BlameReport {
    let mut rep = BlameReport {
        tasks: 0,
        total_us: 0,
        phase_total_us: [0; PHASES.len()],
        rejects: 0,
        retries: 0,
        outcomes: [0; 4],
        critical: None,
    };
    let mut first_submit: Option<SimTime> = None;
    // (terminal time, uid) of the last-finishing task so far; uids come
    // in ascending order, so a strict comparison keeps the lowest on ties.
    let mut last: Option<(SimTime, u64)> = None;
    for uid in data.uids() {
        let Some(tb) = blame_task(data, uid) else {
            continue;
        };
        first_submit = Some(first_submit.map_or(tb.submitted, |t| t.min(tb.submitted)));
        if tb.outcome != "incomplete" && last.is_none_or(|(t, _)| tb.finished > t) {
            last = Some((tb.finished, uid));
        }
        rep.tasks += 1;
        rep.total_us += tb.end_to_end_us;
        for seg in &tb.segments {
            let idx = PHASES.iter().position(|&p| p == seg.phase).unwrap_or(0);
            rep.phase_total_us[idx] += seg.duration_us;
        }
        rep.rejects += u64::from(tb.rejects);
        rep.retries += u64::from(tb.retries);
        let o = match tb.outcome {
            "done" => 0,
            "failed" => 1,
            "canceled" => 2,
            _ => 3,
        };
        rep.outcomes[o] += 1;
    }
    if let (Some(first), Some((_, uid))) = (first_submit, last) {
        rep.critical = blame_task(data, uid).map(|task| CriticalPath {
            makespan_us: task.finished.as_micros() - first.as_micros(),
            pending_us: task.submitted.as_micros() - first.as_micros(),
            task,
        });
    }
    rep
}

/// Exact-microsecond formatter: `S.UUUUUU` from integers, never floats,
/// so rendered reports are byte-deterministic.
pub(crate) fn fmt_us(us: u64) -> String {
    format!("{}.{:06}", us / 1_000_000, us % 1_000_000)
}

/// Share of `part` in `total` as permille, integer-rounded (0 when the
/// total is zero).
fn permille(part: u64, total: u64) -> u64 {
    (part * 1000 + total / 2).checked_div(total).unwrap_or(0)
}

fn fmt_permille(pm: u64) -> String {
    format!("{}.{}%", pm / 10, pm % 10)
}

/// One task's causal story: the chronological event narrative followed
/// by the blame table. `None` when the lineage has no events for `uid`.
pub fn explain(data: &LineageData, uid: u64) -> Option<String> {
    let events = data.events_for(uid);
    if events.is_empty() {
        return None;
    }
    let tb = blame_task(data, uid)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "task {uid}: {} in {} s",
        tb.outcome,
        fmt_us(tb.end_to_end_us)
    );
    let backend = tb
        .backend
        .and_then(|b| rp_lineage::BACKEND_NAMES.get(b as usize).copied());
    match (backend, tb.partition) {
        (Some(b), Some(p)) => {
            let _ = writeln!(out, "  routed to {b}.{p}");
        }
        (Some(b), None) => {
            let _ = writeln!(out, "  routed to {b}");
        }
        _ => {}
    }
    if tb.rejects > 0 || tb.retries > 0 {
        let _ = writeln!(
            out,
            "  {} placement reject(s), {} retry attempt(s)",
            tb.rejects, tb.retries
        );
    }
    // Fault story: one line per injected fault, naming the fault kind and
    // where (or whether) the task came back.
    for (i, e) in events.iter().enumerate() {
        if e.kind != EV_FAULT {
            continue;
        }
        let kind = detail_name(EV_FAULT, e.detail).unwrap_or("fault");
        let _ = write!(out, "  killed by {kind} at t={} s", fmt_us(e.t.as_micros()));
        // Resubmission target = the first route decision after the fault.
        let next_route = events[i + 1..].iter().find(|n| n.kind == EV_ROUTE);
        match next_route {
            Some(r) if r.backend != NO_BACKEND => {
                let name = rp_lineage::BACKEND_NAMES
                    .get(r.backend as usize)
                    .copied()
                    .unwrap_or("unknown");
                if r.partition != NO_PARTITION {
                    let _ = writeln!(out, ", resubmitted to partition {name}.{}", r.partition);
                } else {
                    let _ = writeln!(out, ", resubmitted to {name}");
                }
            }
            _ if events[i + 1..].iter().any(|n| n.kind == EV_RETRY) => {
                let _ = writeln!(out, ", resubmitted in place");
            }
            _ => {
                let _ = writeln!(out, ", gave up");
            }
        }
    }
    let _ = writeln!(out, "\ncausal chain:");
    for e in events {
        let us = e.t.as_micros();
        let _ = write!(
            out,
            "  t={} {:<13}",
            fmt_us(us),
            rp_lineage::EVENT_NAMES[e.kind as usize]
        );
        if let Some(d) = detail_name(e.kind, e.detail) {
            let _ = write!(out, " [{d}]");
        }
        if e.backend != NO_BACKEND {
            let name = rp_lineage::BACKEND_NAMES
                .get(e.backend as usize)
                .copied()
                .unwrap_or("unknown");
            if e.partition != NO_PARTITION {
                let _ = write!(out, " @{name}.{}", e.partition);
            } else {
                let _ = write!(out, " @{name}");
            }
        }
        if e.value != NO_VALUE {
            let label = match e.kind {
                EV_BACKEND_QUEUE | EV_BROKER_HOP | EV_LAUNCH_START => "queue",
                EV_PLACE_REJECT => "free",
                EV_PLACE_OK => "granted",
                EV_FAULT => "node",
                _ => "value",
            };
            let _ = write!(out, " ({label}={})", e.value);
        }
        out.push('\n');
    }
    let _ = writeln!(out, "\nblame (segments sum exactly to end-to-end):");
    for seg in &tb.segments {
        let _ = writeln!(
            out,
            "  {:<13} {:>14} s  {:>6}",
            seg.phase,
            fmt_us(seg.duration_us),
            fmt_permille(permille(seg.duration_us, tb.end_to_end_us))
        );
    }
    let _ = writeln!(
        out,
        "  {:<13} {:>14} s  100.0%",
        "total",
        fmt_us(tb.segments_total_us())
    );
    Some(out)
}

/// Render an aggregate blame report as fixed-width text.
pub fn render_report(label: &str, rep: &BlameReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "blame report: {label} ({} tasks, {} s task-time)",
        rep.tasks,
        fmt_us(rep.total_us)
    );
    let _ = writeln!(
        out,
        "  outcomes: {} done, {} failed, {} canceled, {} incomplete",
        rep.outcomes[0], rep.outcomes[1], rep.outcomes[2], rep.outcomes[3]
    );
    let _ = writeln!(
        out,
        "  {} placement reject(s), {} retry attempt(s)",
        rep.rejects, rep.retries
    );
    for (i, phase) in PHASES.iter().enumerate() {
        let us = rep.phase_total_us[i];
        let _ = writeln!(
            out,
            "  {:<13} {:>16} s  {:>6}",
            phase,
            fmt_us(us),
            fmt_permille(permille(us, rep.total_us))
        );
    }
    let Some(cp) = &rep.critical else {
        let _ = writeln!(out, "critical path: no task reached a terminal milestone");
        return out;
    };
    let _ = writeln!(
        out,
        "critical path (segments sum exactly to makespan {} s):",
        fmt_us(cp.makespan_us)
    );
    let _ = writeln!(
        out,
        "  task {} finishes last ({})",
        cp.task.uid, cp.task.outcome
    );
    let pending = std::iter::once(("pending", cp.pending_us));
    let segs = cp.task.segments.iter().map(|s| (s.phase, s.duration_us));
    for (phase, us) in pending.chain(segs) {
        let _ = writeln!(
            out,
            "  {:<13} {:>16} s  {:>6}",
            phase,
            fmt_us(us),
            fmt_permille(permille(us, cp.makespan_us))
        );
    }
    let _ = writeln!(
        out,
        "  {:<13} {:>16} s  100.0%",
        "total",
        fmt_us(cp.segments_total_us())
    );
    out
}

/// Differential attribution between two runs: per-phase mean
/// microseconds per task, the delta, and a verdict naming the segment
/// that moved most. This is `rp-explain --diff`'s payload: "the p99
/// regressed because `backend_queue` grew 40 ms/task".
pub fn diff_reports(label_a: &str, a: &BlameReport, label_b: &str, b: &BlameReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "differential blame: {label_a} ({} tasks) vs {label_b} ({} tasks)",
        a.tasks, b.tasks
    );
    let per_task = |rep: &BlameReport, i: usize| -> u64 {
        rep.phase_total_us[i].checked_div(rep.tasks).unwrap_or(0)
    };
    let _ = writeln!(
        out,
        "  {:<13} {:>14} {:>14} {:>15}",
        "phase", "a µs/task", "b µs/task", "delta µs/task"
    );
    let mut worst: Option<(usize, i128)> = None;
    for (i, phase) in PHASES.iter().enumerate() {
        let pa = per_task(a, i);
        let pb = per_task(b, i);
        let delta = pb as i128 - pa as i128;
        if worst.is_none_or(|(_, w)| delta.abs() > w.abs()) {
            worst = Some((i, delta));
        }
        let _ = writeln!(out, "  {:<13} {:>14} {:>14} {:>+15}", phase, pa, pb, delta);
    }
    let ea = a.total_us.checked_div(a.tasks).unwrap_or(0);
    let eb = b.total_us.checked_div(b.tasks).unwrap_or(0);
    let _ = writeln!(
        out,
        "  {:<13} {:>14} {:>14} {:>+15}",
        "end_to_end",
        ea,
        eb,
        eb as i128 - ea as i128
    );
    if let Some((i, delta)) = worst {
        if delta == 0 {
            let _ = writeln!(out, "verdict: no blame segment moved");
        } else {
            let dir = if delta > 0 { "grew" } else { "shrank" };
            let _ = writeln!(
                out,
                "verdict: `{}` moved most ({dir} {} µs/task)",
                PHASES[i],
                delta.unsigned_abs()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_lineage::Lineage;
    use rp_sim::SimClock;

    fn at(clock: &SimClock, us: u64) {
        clock.set(SimTime::from_micros(us));
    }

    #[test]
    fn blame_identity_holds_through_a_retry_loop() {
        let clock = SimClock::new();
        let lin = Lineage::new(clock.clone());
        lin.record(1, EV_SUBMIT);
        at(&clock, 100);
        lin.record(1, EV_STAGE_DONE);
        at(&clock, 250);
        lin.record(1, EV_SCHED_DONE);
        at(&clock, 400);
        lin.record(1, EV_HANDOFF);
        at(&clock, 500);
        lin.record_ctx(1, EV_PLACE_REJECT, 0, 1, 0, 3);
        at(&clock, 900);
        lin.record(1, EV_FAILED);
        at(&clock, 1000);
        lin.record(1, EV_RETRY);
        at(&clock, 1100);
        lin.record(1, EV_STAGE_DONE);
        at(&clock, 1200);
        lin.record(1, EV_SCHED_DONE);
        at(&clock, 1300);
        lin.record(1, EV_HANDOFF);
        at(&clock, 1400);
        lin.record(1, EV_PLACE_OK);
        at(&clock, 1450);
        lin.record(1, EV_LAUNCH_START);
        at(&clock, 1500);
        lin.record(1, EV_EXEC);
        at(&clock, 2500);
        lin.record(1, EV_TERM_SEEN);
        at(&clock, 2600);
        lin.record(1, EV_DONE);
        let data = lin.snapshot();
        let tb = blame_task(&data, 1).expect("blamed");
        assert_eq!(tb.outcome, "done");
        assert_eq!(tb.end_to_end_us, 2600);
        assert_eq!(tb.segments_total_us(), tb.end_to_end_us);
        assert_eq!(tb.rejects, 1);
        assert_eq!(tb.retries, 1);
        // launch = PLACE_OK→LAUNCH_START (50) + LAUNCH_START→EXEC (50).
        let launch: u64 = tb
            .segments
            .iter()
            .filter(|s| s.phase == "launch")
            .map(|s| s.duration_us)
            .sum();
        assert_eq!(launch, 100);
        let retry: u64 = tb
            .segments
            .iter()
            .filter(|s| s.phase == "retry")
            .map(|s| s.duration_us)
            .sum();
        assert_eq!(retry, 100, "FAILED→RETRY gap");
    }

    #[test]
    fn aggregate_identity_and_diff_verdict() {
        let mk = |exec_us: u64| {
            let clock = SimClock::new();
            let lin = Lineage::new(clock.clone());
            for uid in 0..4u64 {
                let base = uid * 10_000;
                at(&clock, base);
                lin.record(uid, EV_SUBMIT);
                at(&clock, base + 50);
                lin.record(uid, EV_STAGE_DONE);
                at(&clock, base + 100);
                lin.record(uid, EV_SCHED_DONE);
                at(&clock, base + 150);
                lin.record(uid, EV_HANDOFF);
                at(&clock, base + 200);
                lin.record(uid, EV_EXEC);
                at(&clock, base + 200 + exec_us);
                lin.record(uid, EV_DONE);
            }
            blame_report(&lin.snapshot())
        };
        let a = mk(1_000);
        let b = mk(5_000);
        assert_eq!(a.tasks, 4);
        assert_eq!(a.total_us, a.phase_total_us.iter().sum::<u64>());
        assert_eq!(b.total_us, b.phase_total_us.iter().sum::<u64>());
        let diff = diff_reports("a", &a, "b", &b);
        assert!(diff.contains("verdict: `execute` moved most"), "{diff}");
        assert!(diff.contains("grew 4000"), "{diff}");
    }

    #[test]
    fn critical_path_is_the_last_finisher_after_pending() {
        let clock = SimClock::new();
        let lin = Lineage::new(clock.clone());
        // uid 5 and uid 2 both finish at t=900 (tie → lowest uid, 2);
        // uid 7 is still running at t=1500 and never finishes.
        at(&clock, 100);
        lin.record(5, EV_SUBMIT);
        at(&clock, 300);
        lin.record(2, EV_SUBMIT);
        lin.record(7, EV_SUBMIT);
        at(&clock, 400);
        lin.record(2, EV_EXEC);
        at(&clock, 900);
        lin.record(5, EV_DONE);
        lin.record(2, EV_DONE);
        at(&clock, 1500);
        lin.record(7, EV_EXEC);
        let rep = blame_report(&lin.snapshot());
        let cp = rep.critical.as_ref().expect("two tasks finished");
        assert_eq!(cp.task.uid, 2);
        assert_eq!(cp.makespan_us, 800, "first submit 100 → last terminal 900");
        assert_eq!(cp.pending_us, 200);
        assert_eq!(cp.segments_total_us(), cp.makespan_us);
        let text = render_report("cp", &rep);
        assert!(
            text.contains("critical path (segments sum exactly to makespan 0.000800 s):"),
            "{text}"
        );
        assert!(text.contains("task 2 finishes last (done)"), "{text}");
        assert!(
            text.contains("  pending               0.000200 s   25.0%"),
            "{text}"
        );
        assert!(
            text.contains("  total                 0.000800 s  100.0%"),
            "{text}"
        );

        // Nothing terminal ⇒ no critical path, and the report says so.
        let lin = Lineage::new(SimClock::new());
        lin.record(1, EV_SUBMIT);
        let rep = blame_report(&lin.snapshot());
        assert!(rep.critical.is_none());
        assert!(render_report("none", &rep).contains("no task reached a terminal milestone"));
    }

    #[test]
    fn fault_opens_recovery_overhead_and_identity_holds() {
        let clock = SimClock::new();
        let lin = Lineage::new(clock.clone());
        lin.record(3, EV_SUBMIT);
        at(&clock, 100);
        lin.record(3, EV_STAGE_DONE);
        at(&clock, 200);
        lin.record(3, EV_SCHED_DONE);
        at(&clock, 300);
        lin.record(3, EV_HANDOFF);
        at(&clock, 400);
        lin.record(3, EV_EXEC);
        // Node failure kills the task mid-execute at t=900.
        at(&clock, 900);
        lin.record(3, EV_FAILED);
        lin.record_ctx(
            3,
            EV_FAULT,
            rp_lineage::FAULT_NODE,
            NO_BACKEND,
            NO_PARTITION,
            2,
        );
        // Recovery backoff + re-staging delay until the retry at t=1400.
        at(&clock, 1400);
        lin.record(3, EV_RETRY);
        at(&clock, 1410);
        lin.record_ctx(3, EV_ROUTE, rp_lineage::ROUTE_TYPE_AWARE, 1, 1, NO_VALUE);
        at(&clock, 1500);
        lin.record(3, EV_STAGE_DONE);
        at(&clock, 1600);
        lin.record(3, EV_EXEC);
        at(&clock, 2000);
        lin.record(3, EV_DONE);
        let data = lin.snapshot();
        let tb = blame_task(&data, 3).expect("blamed");
        assert_eq!(tb.outcome, "done");
        assert_eq!(tb.segments_total_us(), tb.end_to_end_us);
        let recovery: u64 = tb
            .segments
            .iter()
            .filter(|s| s.phase == "recovery_overhead")
            .map(|s| s.duration_us)
            .sum();
        assert_eq!(recovery, 500, "FAULT→RETRY gap");
        let text = explain(&data, 3).expect("explained");
        assert!(
            text.contains(
                "killed by node_failure at t=0.000900 s, resubmitted to partition flux.1"
            ),
            "{text}"
        );
        assert!(text.contains("recovery_overhead"), "{text}");
    }

    #[test]
    fn give_up_after_fault_is_a_failure() {
        let clock = SimClock::new();
        let lin = Lineage::new(clock.clone());
        lin.record(4, EV_SUBMIT);
        at(&clock, 100);
        lin.record(4, EV_EXEC);
        at(&clock, 200);
        lin.record(4, EV_FAILED);
        lin.record_ctx(
            4,
            EV_FAULT,
            rp_lineage::FAULT_CRASH,
            NO_BACKEND,
            NO_PARTITION,
            NO_VALUE,
        );
        let data = lin.snapshot();
        let tb = blame_task(&data, 4).expect("blamed");
        assert_eq!(tb.outcome, "failed");
        assert_eq!(tb.segments_total_us(), tb.end_to_end_us);
        let text = explain(&data, 4).expect("explained");
        assert!(text.contains("killed by backend_crash"), "{text}");
        assert!(text.contains("gave up"), "{text}");
    }

    #[test]
    fn explain_narrates_annotations() {
        let clock = SimClock::new();
        let lin = Lineage::new(clock.clone());
        lin.record(9, EV_SUBMIT);
        at(&clock, 10);
        lin.record_ctx(9, EV_ROUTE, rp_lineage::ROUTE_TYPE_AWARE, 1, 2, NO_VALUE);
        at(&clock, 20);
        lin.record(9, EV_DONE);
        let text = explain(&lin.snapshot(), 9).expect("explained");
        assert!(text.contains("task 9: done"), "{text}");
        assert!(text.contains("routed to flux.2"), "{text}");
        assert!(text.contains("[type_aware]"), "{text}");
        assert!(explain(&lin.snapshot(), 777).is_none());
    }
}
