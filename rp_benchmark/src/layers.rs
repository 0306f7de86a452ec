//! Per-layer numbers of the traced DES rep, measured from outside the
//! library: spans around each call, counts from the run's own metrics
//! snapshot and lineage, and replays of the run's demand through a bare
//! `rp_sim::Engine` and through `ResourcePool`s.

use crate::des::{Des, Exports};
use crate::stats::Spread;
use crate::trace::Tracer;
use crate::Sizes;
use rp_analytics::{blame_report, blame_task, digest, PHASES};
use rp_core::{BackendKind, PilotConfig, RunReport, SimSession};
use rp_platform::{frontier, Placement, ResourcePool, ResourceRequest};
use rp_sim::{Actor, Ctx, Engine, SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Per-layer values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

fn add(v: &mut Values, key: &'static str, x: f64) {
    *v.entry(key).or_insert(0.0) += x;
}

/// Blame phases reported as shares (retry and recovery are zero on
/// fault-free workloads).
const SHARE_PHASES: [(&str, &str); 7] = [
    ("stage", "blame.stage.share"),
    ("schedule", "blame.schedule.share"),
    ("adapter", "blame.adapter.share"),
    ("backend_queue", "blame.backend_queue.share"),
    ("launch", "blame.launch.share"),
    ("execute", "blame.execute.share"),
    ("collect", "blame.collect.share"),
];

/// Run one traced rep of `kind` on `seed` and fill `v` with its layer
/// numbers. Shares are taken of `run_s`, the untraced reps' median
/// seconds in `SimSession::run`, since the traced rep runs slower.
/// Returns the traced rep's tasks per second, its tally, and any broken
/// check.
pub fn des_layers(
    kind: Des,
    size: &Sizes,
    seed: u64,
    run_s: f64,
    tr: &mut Tracer,
    v: &mut Values,
) -> (f64, crate::des::Tally, Vec<String>) {
    let mut problems = Vec::new();
    // Parsing the exports back holds a second copy of the run's lineage;
    // the flux_1 cell's is the smallest that exercises every sink.
    let check_exports = kind == Des::Flux1Null;
    let ((cells, gen_s), _) = tr.span("setup", |tr| kind.build(size, seed, true, tr));
    add(v, "workloads.gen_s", gen_s);
    let (out, _) = tr.span("rep", |tr| kind.run(cells, tr));
    let tally = out.tally();
    let tps = tally.terminal as f64 / out.wall_s;

    let mut phase_us = [0u64; PHASES.len()];
    let (mut total_us, mut dropped, mut profiled, mut depth) = (0u64, 0u64, 0u64, 0f64);
    tr.span("layers", |tr| {
        for (report, log) in out.reports.iter().zip(&out.logs) {
            let log = log.borrow();
            add(v, "workloads.callback_s", log.callback_s);
            add(v, "workloads.callbacks", log.callbacks as f64);

            let snap = report.metrics.as_ref().expect("traced rep has metrics");
            let events = snap.counter("rp_engine_events_total").unwrap_or(0);
            let peak = snap.gauge("rp_engine_peak_queue_depth").unwrap_or(0.0);
            add(v, "core.session.events", events as f64);
            depth = depth.max(peak);
            let (delivered, secs) =
                tr.span("sim.engine.replay", |_| engine_replay(events, peak as u64));
            add(v, "sim.engine.replay_s", secs);
            if delivered != events {
                problems.push(format!(
                    "engine replay delivered {delivered} of {events} events"
                ));
            }

            let (replay, _) = tr.span("platform.resources.replay", |_| {
                placement_replay(report, &log.reqs)
            });
            add(v, "platform.resources.replay_s", replay.secs);
            add(v, "platform.resources.ops", replay.ops as f64);
            add(
                v,
                "platform.resources.replay_failures",
                replay.failures as f64,
            );

            let prof = report.profile.as_ref().expect("traced rep has a profile");
            dropped += prof.dropped;
            profiled += prof.events.len() as u64;
            let lin = report.lineage.as_ref().expect("traced rep has lineage");
            add(v, "lineage.events", lin.events.len() as f64);
            problems.extend(export_times(report, check_exports, tr, v));

            let (rep, secs) = tr.span("analytics.blame", |_| blame_report(lin));
            add(v, "analytics.blame_s", secs);
            total_us += rep.total_us;
            for (acc, x) in phase_us.iter_mut().zip(rep.phase_total_us) {
                *acc += x;
            }
            add(v, "blame.placement_rejects", rep.rejects as f64);
            let broken = tr
                .span("check.blame_identity", |_| {
                    lin.uids()
                        .into_iter()
                        .filter_map(|uid| blame_task(lin, uid))
                        .filter(|b| b.segments_total_us() != b.end_to_end_us)
                        .count()
                })
                .0;
            if broken > 0 {
                problems.push(format!("blame identity broken for {broken} tasks"));
            }
            let (_, secs) = tr.span("analytics.digest", |_| black_box(digest(report)));
            add(v, "analytics.digest_s", secs);
        }
    });
    if v["platform.resources.replay_failures"] > 0.0 {
        problems.push(format!(
            "placement replay failed {} allocations",
            v["platform.resources.replay_failures"]
        ));
    }

    v.insert("core.session.run_s", run_s);
    v.insert("core.session.peak_queue_depth", depth);
    v.insert(
        "core.session.events_per_s",
        v["core.session.events"] / run_s,
    );
    v.insert("sim.engine.share", v["sim.engine.replay_s"] / run_s);
    v.insert(
        "platform.resources.share",
        v["platform.resources.replay_s"] / run_s,
    );
    let residual = run_s - v["sim.engine.replay_s"] - v["platform.resources.replay_s"];
    v.insert("core.agent.residual_s", residual);
    v.insert("core.agent.residual_share", residual / run_s);
    v.insert(
        "profiler.dropped_frac",
        dropped as f64 / (dropped + profiled).max(1) as f64,
    );
    for (phase, key) in SHARE_PHASES {
        let i = PHASES
            .iter()
            .position(|p| *p == phase)
            .expect("known phase");
        v.insert(key, phase_us[i] as f64 / total_us.max(1) as f64);
    }
    (tps, tally, problems)
}

/// Render each export of one traced report under its own span and, when
/// `check`, parse them back; one message per export that fails.
fn export_times(report: &RunReport, check: bool, tr: &mut Tracer, v: &mut Values) -> Vec<String> {
    let prof = report.profile.as_ref().expect("traced rep has a profile");
    let snap = report.metrics.as_ref().expect("traced rep has metrics");
    let tel = report.telemetry.as_ref().expect("traced rep has telemetry");
    let lin = report.lineage.as_ref().expect("traced rep has lineage");
    let (profile_csv, s) = tr.span("profiler.csv", |_| prof.csv());
    add(v, "profiler.csv_s", s);
    let (chrome_trace, s) = tr.span("profiler.trace", |_| prof.chrome_trace());
    add(v, "profiler.trace_s", s);
    let (openmetrics, s) = tr.span("metrics.openmetrics", |_| snap.openmetrics());
    add(v, "metrics.openmetrics_s", s);
    let ((telemetry_series, telemetry_flight), s) = tr.span("telemetry.jsonl", |_| {
        (tel.timeseries_jsonl(), tel.flight_recorder_jsonl())
    });
    add(v, "telemetry.jsonl_s", s);
    let (lineage_jsonl, s) = tr.span("lineage.jsonl", |_| lin.to_jsonl());
    add(v, "lineage.jsonl_s", s);
    add(v, "lineage.jsonl_bytes", lineage_jsonl.len() as f64);
    let exports = Exports {
        openmetrics,
        telemetry_series,
        telemetry_flight,
        lineage_jsonl,
        profile_csv,
        chrome_trace,
    };
    if !check {
        return Vec::new();
    }
    tr.span("check.exports", |_| exports.problems(report)).0
}

/// Re-arms a 1 ms timer until the shared budget runs out, so `depth`
/// initial deliveries keep `depth` chains in the queue.
struct Chains {
    remaining: u64,
}

impl Actor<u8> for Chains {
    fn handle(&mut self, _msg: u8, ctx: &mut Ctx<u8>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.timer(SimDuration::from_millis(1), 0);
        }
    }
}

/// Deliver `events` events through a bare engine holding `depth`
/// concurrent timer chains; returns the deliveries made.
pub fn engine_replay(events: u64, depth: u64) -> u64 {
    let depth = depth.clamp(1, events.max(1));
    let mut engine = Engine::new();
    let id = engine.add_actor(Box::new(Chains {
        remaining: events.saturating_sub(depth),
    }));
    for _ in 0..depth.min(events) {
        engine.schedule(SimTime::ZERO, id, 0);
    }
    engine.run_until_idle(events + 1);
    engine.delivered()
}

pub struct PlacementReplay {
    /// Seconds in `try_alloc`/`free` calls alone.
    pub secs: f64,
    pub ops: u64,
    /// Allocations that did not fit, plus Flux tasks with no request or
    /// partition on file.
    pub failures: u64,
}

/// Replay every Flux-routed task's request through one pool per Flux
/// partition: allocate at `exec_start`, free at `exec_end`, in sim-time
/// order with frees first (a zero-length task frees right after its own
/// allocation).
pub fn placement_replay(report: &RunReport, reqs: &[(u64, ResourceRequest)]) -> PlacementReplay {
    let by_uid: HashMap<u64, ResourceRequest> = reqs.iter().copied().collect();
    let spec = frontier().node;
    let mut pools: Vec<Option<ResourcePool>> = Vec::new();
    for inst in report
        .instances
        .iter()
        .filter(|i| i.kind == BackendKind::Flux)
    {
        let p = inst.partition as usize;
        if pools.len() <= p {
            pools.resize_with(p + 1, || None);
        }
        pools[p] = Some(ResourcePool::over_range(spec, 0, inst.nodes));
    }
    let mut failures = 0u64;
    let mut tasks: Vec<(usize, ResourceRequest)> = Vec::new();
    let mut events: Vec<(u64, u8, usize)> = Vec::new();
    for t in &report.tasks {
        if t.backend != Some(BackendKind::Flux) {
            continue;
        }
        let (Some(start), Some(end), Some(part), Some(req)) =
            (t.exec_start, t.exec_end, t.partition, by_uid.get(&t.uid.0))
        else {
            failures += 1;
            continue;
        };
        let k = tasks.len();
        tasks.push((part as usize, *req));
        let (s, e) = (start.as_micros(), end.as_micros());
        events.push((s, 1, k));
        events.push((e, if e == s { 2 } else { 0 }, k));
    }
    events.sort_unstable();
    let mut held: Vec<Option<Placement>> = vec![None; tasks.len()];
    let started = Instant::now();
    for &(_, op, k) in &events {
        let (part, req) = &tasks[k];
        let Some(pool) = pools.get_mut(*part).and_then(Option::as_mut) else {
            failures += (op == 1) as u64;
            continue;
        };
        if op == 1 {
            match pool.try_alloc(req) {
                Some(p) => held[k] = Some(p),
                None => failures += 1,
            }
        } else if let Some(p) = held[k].take() {
            pool.free(&p);
        }
    }
    PlacementReplay {
        secs: started.elapsed().as_secs_f64(),
        ops: events.len() as u64,
        failures,
    }
}

/// The sink-overhead metrics, in the order [`sink_overheads`] measures
/// them.
pub const SINK_OVERHEADS: [&str; 4] = [
    "profiler.overhead_frac",
    "metrics.overhead_frac",
    "telemetry.overhead_frac",
    "lineage.overhead_frac",
];

/// Each sink's overhead on the flux_1 null cell: the median (and
/// quartiles) over `pairs` order-alternating pairs of sink-alone ÷ bare
/// `SimSession::run` wall time, minus one.
pub fn sink_overheads(
    nodes: u32,
    seed: u64,
    pairs: usize,
    tr: &mut Tracer,
) -> Vec<(&'static str, Spread)> {
    let period = SimDuration::from_secs(1);
    let session = |sink: Option<usize>| {
        let s = SimSession::with_tasks(
            PilotConfig::flux(nodes, 1).with_seed(seed),
            rp_workloads::null_workload(nodes),
        );
        match sink {
            None => s,
            Some(0) => s.with_profiling(period),
            Some(1) => s.with_metrics(period),
            Some(2) => s.with_telemetry(period),
            Some(_) => s.with_lineage(),
        }
    };
    let timed = |tr: &mut Tracer, name: &'static str, sink: Option<usize>| {
        let s = session(sink);
        let (report, secs) = tr.span(name, |_| s.run());
        drop(report);
        secs
    };
    SINK_OVERHEADS
        .iter()
        .enumerate()
        .map(|(i, &metric)| {
            let ratios: Vec<f64> = (0..pairs)
                .map(|k| {
                    let (bare, with) = if k % 2 == 0 {
                        let b = timed(tr, "pair.bare", None);
                        (b, timed(tr, metric, Some(i)))
                    } else {
                        let w = timed(tr, metric, Some(i));
                        (timed(tr, "pair.bare", None), w)
                    };
                    with / bare - 1.0
                })
                .collect();
            (metric, Spread::of(&ratios))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_replay_delivers_exactly() {
        assert_eq!(engine_replay(1000, 7), 1000);
        assert_eq!(engine_replay(5, 50), 5);
        assert_eq!(engine_replay(0, 0), 0);
    }

    #[test]
    fn placement_replay_of_a_real_run_never_fails() {
        let tasks = rp_workloads::null_workload(2);
        let reqs: Vec<_> = tasks.iter().map(|t| (t.uid.0, t.req)).collect();
        let report = SimSession::with_tasks(PilotConfig::flux(2, 2), tasks).run();
        let r = placement_replay(&report, &reqs);
        assert_eq!(r.failures, 0);
        assert_eq!(r.ops, 2 * reqs.len() as u64);
        // Without the requests on file every task is a join failure.
        assert_eq!(placement_replay(&report, &[]).failures, reqs.len() as u64);
    }
}
