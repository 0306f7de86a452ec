//! Telemetry acceptance tests: SLO percentile accuracy against exact
//! percentiles recomputed from raw task records and lineage blame, and the
//! byte-identical-JSONL determinism guarantee across backends, seeds, and
//! harness job counts, and node-fault alarms raised on real transitions
//! only.

use radical_rs::analytics::blame_task;
use radical_rs::core::{
    FaultAction, FaultEvent, FaultPlan, PilotConfig, RecoveryPolicy, SimSession,
};
use radical_rs::sim::{SimDuration, SimTime};
use radical_rs::workloads::{dummy_workload, mixed_workload, null_workload};

const NODES: u32 = 4;

/// Exact `q`-quantile of `xs` under the same rank convention the
/// histogram uses (`rank = ⌈q·n⌉`, 1-based, clamped to ≥ 1).
fn exact_quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = ((q * xs.len() as f64).ceil() as usize).max(1);
    xs[rank - 1]
}

/// The histogram quantile is the upper bound of the √2-wide log bucket
/// holding the rank's sample, clamped into `[min, max]`; so it brackets
/// the exact value from above within one bucket step.
fn assert_within_one_bucket(hist: f64, exact: f64, what: &str) {
    let sqrt2 = std::f64::consts::SQRT_2;
    assert!(
        hist >= exact - 1e-12,
        "{what}: histogram estimate {hist} below exact {exact}"
    );
    assert!(
        hist <= exact * sqrt2 + 1e-12,
        "{what}: histogram estimate {hist} more than one √2 bucket above exact {exact}"
    );
}

/// Histogram-derived p50/p99 time-to-launch and time-to-completion agree
/// with exact percentiles recomputed from the raw task records (launch)
/// and the span stream (completion), under the histogram's documented
/// one-bucket error bound. An oversubscribed pilot gives both
/// distributions real spread.
#[test]
fn slo_percentiles_match_exact_percentiles_within_one_bucket() {
    let report = SimSession::with_tasks(
        PilotConfig::flux(NODES, 2).with_seed(7),
        dummy_workload(NODES, SimDuration::from_secs(30)),
    )
    .with_telemetry(SimDuration::from_secs(1))
    .with_lineage()
    .run();
    let tel = report.telemetry.as_ref().expect("telemetry attached");

    // Exact time-to-launch: submission → payload start, per task record.
    let mut ttl: Vec<f64> = report
        .tasks
        .iter()
        .filter_map(|t| {
            t.exec_start
                .map(|s| s.saturating_since(t.submitted).as_secs_f64())
        })
        .collect();
    assert_eq!(
        ttl.len() as u64,
        tel.slo.launches,
        "every started task contributes one launch observation"
    );

    // Exact time-to-completion: the lineage blame's end-to-end latency,
    // submission → the Done transition, which is what the tracker timed.
    let lin = report.lineage.as_ref().expect("lineage attached");
    let mut ttc: Vec<f64> = lin
        .uids()
        .into_iter()
        .filter_map(|uid| blame_task(lin, uid))
        .filter(|tb| tb.outcome == "done")
        .map(|tb| SimDuration::from_micros(tb.end_to_end_us).as_secs_f64())
        .collect();
    assert_eq!(
        ttc.len() as u64,
        tel.slo.completions,
        "every completed task contributes one completion observation"
    );

    for q in [0.5, 0.99] {
        assert_within_one_bucket(
            tel.launch_hist.quantile(q),
            exact_quantile(&mut ttl, q),
            &format!("launch p{}", q * 100.0),
        );
        assert_within_one_bucket(
            tel.completion_hist.quantile(q),
            exact_quantile(&mut ttc, q),
            &format!("completion p{}", q * 100.0),
        );
    }
    // The snapshot fields are the same estimator.
    assert_eq!(tel.slo.launch_p50, tel.launch_hist.quantile(0.5));
    assert_eq!(tel.slo.completion_p99, tel.completion_hist.quantile(0.99));
}

fn configs(seed: u64) -> [(&'static str, PilotConfig); 4] {
    [
        ("srun", PilotConfig::srun(NODES).with_seed(seed)),
        ("flux", PilotConfig::flux(NODES, 2).with_seed(seed)),
        ("dragon", PilotConfig::dragon(NODES).with_seed(seed)),
        ("prrte", PilotConfig::prrte(NODES).with_seed(seed)),
    ]
}

fn telemetry_jsonl(cfg: PilotConfig) -> (String, String) {
    let report = SimSession::with_tasks(cfg, null_workload(NODES))
        .with_telemetry(SimDuration::from_secs(1))
        .run();
    let tel = report.telemetry.expect("telemetry attached");
    (tel.timeseries_jsonl(), tel.flight_recorder_jsonl())
}

/// Same seed ⇒ byte-identical time-series and flight-recorder JSONL, for
/// every backend; a different seed must change the time-series (the
/// flight recorder may legitimately stay empty on both).
#[test]
fn telemetry_jsonl_is_byte_identical_per_seed_across_backends() {
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(42)) {
        let (ts_a, fr_a) = telemetry_jsonl(a);
        let (ts_b, fr_b) = telemetry_jsonl(b);
        assert!(!ts_a.is_empty(), "{name}: sampler must produce rows");
        assert_eq!(ts_a, ts_b, "{name}: time-series must be byte-identical");
        assert_eq!(fr_a, fr_b, "{name}: flight recorder must be byte-identical");
    }
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(43)) {
        let (ts_a, _) = telemetry_jsonl(a);
        let (ts_b, _) = telemetry_jsonl(b);
        assert_ne!(ts_a, ts_b, "{name}: different seeds must differ");
    }
}

/// The harness instruments rep 0 regardless of worker-thread count, and
/// each simulation is single-threaded and seeded — so the telemetry
/// JSONL written under `--telemetry-dir` is byte-identical at any
/// `--jobs` value.
#[test]
fn telemetry_jsonl_is_identical_at_any_jobs_count() {
    let dir = std::env::temp_dir().join(format!("rp-tel-jobs-{}", std::process::id()));
    let run = |jobs: usize| -> (String, String) {
        let (_, reports) = rp_bench::repeat_static(
            "jobs invariance",
            4,
            |seed| PilotConfig::flux(NODES, 2).with_seed(seed),
            || null_workload(NODES),
            &rp_bench::RunOpts {
                jobs,
                telemetry_dir: Some(dir.clone()),
                ..rp_bench::RunOpts::default()
            },
        )
        .expect("artifacts write");
        // Rep 0 carries the telemetry; later reps stay uninstrumented.
        assert!(reports[0].telemetry.is_some());
        assert!(reports[1..].iter().all(|r| r.telemetry.is_none()));
        let tel = reports[0].telemetry.as_ref().unwrap();
        (tel.timeseries_jsonl(), tel.flight_recorder_jsonl())
    };
    let sequential = run(1);
    for jobs in [2, 4, 8] {
        assert_eq!(run(jobs), sequential, "jobs={jobs} must not change rep 0");
    }
    // The JSONL the harness wrote to disk matches the in-memory snapshot.
    let on_disk = std::fs::read_to_string(dir.join("jobs_invariance.telemetry.jsonl"))
        .expect("harness wrote the time-series");
    assert_eq!(on_disk, sequential.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The gauges are a snapshot the agent takes at each sample boundary, so
/// a run's telemetry is the same whichever other sinks ride along:
/// profiling, metrics and lineage attached together leave the time-series
/// and flight recorder byte-identical to a telemetry-only run.
#[test]
fn telemetry_does_not_depend_on_other_sinks() {
    let period = SimDuration::from_secs(1);
    let runs = [
        ("flux", PilotConfig::flux(16, 1), null_workload(16)),
        (
            "flux_dragon",
            PilotConfig::flux_dragon(16, 2),
            mixed_workload(16, SimDuration::from_secs(10)),
        ),
    ];
    for (name, cfg, tasks) in runs {
        let alone = SimSession::with_tasks(cfg.clone().with_seed(42), tasks.clone())
            .with_telemetry(period)
            .run();
        let all = SimSession::with_tasks(cfg.with_seed(42), tasks)
            .with_telemetry(period)
            .with_profiling(period)
            .with_metrics(period)
            .with_lineage()
            .run();
        let (alone, all) = (
            alone.telemetry.expect("telemetry attached"),
            all.telemetry.expect("telemetry attached"),
        );
        assert!(alone.samples.len() > 10, "{name}: the run spans samples");
        assert_eq!(
            alone.timeseries_jsonl(),
            all.timeseries_jsonl(),
            "{name}: time-series must not depend on other sinks"
        );
        assert_eq!(
            alone.flight_recorder_jsonl(),
            all.flight_recorder_jsonl(),
            "{name}: flight recorder must not depend on other sinks"
        );
    }
}

/// A node fault raises `fault_node` when the node goes down and
/// `fault_node_cleared` when it comes back, not on a repeat: failing the
/// same node of every partition twice and restoring it twice leaves
/// exactly one of each per partition, on Flux and Dragon alike.
#[test]
fn node_fault_alarms_fire_on_real_transitions_only() {
    for cfg in [
        PilotConfig::flux(NODES, 2),
        PilotConfig::flux_dragon(NODES, 2),
    ] {
        let partitions = cfg.total_instances();
        let at = |secs| SimTime::from_secs(secs);
        let mut events = Vec::new();
        for partition in 0..partitions {
            for (secs, down) in [(50, true), (60, true), (100, false), (110, false)] {
                let node_idx = 0;
                let action = if down {
                    FaultAction::FailNode {
                        partition,
                        node_idx,
                    }
                } else {
                    FaultAction::RestoreNode {
                        partition,
                        node_idx,
                    }
                };
                events.push(FaultEvent {
                    at: at(secs),
                    action,
                });
            }
        }
        events.sort_by_key(|e| e.at);
        let plan = FaultPlan {
            events,
            hang_victims: Vec::new(),
            watchdog: SimDuration::ZERO,
            policy: RecoveryPolicy::ResubmitElsewhere,
            max_retries: None,
        };
        let report =
            SimSession::with_tasks(cfg, mixed_workload(NODES, SimDuration::from_secs(200)))
                .with_fault_plan(plan)
                .with_telemetry(SimDuration::from_secs(1))
                .run();
        let tel = report.telemetry.as_ref().expect("telemetry attached");
        let mut seen: Vec<(Option<u8>, Option<u32>)> = tel
            .alarms
            .iter()
            .filter(|a| a.kind == "fault_node")
            .map(|a| (a.backend, a.partition))
            .collect();
        let mut cleared: Vec<(Option<u8>, Option<u32>)> = tel
            .alarms
            .iter()
            .filter(|a| a.kind == "fault_node_cleared")
            .map(|a| (a.backend, a.partition))
            .collect();
        seen.sort();
        cleared.sort();
        assert_eq!(seen.len(), partitions as usize, "{seen:?}");
        seen.dedup();
        assert_eq!(seen.len(), partitions as usize, "one per partition");
        assert_eq!(cleared, seen, "one clear per partition");
    }
}
