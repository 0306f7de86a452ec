//! Lineage acceptance tests: the blame identity (segments sum *exactly*
//! to end-to-end, per task, on every backend), byte-deterministic JSONL
//! across seeds/backends/harness job counts, and the telemetry↔lineage
//! round trip (tail exemplar uids resolve to narratable causal stories).

use radical_rs::core::{PilotConfig, SimSession};
use radical_rs::sim::SimDuration;
use radical_rs::workloads::{dummy_workload, null_workload};

const NODES: u32 = 4;

fn configs(seed: u64) -> [(&'static str, PilotConfig); 4] {
    [
        ("srun", PilotConfig::srun(NODES).with_seed(seed)),
        ("flux", PilotConfig::flux(NODES, 2).with_seed(seed)),
        ("dragon", PilotConfig::dragon(NODES).with_seed(seed)),
        ("prrte", PilotConfig::prrte(NODES).with_seed(seed)),
    ]
}

/// The property the blame engine is built around: for every task on every
/// backend, the named segments of the causal chain sum *exactly* (integer
/// microseconds, no tolerance) to the end-to-end latency, and every
/// completed task has a chain that starts at submit and ends terminal.
#[test]
fn blame_identity_is_exact_on_every_backend() {
    for (name, cfg) in configs(11) {
        let report = SimSession::with_tasks(cfg, dummy_workload(NODES, SimDuration::from_secs(20)))
            .with_lineage()
            .run();
        let lin = report.lineage.as_ref().expect("lineage attached");
        let done = report.done_tasks().count();
        assert_eq!(
            lin.task_count(),
            report.tasks.len(),
            "{name}: every task must have a causal chain"
        );
        let mut blamed = 0;
        let (mut first_submit, mut last_terminal) = (u64::MAX, 0);
        for uid in lin.uids() {
            let tb = radical_rs::analytics::blame_task(lin, uid)
                .unwrap_or_else(|| panic!("{name}: task {uid} unblamed"));
            first_submit = first_submit.min(tb.submitted.as_micros());
            if tb.outcome != "incomplete" {
                last_terminal = last_terminal.max(tb.finished.as_micros());
            }
            assert_eq!(
                tb.segments_total_us(),
                tb.end_to_end_us,
                "{name}: blame identity must be exact for task {uid}"
            );
            if tb.outcome == "done" {
                blamed += 1;
                // A completed chain passes through execution.
                assert!(
                    tb.segments.iter().any(|s| s.phase == "execute"),
                    "{name}: done task {uid} must carry an execute segment"
                );
            }
        }
        assert_eq!(blamed, done, "{name}: done outcomes match task records");
        // The critical path telescopes the same way: pending plus the
        // last-finishing task's segments is the makespan, exactly.
        let cp = radical_rs::analytics::blame_report(lin)
            .critical
            .unwrap_or_else(|| panic!("{name}: no critical path"));
        assert_eq!(
            cp.makespan_us,
            last_terminal - first_submit,
            "{name}: makespan is first submit → last terminal"
        );
        assert_eq!(
            cp.pending_us + cp.task.segments_total_us(),
            cp.makespan_us,
            "{name}: critical-path identity must be exact"
        );
    }
}

fn lineage_jsonl(cfg: PilotConfig) -> String {
    SimSession::with_tasks(cfg, null_workload(NODES))
        .with_lineage()
        .run()
        .lineage
        .expect("lineage attached")
        .to_jsonl()
}

/// Same seed ⇒ byte-identical lineage JSONL for every backend; a
/// different seed must change the chains. The JSONL also round-trips
/// losslessly through the parser.
#[test]
fn lineage_jsonl_is_byte_identical_per_seed_across_backends() {
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(42)) {
        let ja = lineage_jsonl(a);
        let jb = lineage_jsonl(b);
        assert!(!ja.is_empty(), "{name}: lineage must record events");
        assert_eq!(ja, jb, "{name}: lineage JSONL must be byte-identical");
        let parsed = radical_rs::lineage::LineageData::from_jsonl(&ja)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(parsed.to_jsonl(), ja, "{name}: JSONL round-trips");
    }
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(43)) {
        assert_ne!(
            lineage_jsonl(a),
            lineage_jsonl(b),
            "{name}: different seeds must differ"
        );
    }
}

/// The harness instruments rep 0 regardless of worker-thread count, so
/// the lineage JSONL written under `--lineage-dir` is byte-identical at
/// any `--jobs` value.
#[test]
fn lineage_jsonl_is_identical_at_any_jobs_count() {
    let dir = std::env::temp_dir().join(format!("rp-lin-jobs-{}", std::process::id()));
    let run = |jobs: usize| -> String {
        let (_, reports) = rp_bench::repeat_static(
            "jobs invariance",
            4,
            |seed| PilotConfig::flux(NODES, 2).with_seed(seed),
            || null_workload(NODES),
            &rp_bench::RunOpts {
                jobs,
                lineage_dir: Some(dir.clone()),
                ..rp_bench::RunOpts::default()
            },
        )
        .expect("artifacts write");
        assert!(reports[0].lineage.is_some());
        assert!(reports[1..].iter().all(|r| r.lineage.is_none()));
        reports[0].lineage.as_ref().unwrap().to_jsonl()
    };
    let sequential = run(1);
    for jobs in [2, 4, 8] {
        assert_eq!(run(jobs), sequential, "jobs={jobs} must not change rep 0");
    }
    let on_disk = std::fs::read_to_string(dir.join("jobs_invariance.lineage.jsonl"))
        .expect("harness wrote the lineage");
    assert_eq!(on_disk, sequential);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dashboard tail rows are actionable: with telemetry and lineage both
/// attached, the p99/p999 SLO exemplar uids resolve to causal stories
/// `rp-explain` can narrate, and flight-recorder alarms that carry an
/// exemplar uid resolve the same way.
#[test]
fn tail_exemplars_and_alarms_resolve_to_causal_stories() {
    let report = SimSession::with_tasks(
        PilotConfig::flux(NODES, 2).with_seed(7),
        dummy_workload(NODES, SimDuration::from_secs(30)),
    )
    .with_telemetry(SimDuration::from_secs(1))
    .with_lineage()
    .run();
    let tel = report.telemetry.as_ref().expect("telemetry attached");
    let lin = report.lineage.as_ref().expect("lineage attached");
    let tails = [
        ("launch p99", &tel.slo.launch_p99_exemplars),
        ("launch p999", &tel.slo.launch_p999_exemplars),
        ("completion p99", &tel.slo.completion_p99_exemplars),
        ("completion p999", &tel.slo.completion_p999_exemplars),
    ];
    for (what, ex) in tails {
        assert!(!ex.is_empty(), "{what}: tail bucket must carry exemplars");
        for &uid in ex.uids() {
            let story = radical_rs::analytics::explain(lin, uid)
                .unwrap_or_else(|| panic!("{what}: exemplar {uid} has no causal story"));
            assert!(story.contains("blame"), "{what}: story renders blame");
        }
    }
    for alarm in &tel.alarms {
        if let Some(uid) = alarm.uid {
            assert!(
                radical_rs::analytics::explain(lin, uid).is_some(),
                "alarm exemplar {uid} must resolve to a causal story"
            );
        }
    }
}
