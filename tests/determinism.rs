//! Determinism golden tests: the byte-identical-report guarantee that
//! gates every hot-path optimization in this repo.
//!
//! Each backend runs the same small campaign twice with the same seed;
//! the runs must agree on the engine's delivered-event count, the final
//! sim time, and the *entire* rendered OpenMetrics snapshot (every
//! counter, gauge, and histogram bucket — any nondeterministic iteration
//! order or dropped event shows up here). A third run with a different
//! seed must differ, which guards against the seed being silently unused.

use radical_rs::core::{FaultSpec, PilotConfig, SimSession};
use radical_rs::sim::{SimDuration, SimTime};
use radical_rs::workloads::{dummy_workload, null_workload};

const NODES: u32 = 4;

/// A chaos spec exercising every fault kind inside the dummy campaign's
/// makespan, with recovery enabled so the injected work actually re-runs.
const CHAOS_SPEC: &str =
    "nodes=1,crashes=1,hangs=2,window=40..240,downtime=60,restart=15,watchdog=30,retries=4";

/// Run one seeded campaign and distill it to the three comparands.
fn fingerprint(cfg: PilotConfig) -> (u64, SimTime, String) {
    let report = SimSession::with_tasks(cfg, null_workload(NODES))
        .with_metrics(SimDuration::from_secs(60))
        .run();
    let snap = report.metrics.expect("metrics attached");
    let delivered = snap
        .counter("rp_engine_events_total")
        .expect("engine stats folded into the snapshot");
    (delivered, report.end, snap.openmetrics())
}

fn configs(seed: u64) -> [(&'static str, PilotConfig); 4] {
    [
        ("srun", PilotConfig::srun(NODES).with_seed(seed)),
        ("flux", PilotConfig::flux(NODES, 2).with_seed(seed)),
        ("dragon", PilotConfig::dragon(NODES).with_seed(seed)),
        ("prrte", PilotConfig::prrte(NODES).with_seed(seed)),
    ]
}

/// Same seed ⇒ identical delivered count, final time, and OpenMetrics
/// text, for every backend.
#[test]
fn same_seed_is_byte_identical_per_backend() {
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(42)) {
        let (da, ta, ma) = fingerprint(a);
        let (db, tb, mb) = fingerprint(b);
        assert_eq!(da, db, "{name}: delivered-event count must match");
        assert_eq!(ta, tb, "{name}: final sim time must match");
        assert_eq!(ma, mb, "{name}: OpenMetrics text must be byte-identical");
    }
}

/// A different seed must change the trajectory — otherwise the clock or
/// rng is silently unused and the golden test above proves nothing.
#[test]
fn different_seed_differs() {
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(43)) {
        let fa = fingerprint(a);
        let fb = fingerprint(b);
        assert_ne!(fa, fb, "{name}: seed 42 vs 43 must produce different runs");
    }
}

/// Fingerprint of a faulted campaign: engine stats, the full OpenMetrics
/// text (fault/recovery counters included), and the lineage JSONL — the
/// complete on-disk surface the harness emits for a chaos run.
fn chaos_fingerprint(cfg: PilotConfig, fault_seed: u64) -> (u64, SimTime, String, String) {
    let tasks = dummy_workload(NODES, SimDuration::from_secs(90));
    let hint = tasks.len() as u64;
    let report = SimSession::with_tasks(cfg, tasks)
        .with_metrics(SimDuration::from_secs(60))
        .with_lineage()
        .with_faults(
            FaultSpec::parse(CHAOS_SPEC).expect("chaos spec parses"),
            fault_seed,
            hint,
        )
        .run();
    let snap = report.metrics.expect("metrics attached");
    let delivered = snap
        .counter("rp_engine_events_total")
        .expect("engine stats folded into the snapshot");
    let lineage = report.lineage.expect("lineage attached").to_jsonl();
    (delivered, report.end, snap.openmetrics(), lineage)
}

/// Same workload seed + same fault seed ⇒ byte-identical metrics text and
/// lineage JSONL, for every backend — the chaos plane draws all its
/// randomness up front from its own stream, so replay is exact.
#[test]
fn same_fault_seed_is_byte_identical_per_backend() {
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(42)) {
        let fa = chaos_fingerprint(a, 7);
        let fb = chaos_fingerprint(b, 7);
        assert!(
            fa.2.contains("rp_faults_injected_total"),
            "{name}: the plan must actually fire inside the campaign"
        );
        assert!(
            fa.3.contains("\"ev\":\"fault\""),
            "{name}: lineage must carry the fault events"
        );
        assert_eq!(
            fa, fb,
            "{name}: same fault seed must replay byte-identically"
        );
    }
}

/// A different fault seed must realize a different plan — otherwise the
/// seed is silently unused and the golden above proves nothing.
#[test]
fn different_fault_seed_differs() {
    for (name, cfg) in configs(42) {
        let fa = chaos_fingerprint(cfg.clone(), 7);
        let fb = chaos_fingerprint(cfg, 8);
        assert_ne!(fa, fb, "{name}: fault seed 7 vs 8 must steer the plan");
    }
}

/// An inactive fault spec (no faults requested) must leave the run
/// untouched: byte-identical to a session that never heard of chaos.
/// This is the faults-off zero-cost guarantee the hot path relies on.
#[test]
fn inactive_fault_plan_is_byte_identical_to_baseline() {
    for (name, cfg) in configs(42) {
        let (da, ta, ma) = fingerprint(cfg.clone());
        let spec = FaultSpec::parse("").expect("empty spec is the inactive default");
        let report = SimSession::with_tasks(cfg, null_workload(NODES))
            .with_metrics(SimDuration::from_secs(60))
            .with_faults(spec, 7, 64)
            .run();
        let snap = report.metrics.expect("metrics attached");
        let db = snap
            .counter("rp_engine_events_total")
            .expect("engine stats folded into the snapshot");
        assert_eq!(da, db, "{name}: faults-off must not change event count");
        assert_eq!(
            ta, report.end,
            "{name}: faults-off must not change end time"
        );
        assert_eq!(
            ma,
            snap.openmetrics(),
            "{name}: faults-off must not register chaos counters or shift metrics"
        );
    }
}

/// The harness applies the same fault plan to every rep and instruments
/// rep 0 regardless of worker-thread count, so a chaos run's lineage
/// JSONL (fault events included) is byte-identical at any `--jobs` value.
#[test]
fn fault_runs_are_identical_at_any_jobs_count() {
    let dir = std::env::temp_dir().join(format!("rp-chaos-jobs-{}", std::process::id()));
    let run = |jobs: usize| -> String {
        let (_, reports) = rp_bench::repeat_static(
            "chaos jobs invariance",
            4,
            |seed| PilotConfig::flux(NODES, 2).with_seed(seed),
            || dummy_workload(NODES, SimDuration::from_secs(90)),
            &rp_bench::RunOpts {
                jobs,
                lineage_dir: Some(dir.clone()),
                faults: Some((FaultSpec::parse(CHAOS_SPEC).expect("chaos spec parses"), 7)),
                ..rp_bench::RunOpts::default()
            },
        )
        .expect("artifacts write");
        assert!(reports[0].lineage.is_some());
        reports[0].lineage.as_ref().unwrap().to_jsonl()
    };
    let sequential = run(1);
    assert!(
        sequential.contains("\"ev\":\"fault\""),
        "the plan must fire so the guarantee covers fault events"
    );
    for jobs in [2, 4, 8] {
        assert_eq!(run(jobs), sequential, "jobs={jobs} must not change rep 0");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a over every record's `(uid, state, exec_start, exec_end)`, in
/// report order; a missing time hashes as `u64::MAX`.
fn record_hash(report: &radical_rs::core::RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for t in &report.tasks {
        let time = |s: Option<SimTime>| s.map_or(u64::MAX, SimTime::as_micros);
        for word in [
            t.uid.0,
            t.state as u64,
            time(t.exec_start),
            time(t.exec_end),
        ] {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Cross-commit golden for wide placement: the IMPECCABLE campaign at 256
/// nodes, on `srun` and on one Flux instance, at one seed. Its whole-node
/// MPI stages of up to 128 nodes take the multi-leaf placement path, so a
/// change that moves a single task's start or end changes the record hash,
/// and one that adds or drops an event changes the delivered count. A
/// pure speedup must leave both constants as they are. When a change is
/// meant to move them, take the new values from this test's failure
/// message and re-commit `results/` (`rp-exp all`) in the same change.
#[test]
fn impeccable_wide_placement_golden() {
    use radical_rs::workloads::{impeccable_campaign, ImpeccableParams};
    let golden = [
        (
            "srun",
            PilotConfig::srun(256),
            0xd627_7da8_7599_1e17_u64,
            2792,
        ),
        (
            "flux",
            PilotConfig::flux(256, 1),
            0xe831_1d05_c63a_36ad,
            5026,
        ),
    ];
    for (name, cfg, hash, events) in golden {
        let campaign = impeccable_campaign(ImpeccableParams::for_nodes(256));
        let report = SimSession::new(cfg.with_seed(7), Box::new(campaign))
            .with_metrics(SimDuration::from_secs(60))
            .run();
        let delivered = report
            .metrics
            .as_ref()
            .and_then(|m| m.counter("rp_engine_events_total"))
            .expect("engine stats folded into the snapshot");
        assert_eq!(
            (record_hash(&report), delivered),
            (hash, events),
            "{name}: (record hash, delivered events) moved"
        );
    }
}
