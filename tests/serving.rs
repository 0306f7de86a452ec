//! Serving-plane determinism goldens: the byte-identical guarantee
//! extended to open-loop traffic.
//!
//! Three surfaces must replay exactly per seed: the serving books
//! (`ServingReport::to_jsonl`), the OpenMetrics snapshot (every counter
//! the admitted traffic touched), and the lineage JSONL (serving task
//! uids live in the same causal store as batch uids). A serving session
//! must also leave the batch plane untouched when the spec is inactive,
//! and the repetition harness must produce the same books at any
//! `--jobs` count.

use radical_rs::core::{FaultSpec, PilotConfig, ServingSpec, SimSession};
use radical_rs::sim::{SimDuration, SimTime};
use radical_rs::workloads::null_workload;
use rp_bench::{repeat_static, RunOpts};

const NODES: u32 = 4;

/// A spec exercising every moving part at once: bursty arrivals, three
/// weighted clients, mixed null/dummy payloads, and enough pressure on a
/// 4-node pilot that queues actually form.
const SERVING_SPEC: &str =
    "rate=80,horizon=30,clients=3,weights=3:2:1,process=bursty,burst=4,kind=mixed,dur=5";

fn configs(seed: u64) -> [(&'static str, PilotConfig); 4] {
    [
        ("srun", PilotConfig::srun(NODES).with_seed(seed)),
        ("flux", PilotConfig::flux(NODES, 2).with_seed(seed)),
        ("dragon", PilotConfig::dragon(NODES).with_seed(seed)),
        ("prrte", PilotConfig::prrte(NODES).with_seed(seed)),
    ]
}

/// One seeded serving campaign distilled to its full replayable surface:
/// delivered events, final sim time, OpenMetrics text, lineage JSONL,
/// and the serving books rendered to JSONL.
fn serving_fingerprint(cfg: PilotConfig, serving_seed: u64) -> (u64, SimTime, [String; 3]) {
    let report = SimSession::with_tasks(cfg, null_workload(NODES))
        .with_metrics(SimDuration::from_secs(60))
        .with_lineage()
        .with_serving(
            ServingSpec::parse(SERVING_SPEC).expect("serving spec parses"),
            serving_seed,
        )
        .run();
    let snap = report.metrics.expect("metrics attached");
    let delivered = snap
        .counter("rp_engine_events_total")
        .expect("engine stats folded into the snapshot");
    let lineage = report.lineage.expect("lineage attached").to_jsonl();
    let serving = report.serving.expect("serving books attached");
    assert_eq!(
        serving.offered,
        serving.admitted + serving.shed + serving.queued,
        "conservation must hold before we even compare fingerprints"
    );
    (
        delivered,
        report.end,
        [snap.openmetrics(), lineage, serving.to_jsonl()],
    )
}

/// Same workload seed + same serving seed ⇒ byte-identical metrics,
/// lineage, and serving books, for every backend.
#[test]
fn same_serving_seed_is_byte_identical_per_backend() {
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(42)) {
        let fa = serving_fingerprint(a, 7);
        let fb = serving_fingerprint(b, 7);
        assert_eq!(fa.0, fb.0, "{name}: delivered-event count must match");
        assert_eq!(fa.1, fb.1, "{name}: final sim time must match");
        assert_eq!(fa.2[0], fb.2[0], "{name}: OpenMetrics must be identical");
        assert_eq!(fa.2[1], fb.2[1], "{name}: lineage JSONL must be identical");
        assert_eq!(fa.2[2], fb.2[2], "{name}: serving books must be identical");
    }
}

/// A different serving seed must change the arrival schedule (and with
/// it the whole trajectory) — guards against the seed being unused.
#[test]
fn different_serving_seed_differs() {
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(42)) {
        let fa = serving_fingerprint(a, 7);
        let fb = serving_fingerprint(b, 8);
        assert_ne!(
            fa.2[2], fb.2[2],
            "{name}: serving seed 7 vs 8 must produce different books"
        );
    }
}

/// An inactive serving spec (rate=0) must leave the batch run untouched:
/// identical metrics text, end time, and delivered count as a session
/// that never called `with_serving` — the serving-off path is one
/// `Option` check, exactly like the chaos plane.
#[test]
fn inactive_serving_is_byte_identical_to_no_serving() {
    for (name, cfg) in configs(42) {
        let plain = SimSession::with_tasks(cfg.clone(), null_workload(NODES))
            .with_metrics(SimDuration::from_secs(60))
            .run();
        let off = SimSession::with_tasks(cfg, null_workload(NODES))
            .with_metrics(SimDuration::from_secs(60))
            .with_serving(ServingSpec::default(), 7)
            .run();
        assert!(
            off.serving.is_none(),
            "{name}: inactive spec carries no books"
        );
        assert_eq!(plain.end, off.end, "{name}: end time must match");
        assert_eq!(
            plain.metrics.unwrap().openmetrics(),
            off.metrics.unwrap().openmetrics(),
            "{name}: OpenMetrics must be byte-identical with serving off"
        );
    }
}

/// Serving and chaos compose deterministically: the same (workload,
/// fault, serving) seed triple replays byte-identically.
#[test]
fn serving_with_faults_is_byte_identical() {
    let spec = "nodes=1,crashes=1,window=40..120,downtime=30,restart=10,retries=3";
    let run = |seed: u64| {
        let report = SimSession::with_tasks(PilotConfig::flux(NODES, 2).with_seed(seed), vec![])
            .with_metrics(SimDuration::from_secs(60))
            .with_faults(FaultSpec::parse(spec).expect("fault spec parses"), 5, 4096)
            .with_serving(
                ServingSpec::parse(SERVING_SPEC).expect("serving spec parses"),
                7,
            )
            .run();
        let metrics = report.metrics.expect("metrics attached").openmetrics();
        let serving = report.serving.expect("serving books attached").to_jsonl();
        (report.end, metrics, serving)
    };
    assert_eq!(run(42), run(42), "faults + serving must replay exactly");
    assert_ne!(run(42).2, run(43).2, "workload seed must still matter");
}

/// The repetition harness must produce identical serving books for every
/// rep at any `--jobs` count — the arrival plan depends only on the spec
/// and serving seed, never on scheduling order across worker threads.
#[test]
fn serving_books_are_jobs_invariant() {
    let spec = ServingSpec::parse("rate=40,horizon=20,clients=2,weights=2:1")
        .expect("serving spec parses");
    let books = |jobs: usize| -> Vec<String> {
        let opts = RunOpts {
            jobs,
            ..RunOpts::default()
        }
        .with_serving(spec.clone(), 7);
        let (_, reports) = repeat_static(
            "jobs-invariance",
            4,
            |seed| PilotConfig::dragon(NODES).with_seed(seed),
            Vec::new,
            &opts,
        )
        .expect("artifacts write");
        reports
            .iter()
            .map(|r| r.serving.as_ref().expect("books on every rep").to_jsonl())
            .collect()
    };
    let sequential = books(1);
    for jobs in [2, 4, 8] {
        assert_eq!(
            sequential,
            books(jobs),
            "--jobs {jobs} must not change any rep's serving books"
        );
    }
    // Reps share the arrival plan (same offered count) but differ in
    // workload seed, so service timing — and with it the books — may not.
    let offered = |jsonl: &str| {
        let tail = jsonl.split("\"offered\":").nth(1).expect("offered field");
        tail[..tail.find(',').unwrap()].to_string()
    };
    assert_eq!(offered(&sequential[0]), offered(&sequential[1]));
    assert_eq!(offered(&sequential[0]), offered(&sequential[3]));
}

/// The blame identity stays exact when serving and faults compose: every
/// serving task uid (base offset 1_000_000) carries a causal chain whose
/// named segments sum to the end-to-end latency with zero tolerance, and
/// the p999 exemplar uids surfaced by the SLO tracker resolve through
/// the blame engine.
#[test]
fn slo_blame_identity_is_exact_under_serving_and_faults() {
    let fault_spec = "nodes=1,crashes=1,window=20..80,downtime=20,restart=10,retries=3";
    let report = SimSession::with_tasks(PilotConfig::dragon(NODES).with_seed(42), vec![])
        .with_lineage()
        .with_faults(
            FaultSpec::parse(fault_spec).expect("fault spec parses"),
            5,
            4096,
        )
        .with_serving(
            ServingSpec::parse(SERVING_SPEC).expect("serving spec parses"),
            7,
        )
        .run();
    let lin = report.lineage.as_ref().expect("lineage attached");
    let serving = report.serving.as_ref().expect("serving books attached");
    let base = ServingSpec::default().base;
    let mut serving_chains = 0;
    for uid in lin.uids() {
        if uid < base {
            continue;
        }
        serving_chains += 1;
        let tb = radical_rs::analytics::blame_task(lin, uid)
            .unwrap_or_else(|| panic!("serving task {uid} unblamed"));
        assert_eq!(
            tb.segments_total_us(),
            tb.end_to_end_us,
            "blame identity must be exact for serving task {uid}"
        );
    }
    assert_eq!(
        serving_chains, serving.admitted,
        "every admitted serving task must have a causal chain"
    );
    for &uid in serving
        .slo
        .launch_p999_exemplars
        .uids()
        .iter()
        .chain(serving.slo.completion_p999_exemplars.uids())
    {
        assert!(
            radical_rs::analytics::blame_task(lin, uid).is_some(),
            "p999 exemplar uid {uid} must round-trip through the blame engine"
        );
    }
}
