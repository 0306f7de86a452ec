//! Cross-crate integration tests: full pilot runs exercising the public
//! API across both execution planes, asserting the paper's qualitative
//! findings hold end to end.

use radical_rs::analytics::{digest, peak_concurrency, throughput, utilization};
use radical_rs::core::{
    BackendKind, FaultAction, FaultEvent, FaultPlan, PilotConfig, RecoveryPolicy, SimSession,
    TaskDescription, TaskState,
};
use radical_rs::lineage::{EV_FAILED, EV_FAULT, FAULT_CRASH};
use radical_rs::sim::{SimDuration, SimTime};
use radical_rs::workloads::{
    dummy_workload, impeccable_campaign, mixed_workload, null_workload, ImpeccableParams,
};

/// Paper Fig. 4: the srun ceiling caps utilization at 50 % on 4 nodes.
#[test]
fn srun_ceiling_caps_utilization_at_half() {
    let report = SimSession::with_tasks(
        PilotConfig::srun(4).with_srun_oversubscribe(4),
        dummy_workload(4, SimDuration::from_secs(180)),
    )
    .run();
    assert_eq!(report.done_tasks().count(), 896);
    assert_eq!(peak_concurrency(&report.tasks), 112);
    let util = utilization(&report).expect("tasks ran");
    assert!(
        (0.45..0.52).contains(&util.cores),
        "srun utilization {:.3} should pin near 0.5",
        util.cores
    );
}

/// Paper Fig. 5(a) vs 5(b): flux throughput rises with scale while srun
/// falls — the central ordering claim of §4.1.
#[test]
fn flux_scales_where_srun_degrades() {
    let rate = |cfg: PilotConfig, nodes: u32| {
        let report = SimSession::with_tasks(cfg, null_workload(nodes)).run();
        throughput(&report.tasks).expect("started").avg_active
    };
    // Table 1: the srun experiment launches at 4 tasks/core density.
    let srun_1 = rate(PilotConfig::srun(1).with_srun_oversubscribe(4), 1);
    let srun_4 = rate(PilotConfig::srun(4).with_srun_oversubscribe(4), 4);
    let flux_1 = rate(PilotConfig::flux(1, 1), 1);
    let flux_16 = rate(PilotConfig::flux(16, 1), 16);

    assert!(
        srun_4 < srun_1,
        "srun degrades with nodes: {srun_1} -> {srun_4}"
    );
    assert!(flux_16 > 2.0 * flux_1, "flux scales: {flux_1} -> {flux_16}");
    assert!(
        srun_1 > flux_1,
        "at one node srun launches faster ({srun_1} vs {flux_1}); the paper \
         finds all runtimes comparable at 1 node with srun ahead"
    );
    assert!(
        flux_16 > srun_4,
        "by 16 nodes flux must dominate ({flux_16} vs srun@4 {srun_4})"
    );
    // And at matched 16-node scale the gap is decisive.
    let srun_16 = rate(PilotConfig::srun(16).with_srun_oversubscribe(4), 16);
    assert!(
        flux_16 > 2.0 * srun_16,
        "flux@16 {flux_16} must dwarf srun@16 {srun_16}"
    );
}

/// Paper Fig. 5(d): the hybrid deployment sustains near-perfect
/// utilization while routing each task type to its backend.
#[test]
fn hybrid_utilization_above_99_percent() {
    let report = SimSession::with_tasks(
        PilotConfig::flux_dragon(16, 8),
        mixed_workload(16, SimDuration::from_secs(360)),
    )
    .run();
    let d = digest(&report);
    assert_eq!(d.failed, 0);
    assert!(
        d.util_cores > 0.99,
        "hybrid utilization {:.4} must exceed 99 % (paper: >=99.6 %)",
        d.util_cores
    );
    for t in &report.tasks {
        let expected = if t.is_function {
            BackendKind::Dragon
        } else {
            BackendKind::Flux
        };
        assert_eq!(t.backend, Some(expected));
    }
}

/// Paper §4.2: flux cuts the IMPECCABLE makespan versus srun, and the
/// campaign adapts (task count grows with pilot size).
#[test]
fn impeccable_flux_beats_srun() {
    let mut params = ImpeccableParams::for_nodes(64);
    params.iterations = 3;
    params.dock_task_nodes = 8;
    params.score_task_nodes = 16;
    params.score_big_nodes = 32;
    params.esmacs_task_nodes = 8;
    params.infer_task_nodes = 4;
    params.ampl_nodes = 8;

    let srun = SimSession::new(
        PilotConfig::srun(64),
        Box::new(impeccable_campaign(params.clone())),
    )
    .run();
    let flux = SimSession::new(
        PilotConfig::flux(64, 1),
        Box::new(impeccable_campaign(params)),
    )
    .run();
    assert_eq!(srun.failed_count(), 0);
    assert_eq!(flux.failed_count(), 0);
    let (ms, mf) = (srun.makespan().expect("ran"), flux.makespan().expect("ran"));
    assert!(mf < ms, "flux makespan {mf:.0}s must beat srun {ms:.0}s");
}

/// Backend crash: killing a Dragon runtime mid-burst moves its tasks to
/// error states and RP failover retries them (paper §3.2.2 error handling).
#[test]
fn dragon_crash_failover() {
    let tasks: Vec<TaskDescription> = (0..600)
        .map(|i| TaskDescription::function(i, "f", SimDuration::from_secs(60)))
        .collect();
    // Dragon partition 1 sits at index 3 of the instance table, after
    // Flux's two partitions and Dragon's first.
    let at = SimTime::from_secs(45);
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at,
            action: FaultAction::CrashBackend { partition: 3 },
        }],
        hang_victims: Vec::new(),
        watchdog: SimDuration::ZERO,
        policy: RecoveryPolicy::ResubmitElsewhere,
        max_retries: None,
    };
    let report = SimSession::with_tasks(PilotConfig::flux_dragon(8, 2), tasks)
        .with_fault_plan(plan)
        .with_lineage()
        .run();
    assert_eq!(report.tasks.len(), 600, "no tasks lost from the records");
    let done = report
        .tasks
        .iter()
        .filter(|t| t.state == TaskState::Done)
        .count();
    assert_eq!(done, 600, "failover must recover every task");
    assert!(report.tasks.iter().any(|t| t.retries > 0));
    // Every task the crash took down (it failed at the crash instant)
    // carries exactly one crash fault event, and no other task does.
    let lin = report.lineage.as_ref().expect("lineage attached");
    let mut victims = 0;
    for uid in lin.uids() {
        let events = lin.events_for(uid);
        let faults = events
            .iter()
            .filter(|e| e.kind == EV_FAULT && e.detail == FAULT_CRASH)
            .count();
        let taken_down = events.iter().any(|e| e.kind == EV_FAILED && e.t == at);
        assert_eq!(faults, usize::from(taken_down), "task {uid}");
        victims += faults;
    }
    assert!(victims > 0, "the crash took tasks down");
}

/// Determinism: identical config + seed ⇒ identical report; different seed
/// ⇒ different trajectory.
#[test]
fn runs_are_reproducible() {
    let run = |seed: u64| {
        let report = SimSession::with_tasks(
            PilotConfig::flux(4, 2).with_seed(seed),
            dummy_workload(4, SimDuration::from_secs(30)),
        )
        .run();
        (
            report.makespan(),
            report
                .tasks
                .iter()
                .map(|t| (t.uid, t.exec_start))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(5), run(5), "same seed, same run");
    assert_ne!(run(5).0, run(6).0, "different seed, different run");
}

/// The agent records a complete, legal state trajectory for every task.
#[test]
fn task_records_are_complete() {
    let report = SimSession::with_tasks(
        PilotConfig::flux_dragon(4, 1),
        mixed_workload(2, SimDuration::from_secs(10)),
    )
    .run();
    for t in &report.tasks {
        assert_eq!(t.state, TaskState::Done, "{}", t.uid);
        let staged = t.staged.expect("staged");
        let sched = t.scheduled.expect("scheduled");
        let accepted = t.backend_accepted.expect("accepted");
        let start = t.exec_start.expect("started");
        let end = t.exec_end.expect("ended");
        assert!(t.submitted <= staged);
        assert!(staged <= sched);
        assert!(sched <= accepted);
        assert!(accepted <= start);
        assert!(start <= end);
        // Dummy payloads run for their nominal duration.
        let span = end.saturating_since(start).as_secs_f64();
        assert!(
            (9.9..12.0).contains(&span),
            "{}: span {span} should be ~10s",
            t.uid
        );
    }
}

/// Instance bootstrap overheads land at the paper's Fig. 7 anchors:
/// ≈20 s for Flux, ≈9 s for Dragon, independent of instance size.
#[test]
fn bootstrap_overheads_match_fig7() {
    for nodes in [1u32, 16, 64] {
        let report = SimSession::with_tasks(
            PilotConfig::flux_dragon(nodes.max(2), 1).with_seed(nodes as u64),
            vec![
                TaskDescription::null(0),
                TaskDescription::function(1, "f", SimDuration::ZERO),
            ],
        )
        .run();
        for inst in &report.instances {
            let o = inst.bootstrap_overhead().expect("booted");
            match inst.kind {
                BackendKind::Flux => assert!(
                    (14.0..27.0).contains(&o),
                    "flux bootstrap {o:.1}s at {nodes} nodes"
                ),
                BackendKind::Dragon => assert!(
                    (6.0..13.0).contains(&o),
                    "dragon bootstrap {o:.1}s at {nodes} nodes"
                ),
                BackendKind::Srun | BackendKind::Prrte => unreachable!(),
            }
        }
    }
}
