//! Randomized invariant tests for the metrics layer: utilization bounds,
//! throughput consistency, and timeline conservation against a
//! brute-force model. Cases come from fixed-seed [`RngStream`]s so
//! failures replay exactly.

use rp_analytics::{blame_task, peak_concurrency, throughput, timeline, utilization};
use rp_core::{
    FaultSpec, PilotConfig, RunReport, SimSession, TaskDescription, TaskRecord, TaskState,
};
use rp_sim::{RngStream, SimDuration, SimTime};

fn record(uid: u64, start_s: u64, dur_s: u64, cores: u64) -> TaskRecord {
    let desc = TaskDescription::dummy(uid, SimDuration::from_secs(dur_s));
    let mut rec = TaskRecord::new(&desc, SimTime::ZERO);
    rec.cores = u32::try_from(cores).expect("small core counts");
    rec.advance(TaskState::StagingInput, SimTime::ZERO);
    rec.advance(TaskState::Scheduling, SimTime::ZERO);
    rec.advance(TaskState::Submitting, SimTime::ZERO);
    rec.advance(TaskState::Submitted, SimTime::ZERO);
    rec.advance(TaskState::Executing, SimTime::from_secs(start_s));
    rec.advance(TaskState::Done, SimTime::from_secs(start_s + dur_s));
    rec
}

/// Utilization is always in [0, 1] when capacity covers the tasks, and
/// busy core-seconds equals the sum over tasks exactly.
#[test]
fn utilization_bounded_and_exact() {
    let mut rng = RngStream::derive(0x0717, "utilization_bounded_and_exact");
    for case in 0..128 {
        let spans: Vec<(u64, u64, u64)> = (0..1 + rng.index(39))
            .map(|_| {
                (
                    rng.next_u64() % 500,
                    1 + rng.next_u64() % 199,
                    1 + rng.next_u64() % 7,
                )
            })
            .collect();
        let tasks: Vec<TaskRecord> = spans
            .iter()
            .enumerate()
            .map(|(i, &(s, d, c))| record(i as u64, s, d, c))
            .collect();
        // Capacity: enough cores that concurrent usage can never exceed it.
        let total_cores: u64 = spans.iter().map(|&(_, _, c)| c).sum::<u64>().max(1);
        let report = RunReport {
            nodes: 1,
            total_cores,
            total_gpus: 0,
            tasks,
            instances: vec![],
            services: vec![],
            pilot: Default::default(),
            agent_ready: None,
            end: SimTime::from_secs(1_000),
            profile: None,
            metrics: None,
            telemetry: None,
            lineage: None,
            serving: None,
        };
        let u = utilization(&report).expect("tasks ran");
        assert!(
            u.cores >= 0.0 && u.cores <= 1.0 + 1e-9,
            "case {case}: {}",
            u.cores
        );
        let expected_busy: f64 = spans.iter().map(|&(_, d, c)| (d * c) as f64).sum();
        assert!((u.busy_core_s - expected_busy).abs() < 1e-6, "case {case}");
    }
}

/// Peak concurrency from the sweep equals a brute-force per-second
/// count, and the timeline's running curve never exceeds it.
#[test]
fn concurrency_matches_bruteforce() {
    let mut rng = RngStream::derive(0xB07E, "concurrency_matches_bruteforce");
    for case in 0..128 {
        let spans: Vec<(u64, u64)> = (0..1 + rng.index(29))
            .map(|_| (rng.next_u64() % 100, 1 + rng.next_u64() % 49))
            .collect();
        let tasks: Vec<TaskRecord> = spans
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| record(i as u64, s, d, 1))
            .collect();
        let peak = peak_concurrency(&tasks);
        // Brute force at 1-second resolution (intervals are integral).
        let horizon = spans.iter().map(|&(s, d)| s + d).max().unwrap();
        let mut brute_peak = 0u64;
        for t in 0..horizon {
            let c = spans.iter().filter(|&&(s, d)| s <= t && t < s + d).count() as u64;
            brute_peak = brute_peak.max(c);
        }
        assert_eq!(peak, brute_peak, "case {case}");
        for p in timeline(&tasks, 1) {
            assert!(p.running <= peak, "case {case}");
        }
    }
}

/// Throughput: started == task count; avg_active ≥ avg_span; peak ≥
/// ceil(avg_active).
#[test]
fn throughput_consistency() {
    let mut rng = RngStream::derive(0x7499, "throughput_consistency");
    for case in 0..128 {
        let starts: Vec<u64> = (0..1 + rng.index(199))
            .map(|_| rng.next_u64() % 10_000)
            .collect();
        let tasks: Vec<TaskRecord> = starts
            .iter()
            .enumerate()
            .map(|(i, &s)| record(i as u64, s, 1, 1))
            .collect();
        let t = throughput(&tasks).expect("non-empty");
        assert_eq!(t.started, tasks.len() as u64, "case {case}");
        assert!(
            t.avg_active + 1e-9 >= t.avg_span * 0.99,
            "case {case}: active {} vs span {}",
            t.avg_active,
            t.avg_span
        );
        assert!(t.peak + 1e-9 >= t.avg_active.floor(), "case {case}");
    }
}

/// Draw a random-but-replayable fault spec (every fault kind, every
/// recovery policy, occasional no-restart crashes) plus a fault seed.
fn random_faults(rng: &mut RngStream) -> (FaultSpec, u64) {
    let nodes = rng.index(3);
    let crashes = rng.index(2);
    let mut hangs = rng.index(4);
    if nodes == 0 && crashes == 0 && hangs == 0 {
        hangs = 1; // keep the plan active so every case injects something
    }
    let policy = ["backoff:3:2", "elsewhere", "giveup"][rng.index(3)];
    let restart = if rng.index(4) == 0 {
        "never".to_string()
    } else {
        (5 + rng.index(20)).to_string()
    };
    let spec = format!(
        "nodes={nodes},crashes={crashes},hangs={hangs},window=20..{},downtime={},\
         restart={restart},watchdog={},retries={},policy={policy}",
        120 + rng.index(200),
        20 + rng.index(60),
        15 + rng.index(30),
        2 + rng.index(4),
    );
    (
        FaultSpec::parse(&spec).unwrap_or_else(|e| panic!("generated spec `{spec}`: {e}")),
        rng.next_u64(),
    )
}

fn chaos_config(case: usize, seed: u64) -> PilotConfig {
    match case % 4 {
        0 => PilotConfig::srun(2),
        1 => PilotConfig::flux(2, 2),
        2 => PilotConfig::dragon(2),
        _ => PilotConfig::prrte(2),
    }
    .with_seed(seed)
}

fn chaos_workload(n: u64) -> Vec<TaskDescription> {
    (0..n)
        .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(60)))
        .collect()
}

/// The blame identity under chaos: for every task of every randomly
/// faulted run, the causal segments — `recovery_overhead` included — sum
/// *exactly* (integer µs, zero tolerance) to the end-to-end latency. At
/// least one case must actually pay recovery overhead, or the property
/// never exercised the segment it exists to check.
#[test]
fn blame_telescopes_exactly_under_random_fault_plans() {
    let mut rng = RngStream::derive(0xFA17, "blame_telescopes_under_faults");
    let mut recovery_segments = 0u64;
    for case in 0..32 {
        let (spec, fault_seed) = random_faults(&mut rng);
        let tasks = chaos_workload(48);
        let hint = tasks.len() as u64;
        let report = SimSession::with_tasks(chaos_config(case, 100 + case as u64), tasks)
            .with_lineage()
            .with_faults(spec, fault_seed, hint)
            .run();
        let lin = report.lineage.as_ref().expect("lineage attached");
        assert_eq!(
            lin.task_count(),
            report.tasks.len(),
            "case {case}: every task must have a causal chain"
        );
        for uid in lin.uids() {
            let tb = blame_task(lin, uid).unwrap_or_else(|| panic!("case {case}: {uid} unblamed"));
            assert_eq!(
                tb.segments_total_us(),
                tb.end_to_end_us,
                "case {case}: blame identity must be exact for task {uid}"
            );
            recovery_segments += tb
                .segments
                .iter()
                .filter(|s| s.phase == "recovery_overhead")
                .count() as u64;
        }
    }
    assert!(
        recovery_segments > 0,
        "no case ever paid recovery overhead — the property is vacuous"
    );
}

/// Task conservation under chaos: no fault plan may lose or duplicate a
/// task. Every submitted uid appears exactly once in the report and ends
/// terminal — Done, or Failed after the policy gave up on it.
#[test]
fn no_fault_plan_loses_or_duplicates_tasks() {
    let mut rng = RngStream::derive(0xC0A5, "fault_task_conservation");
    for case in 0..32 {
        let (spec, fault_seed) = random_faults(&mut rng);
        let n = 24 + rng.index(40) as u64;
        let report =
            SimSession::with_tasks(chaos_config(case, 200 + case as u64), chaos_workload(n))
                .with_faults(spec, fault_seed, n)
                .run();
        assert_eq!(
            report.tasks.len() as u64,
            n,
            "case {case}: task count conserved"
        );
        let mut seen = vec![false; n as usize];
        let (mut done, mut failed) = (0u64, 0u64);
        for t in &report.tasks {
            let uid = t.uid.0 as usize;
            assert!(!seen[uid], "case {case}: uid {uid} duplicated");
            seen[uid] = true;
            match t.state {
                TaskState::Done => done += 1,
                TaskState::Failed => failed += 1,
                other => panic!("case {case}: uid {uid} ended non-terminal: {other:?}"),
            }
        }
        assert!(seen.iter().all(|&s| s), "case {case}: a uid went missing");
        assert_eq!(
            done + failed,
            n,
            "case {case}: outcomes partition the batch"
        );
    }
}
