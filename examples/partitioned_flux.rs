//! Partitioned Flux instances: the `flux_n` design point as an API demo.
//!
//! Runs the same dummy workload on a 16-node simulated pilot with 1, 4 and
//! 16 concurrent Flux instances and prints how launch throughput responds —
//! the partitioning trade-off of §4.1.3 — plus a backend-crash run
//! showing the fault-isolation benefit the paper credits multi-instance
//! deployments with.
//!
//! Run with: `cargo run --release --example partitioned_flux`

use radical_rs::analytics::{digest, throughput};
use radical_rs::core::{
    FaultAction, FaultEvent, FaultPlan, PilotConfig, RecoveryPolicy, SimSession, TaskDescription,
};
use radical_rs::sim::{SimDuration, SimTime};
use radical_rs::workloads::dummy_workload;

fn main() {
    const NODES: u32 = 16;
    println!("flux partitioning sweep on {NODES} simulated nodes\n");

    let mut last = 0.0;
    for k in [1u32, 4, 16] {
        let report = SimSession::with_tasks(
            PilotConfig::flux(NODES, k).with_seed(11),
            dummy_workload(NODES, SimDuration::from_secs(180)),
        )
        .run();
        let d = digest(&report);
        println!(
            "  {k:>2} instance(s): avg {:>6.1} tasks/s, peak {:>5.0}, util {:>5.1}%",
            d.thr_avg,
            d.thr_peak,
            d.util_cores * 100.0
        );
        assert_eq!(d.failed, 0);
        assert!(
            d.thr_avg >= last * 0.9,
            "partitioning should not collapse throughput"
        );
        last = d.thr_avg;
    }

    // Fault isolation: kill one of four instances mid-run; the workload
    // still completes on the survivors via RP's retry/failover.
    println!("\nbackend crash: killing flux instance 2 of 4 at t=120s");
    let tasks: Vec<TaskDescription> = (0..2000)
        .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(120)))
        .collect();
    let crash = FaultPlan {
        events: vec![FaultEvent {
            at: SimTime::from_secs(120),
            action: FaultAction::CrashBackend { partition: 2 },
        }],
        hang_victims: Vec::new(),
        watchdog: SimDuration::ZERO,
        policy: RecoveryPolicy::ResubmitElsewhere,
        max_retries: None,
    };
    let report = SimSession::with_tasks(PilotConfig::flux(NODES, 4).with_seed(3), tasks)
        .with_fault_plan(crash)
        .run();
    let d = digest(&report);
    let retried = report.tasks.iter().filter(|t| t.retries > 0).count();
    let killed = report.instances.iter().filter(|i| i.killed).count();
    println!(
        "  instances killed: {killed}; tasks retried: {retried}; completed {} / 2000; failed {}",
        d.done, d.failed
    );
    assert_eq!(killed, 1);
    assert!(retried > 0, "failover must have retried lost tasks");
    assert_eq!(d.done, 2000, "every task completes despite the crash");

    // Throughput of the survivors only (the paper's fault-isolation claim:
    // one crash affects one partition, not the pilot).
    let survivors: Vec<_> = report
        .tasks
        .iter()
        .filter(|t| t.partition != Some(2))
        .cloned()
        .collect();
    let thr = throughput(&survivors).expect("survivor throughput");
    println!(
        "  survivor partitions kept launching at {:.1} tasks/s avg",
        thr.avg_active
    );
}
