//! Reinforcement-learning / active-learning loop on the simulated hybrid
//! pilot — the §2 "emerging use case" the paper argues future middleware
//! must serve: a persistent learner service and replay buffer, generations
//! of actor simulations (executables → Flux), and asynchronous inference
//! bursts (functions → Dragon), with batch sizes adapting to free
//! resources and the campaign ending on convergence.
//!
//! Run with: `cargo run --release --example rl_active_learning`

use radical_rs::analytics::{blame_report, digest, render_report};
use radical_rs::core::{BackendKind, PilotConfig, SimSession};
use radical_rs::workloads::{ActiveLearning, ActiveLearningParams};

fn main() {
    let params = ActiveLearningParams {
        quality_per_actor: 0.004,
        actors_max: 96,
        ..Default::default()
    };

    let report = SimSession::new(
        PilotConfig::flux_dragon(8, 2).with_seed(21),
        Box::new(ActiveLearning::new(params)),
    )
    .with_lineage()
    .run();

    let d = digest(&report);
    println!("active-learning campaign finished:");
    println!("  tasks completed : {}", d.done);
    println!("  makespan        : {:.0}s", d.makespan_s);
    println!("  core utilization: {:.1}%", d.util_cores * 100.0);

    // Services spanned the campaign.
    for s in &report.services {
        println!(
            "  service {:<14} backend={:?} uptime={:.0}s",
            s.name,
            s.backend.expect("placed"),
            s.uptime_s().expect("ran"),
        );
        assert!(!s.failed);
    }

    // Where the end-to-end time went: each task's lineage chain split
    // into pipeline phases, plus the critical path.
    let lineage = report.lineage.as_ref().expect("lineage attached");
    print!(
        "\n{}",
        render_report("active learning", &blame_report(lineage))
    );

    let actors = report
        .tasks
        .iter()
        .filter(|t| t.backend == Some(BackendKind::Flux))
        .count();
    let inferences = report
        .tasks
        .iter()
        .filter(|t| t.backend == Some(BackendKind::Dragon))
        .count();
    println!("\nactors via flux: {actors}, inferences via dragon: {inferences}");
    assert!(actors > 0 && inferences > 0);
    assert_eq!(d.failed, 0, "no task may fail");
}
