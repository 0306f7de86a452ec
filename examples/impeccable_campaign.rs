//! The IMPECCABLE drug-discovery campaign, scaled down, srun vs Flux.
//!
//! Reproduces the paper's §4.2 comparison in miniature: the same six
//! workflows (docking, SST training, inference, MMPBSA scoring, AMPL,
//! ESMACS, REINVENT) with their learn–sample feedback loop, run on a
//! 64-node simulated pilot first through Slurm's `srun` (ceiling-limited)
//! and then through a Flux instance, with makespans and utilizations
//! compared at the end.
//!
//! Run with: `cargo run --release --example impeccable_campaign`

use radical_rs::analytics::{digest, summarize_run};
use radical_rs::core::{PilotConfig, SimSession};
use radical_rs::workloads::{impeccable_campaign, ImpeccableParams};

/// Shrink the campaign to a 64-node pilot so the example runs in
/// milliseconds while preserving every workflow and dependency.
fn small_params() -> ImpeccableParams {
    let mut p = ImpeccableParams::for_nodes(64);
    p.iterations = 4;
    p.dock_task_nodes = 8;
    p.score_task_nodes = 16;
    p.score_big_nodes = 32;
    p.esmacs_task_nodes = 8;
    p.infer_task_nodes = 4;
    p.ampl_nodes = 4;
    p
}

fn main() {
    println!("IMPECCABLE campaign (4 generations, 64 nodes) — srun vs flux\n");

    let srun_report = SimSession::new(
        PilotConfig::srun(64).with_seed(7),
        Box::new(impeccable_campaign(small_params())),
    )
    .run();
    print!("{}", summarize_run("impeccable via srun", &srun_report));

    let flux_report = SimSession::new(
        PilotConfig::flux(64, 1).with_seed(7),
        Box::new(impeccable_campaign(small_params())),
    )
    .run();
    print!("{}", summarize_run("impeccable via flux", &flux_report));

    let ds = digest(&srun_report);
    let df = digest(&flux_report);
    let reduction = (ds.makespan_s - df.makespan_s) / ds.makespan_s * 100.0;
    println!("\nflux shortens the campaign by {reduction:.0}% (paper: 30-60% at scale)");
    assert!(
        df.makespan_s < ds.makespan_s,
        "flux must beat srun on this campaign"
    );
    assert_eq!(ds.done, df.done, "both backends run the same campaign");

    // Per-workflow accounting, demonstrating the heterogeneity (§2).
    println!("\nper-workflow tasks (flux run):");
    for wf in [
        "dock", "train", "infer", "score", "ampl", "esmacs", "reinvent",
    ] {
        let n = flux_report
            .tasks
            .iter()
            .filter(|t| t.label.starts_with(wf))
            .count();
        let cores: u32 = flux_report
            .tasks
            .iter()
            .filter(|t| t.label.starts_with(wf))
            .map(|t| t.cores)
            .max()
            .unwrap_or(0);
        println!("  {wf:<9} {n:>4} tasks, widest {cores} cores");
    }
}
