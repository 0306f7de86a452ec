//! CI chaos soak: sweep fault seeds across all four backends under a
//! fixed chaos spec. Every run must finish without panics and conserve its
//! task set — each submitted uid appears exactly once and ends terminal,
//! so `done + failed == submitted` on every seed. The last seed's runs
//! record lineage; with `--lineage-dir <dir>` the last of them that
//! carries a fault event lands on disk so CI can narrate a faulted task
//! through `rp-explain` and upload the story as an artifact.
//!
//! Flags: `--seeds N` (default 16) fault seeds per backend, `--faults
//! <spec>` overrides the soak spec, `--lineage-dir <dir>` as everywhere.

use rp_bench::Cli;
use rp_core::{FaultSpec, PilotConfig, SimSession, TaskState};
use rp_sim::SimDuration;
use rp_workloads::dummy_workload;

const NODES: u32 = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        opts, seeds, words, ..
    } = Cli::parse_or_exit(
        &args,
        &["seeds", "faults", "lineage-dir"],
        "usage: chaos_soak [--seeds N] [--faults SPEC] [--lineage-dir DIR]",
    );
    if let Some(w) = words.first() {
        eprintln!("chaos_soak: unexpected argument `{w}`");
        std::process::exit(2);
    }
    let seeds = seeds.unwrap_or(16);
    let spec = opts.faults.clone().map(|(s, _)| s).unwrap_or_else(|| {
        FaultSpec::parse(
            "nodes=1,crashes=1,hangs=2,window=30..200,downtime=60,restart=15,watchdog=30,retries=5",
        )
        .expect("soak spec parses")
    });

    type Backend = (&'static str, fn(u32) -> PilotConfig);
    let backends: &[Backend] = &[
        ("flux", |n| PilotConfig::flux(n, 2)),
        ("dragon", PilotConfig::dragon),
        ("prrte", PilotConfig::prrte),
        ("srun", PilotConfig::srun),
    ];
    let total_runs = seeds * backends.len() as u64;
    let mut last_lineage: Option<String> = None;

    for fault_seed in 0..seeds {
        for (name, mk_cfg) in backends {
            let tasks = dummy_workload(NODES, SimDuration::from_secs(60));
            let n = tasks.len() as u64;
            let record_lineage = fault_seed + 1 == seeds;
            let mut session = SimSession::with_tasks(mk_cfg(NODES).with_seed(97), tasks)
                .with_faults(spec.clone(), fault_seed, n);
            if record_lineage {
                session = session.with_lineage();
            }
            let report = session.run();

            // Conservation: every uid exactly once, every task terminal.
            assert_eq!(
                report.tasks.len() as u64,
                n,
                "{name} seed={fault_seed}: task count"
            );
            let mut seen = vec![false; n as usize];
            let (mut done, mut failed) = (0u64, 0u64);
            for t in &report.tasks {
                let uid = t.uid.0 as usize;
                assert!(!seen[uid], "{name} seed={fault_seed}: uid {uid} duplicated");
                seen[uid] = true;
                match t.state {
                    TaskState::Done => done += 1,
                    TaskState::Failed => failed += 1,
                    other => panic!("{name} seed={fault_seed}: uid {uid} non-terminal: {other:?}"),
                }
            }
            assert_eq!(
                done + failed,
                n,
                "{name} seed={fault_seed}: outcomes partition"
            );
            println!(
                "chaos_soak {name:<6} fault_seed={fault_seed:<3} done={done:<4} failed={failed:<3} makespan={:8.1}s",
                report.makespan().unwrap_or(0.0)
            );
            if let Some(jsonl) = report.lineage.map(|l| l.to_jsonl()) {
                if jsonl.contains("\"ev\":\"fault\"") {
                    last_lineage = Some(jsonl);
                }
            }
        }
    }

    if let Some(dir) = &opts.lineage_dir {
        let jsonl =
            last_lineage.expect("soak lineage must carry fault events for the rp-explain artifact");
        std::fs::create_dir_all(dir).expect("create lineage dir");
        let path = dir.join("chaos_soak.lineage.jsonl");
        std::fs::write(&path, jsonl).expect("write soak lineage");
        println!("chaos_soak lineage -> {}", path.display());
    }
    println!("chaos_soak: {total_runs} runs, conservation held on every fault seed");
}
