//! CI serving soak: sweep serving seeds across two backends and two
//! arrival processes under sustained open-loop pressure. Every run must
//! drain without panics and keep exact books:
//!
//! - no non-terminal serving task: `done + failed + canceled == admitted`;
//! - conservation with zero tolerance: `offered == admitted + shed + queued`;
//! - the bounded queue actually bounds: `peak_queue <= clients * queue`;
//! - nothing left queued after the drain: `queued == 0`.
//!
//! The final run records lineage and telemetry; its p999 exemplar uids
//! must round-trip through `rp-explain` (a blame chain that narrates),
//! and with `--lineage-dir` / `--telemetry-dir` the JSONL + HTML
//! dashboard land on disk as CI artifacts.
//!
//! Flags: `--seeds N` (default 8) serving seeds per cell, `--serving
//! <spec>` overrides the soak spec (the sweep still forces the process),
//! `--lineage-dir` / `--telemetry-dir` as everywhere.

use rp_bench::{write_serving, write_telemetry, Cli};
use rp_core::{PilotConfig, ServingSpec, SimSession};
use rp_sim::SimDuration;

const NODES: u32 = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        opts, seeds, words, ..
    } = Cli::parse_or_exit(
        &args,
        &["seeds", "serving", "lineage-dir", "telemetry-dir"],
        "usage: serving_soak [--seeds N] [--serving SPEC] [--lineage-dir DIR] [--telemetry-dir DIR]",
    );
    if let Some(w) = words.first() {
        eprintln!("serving_soak: unexpected argument `{w}`");
        std::process::exit(2);
    }
    let seeds = seeds.unwrap_or(8);
    let base_spec = opts.serving.clone().map(|(s, _)| s).unwrap_or_else(|| {
        ServingSpec::parse("rate=120,horizon=40,clients=3,weights=3:2:1,queue=256,kind=mixed,dur=2")
            .expect("soak spec parses")
    });

    type Backend = (&'static str, fn(u32) -> PilotConfig);
    let backends: &[Backend] = &[
        ("flux", |n| PilotConfig::flux(n, 2)),
        ("dragon", PilotConfig::dragon),
    ];
    let processes = ["poisson", "bursty"];
    let total_runs = seeds * backends.len() as u64 * processes.len() as u64;
    let mut ran = 0u64;
    let mut last_run = None;

    for serving_seed in 0..seeds {
        for (name, mk_cfg) in backends {
            for process in processes {
                let mut spec = ServingSpec::parse(&format!("rate=1,process={process}"))
                    .expect("soak process parses");
                let process_shape = spec.process;
                spec = base_spec.clone();
                spec.process = process_shape;
                ran += 1;
                let record = ran == total_runs;
                let mut session = SimSession::with_tasks(mk_cfg(NODES).with_seed(97), vec![])
                    .with_serving(spec.clone(), serving_seed);
                if record {
                    session = session
                        .with_lineage()
                        .with_metrics(SimDuration::from_secs(30))
                        .with_telemetry(SimDuration::from_secs(5));
                }
                let report = session.run();
                let s = report.serving.as_ref().expect("serving books attached");

                let cell = format!("{name}/{process} seed={serving_seed}");
                assert_eq!(
                    s.offered,
                    s.admitted + s.shed + s.queued,
                    "{cell}: conservation"
                );
                assert_eq!(
                    s.done + s.failed + s.canceled,
                    s.admitted,
                    "{cell}: every admitted task must end terminal"
                );
                assert_eq!(s.queued, 0, "{cell}: queue must drain");
                let queue_cap = (spec.queue * spec.clients as usize) as u64;
                assert!(
                    s.peak_queue <= queue_cap,
                    "{cell}: peak queue {} exceeds bound {queue_cap}",
                    s.peak_queue
                );
                println!(
                    "serving_soak {name:<6} {process:<7} seed={serving_seed:<2} \
                     offered={:<5} admitted={:<5} shed={:<4} done={:<5} p99_ttl={:7.3}s",
                    s.offered, s.admitted, s.shed, s.done, s.slo.launch_p99
                );
                if record {
                    last_run = Some(report);
                }
            }
        }
    }

    // Exemplar round-trip on the recorded run: the p999 uids surfaced by
    // the SLO tracker must narrate through the blame engine.
    let report = last_run.expect("final run recorded");
    let lin = report.lineage.as_ref().expect("lineage attached");
    let s = report.serving.as_ref().expect("serving books attached");
    let exemplars: Vec<u64> = s
        .slo
        .launch_p999_exemplars
        .uids()
        .iter()
        .chain(s.slo.completion_p999_exemplars.uids())
        .copied()
        .collect();
    assert!(
        !exemplars.is_empty(),
        "soak must surface p999 exemplars to round-trip"
    );
    for uid in exemplars {
        let story = rp_analytics::explain(lin, uid)
            .unwrap_or_else(|| panic!("p999 exemplar uid {uid} has no rp-explain story"));
        assert!(
            story.contains(&uid.to_string()),
            "rp-explain story must name uid {uid}"
        );
    }

    if let Some(dir) = &opts.lineage_dir {
        std::fs::create_dir_all(dir).expect("create lineage dir");
        let path = dir.join("serving_soak.lineage.jsonl");
        std::fs::write(&path, lin.to_jsonl()).expect("write soak lineage");
        println!("serving_soak lineage -> {}", path.display());
    }
    if let Some(dir) = &opts.telemetry_dir {
        write_telemetry(dir, "serving_soak", &report).expect("write soak telemetry");
        write_serving(dir, "serving_soak", &report).expect("write soak serving books");
        println!("serving_soak dashboard -> {}", dir.display());
    }
    println!("serving_soak: {total_runs} runs, books exact on every (seed, backend, process) cell");
}
