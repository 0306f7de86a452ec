//! Run the paper's experiments: `rp-exp all` prints Table 1 and runs the
//! whole suite; `rp-exp <id>...` runs only the named experiments. Each
//! experiment writes `results/exp_<id>.{txt,csv}` and prints the same text
//! as its transcript section, in list order at any `--jobs` count.
//!
//! `--quick` trims node counts and repetitions for a fast smoke pass;
//! `--jobs N` runs up to N experiments at once and spreads each one's
//! repetitions over N worker threads; `--profile-dir`, `--metrics-dir`,
//! `--telemetry-dir` and `--lineage-dir <dir>` instrument rep 0 of every
//! configuration and write its artifacts there; `--faults <spec>`
//! (`--fault-seed N`) and `--serving <spec>` (`--serving-seed N`) put every
//! session under the same deterministic fault / open-loop serving plan.
//! Any other flag, an unknown id or a malformed value exits with status 2;
//! a results or artifact file that cannot be written, or a run that ends
//! with a task not terminal, exits with status 1.

use rp_bench::experiments::{run, select, table1, EXPERIMENTS};
use rp_bench::{Cli, EXP_FLAGS};
use std::path::Path;

const USAGE: &str = "usage: rp-exp (all | <id>...) [--quick] [--jobs N] \
[--profile-dir DIR] [--metrics-dir DIR] [--telemetry-dir DIR] [--lineage-dir DIR] \
[--faults SPEC] [--fault-seed N] [--serving SPEC] [--serving-seed N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse_or_exit(&args, EXP_FLAGS, USAGE);
    let exps = select(&cli.words).unwrap_or_else(|e| {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!("{e}\n{USAGE}\nexperiments: {}", ids.join(" "));
        std::process::exit(2)
    });
    if cli.words.iter().any(|w| w == "all") {
        println!("Table 1 — experiment matrix\n\n{}", table1());
    }
    run(&exps, cli.quick, &cli.opts, |exp, out| {
        let out = out.unwrap_or_else(|e| {
            eprintln!("rp-exp: {}: {e}", exp.id);
            std::process::exit(1)
        });
        if let Err(e) = out.write(Path::new("results")) {
            eprintln!("rp-exp: writing results/{}.*: {e}", exp.stem());
            std::process::exit(1);
        }
        print!(
            "================= {} =================\n{}\n",
            exp.id,
            out.text()
        );
    });
    println!("All experiments complete; outputs under results/.");
}
