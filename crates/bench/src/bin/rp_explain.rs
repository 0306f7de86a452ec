//! `rp-explain` — answer *why* from recorded causal lineage.
//!
//! Consumes the `*.lineage.jsonl` files the experiment harness writes
//! under `--lineage-dir` and answers two questions:
//!
//! * `rp-explain [--dir D] <uid>` — narrate one task's causal story:
//!   every recorded event (route decision, queue positions, placement
//!   rejects with reasons, launch, execution, collection) plus the blame
//!   decomposition whose segments sum exactly to the end-to-end latency.
//! * `rp-explain --diff A/ B/` — differential attribution between two
//!   runs: pair lineage files by name, decompose both, and report which
//!   blame segment moved.
//!
//! `rp-explain [--dir D] --report` prints the aggregate blame table for
//! every lineage file in a directory.

use rp_analytics::{blame_report, diff_reports, explain, render_report};
use rp_lineage::LineageData;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
rp-explain: narrate per-task causal stories and diff runs from lineage JSONL

usage:
  rp-explain [--dir DIR] <uid>     explain one task (searches *.lineage.jsonl, default dir .)
  rp-explain [--dir DIR] --report  aggregate blame report for every lineage file
  rp-explain --diff A_DIR B_DIR    differential blame attribution between two runs

Lineage files are produced by `rp-exp <id>... --lineage-dir <DIR>`.
";

/// Every `*.lineage.jsonl` under `dir`, sorted by file name so output
/// order is deterministic.
fn lineage_files(dir: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".lineage.jsonl") {
            out.push((name.to_string(), path));
        }
    }
    out.sort();
    out
}

fn load(path: &Path) -> Result<LineageData, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    LineageData::from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_explain(dir: &Path, uid: u64) -> Result<String, String> {
    let files = lineage_files(dir);
    if files.is_empty() {
        return Err(format!(
            "no *.lineage.jsonl files under {} (run rp-exp with --lineage-dir)",
            dir.display()
        ));
    }
    let mut out = String::new();
    for (name, path) in &files {
        let data = load(path)?;
        if let Some(story) = explain(&data, uid) {
            out.push_str(&format!("== {name} ==\n{story}\n"));
        }
    }
    if out.is_empty() {
        return Err(format!(
            "task {uid} not found in any lineage file under {}",
            dir.display()
        ));
    }
    Ok(out)
}

fn run_report(dir: &Path) -> Result<String, String> {
    let files = lineage_files(dir);
    if files.is_empty() {
        return Err(format!("no *.lineage.jsonl files under {}", dir.display()));
    }
    let mut out = String::new();
    for (name, path) in &files {
        let data = load(path)?;
        out.push_str(&render_report(name, &blame_report(&data)));
        out.push('\n');
    }
    Ok(out)
}

fn run_diff(dir_a: &Path, dir_b: &Path) -> Result<String, String> {
    let files_a = lineage_files(dir_a);
    let files_b = lineage_files(dir_b);
    let mut out = String::new();
    for (name, path_a) in &files_a {
        let Some((_, path_b)) = files_b.iter().find(|(n, _)| n == name) else {
            out.push_str(&format!("(skipping {name}: only in {})\n", dir_a.display()));
            continue;
        };
        let a = blame_report(&load(path_a)?);
        let b = blame_report(&load(path_b)?);
        out.push_str(&diff_reports(
            &format!("a:{name}"),
            &a,
            &format!("b:{name}"),
            &b,
        ));
        out.push('\n');
    }
    for (name, _) in &files_b {
        if !files_a.iter().any(|(n, _)| n == name) {
            out.push_str(&format!("(skipping {name}: only in {})\n", dir_b.display()));
        }
    }
    if out.is_empty() {
        return Err(format!(
            "no lineage files to compare between {} and {}",
            dir_a.display(),
            dir_b.display()
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = PathBuf::from(".");
    let mut uid: Option<u64> = None;
    let mut report = false;
    let mut diff: Option<(PathBuf, PathBuf)> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--dir" => match it.next() {
                Some(d) => dir = PathBuf::from(d),
                None => return usage_error("--dir needs a directory"),
            },
            "--report" => report = true,
            "--diff" => match (it.next(), it.next()) {
                (Some(a), Some(b)) => diff = Some((PathBuf::from(a), PathBuf::from(b))),
                _ => return usage_error("--diff needs two directories"),
            },
            other => {
                if let Some(d) = other.strip_prefix("--dir=") {
                    dir = PathBuf::from(d);
                } else if let Ok(u) = other.parse::<u64>() {
                    uid = Some(u);
                } else {
                    return usage_error(&format!("unrecognized argument `{other}`"));
                }
            }
        }
    }
    let result = if let Some((a, b)) = diff {
        run_diff(&a, &b)
    } else if report {
        run_report(&dir)
    } else if let Some(uid) = uid {
        run_explain(&dir, uid)
    } else {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rp-explain: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("rp-explain: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}
