//! Runs every workload at `--smoke` size through the built binary and
//! checks each result line against `BENCHMARK.json`: the correctness gate
//! passes, and the metric names and units are exactly the ones listed.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("rp_benchmark_smoke")
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rp_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn last_line(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_passes_the_gate_with_the_listed_metrics() {
    let spec = spec();
    let out = out_dir();
    let out = out.to_str().expect("utf-8 path");
    for w in spec.get("workloads").map(Json::as_arr).unwrap_or(&[]) {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = bench(&[
                "--workload",
                name,
                "--smoke",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--out",
                out,
            ]);
            assert!(
                run.status.success(),
                "{name} --trace {trace} failed: {}",
                String::from_utf8_lossy(&run.stderr)
            );
            let result = Json::parse(&last_line(&run)).expect("last line is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            let mut got: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(m, v)| {
                    assert!(v.get("value").and_then(Json::as_f64).is_some(), "{m}");
                    let unit = v.get("unit").and_then(Json::as_str).unwrap_or_default();
                    (m.clone(), unit.to_string())
                })
                .collect();
            let mut want: Vec<(String, String)> = spec
                .get(key)
                .map(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap_or_default();
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{name} --trace {trace}");
        }
        let trace = out_dir().join(name).join("trace.jsonl");
        let spans = std::fs::read_to_string(&trace).expect("traced run wrote its spans");
        for line in spans.lines() {
            Json::parse(line).expect("span line is JSON");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "flux1_null_n1024", "--trace", "2"],
        &["--bogus"],
        &[],
    ] {
        let run = bench(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn diff_flags_only_regressions_beyond_the_bound() {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let line = |tps: f64, rss: f64| {
        format!(
            "{{\"seed\": 1, \"workloads\": {{\"w\": {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"tasks_per_s\": {{\"value\": {tps}, \"unit\": \"tasks/s\"}}, \"peak_rss_mb\": {{\"value\": {rss}, \"unit\": \"MiB\"}}}}}}}}}}"
        )
    };
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write result file");
        path.to_str().expect("utf-8 path").to_string()
    };
    let bound = spec()
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("tasks_per_s"))
        .and_then(|m| m.get("bound").and_then(Json::as_f64))
        .expect("tasks_per_s has a bound");
    let within = 100.0 * (1.0 - bound / 2.0);
    let beyond = 100.0 * (1.0 - bound - 0.05);
    let base = write("base.json", line(100.0, 50.0));
    let same = write("same.json", line(within, 51.0));
    let slower = write("slower.json", line(beyond, 50.0));
    let faster = write("faster.json", line(200.0, 50.0));
    assert_eq!(bench(&["--diff", &base, &same]).status.code(), Some(0));
    assert_eq!(bench(&["--diff", &base, &faster]).status.code(), Some(0));
    let run = bench(&["--diff", &base, &slower]);
    assert_eq!(run.status.code(), Some(1));
    let text = String::from_utf8_lossy(&run.stdout);
    let flagged: Vec<&str> = text.lines().filter(|l| l.ends_with("REGRESSION")).collect();
    assert_eq!(flagged.len(), 1, "{text}");
    assert!(flagged[0].starts_with("w tasks_per_s 100 "), "{text}");
}
