//! End-to-end exporter tests: a profiled session's CSV and Chrome-trace
//! outputs must agree with the run report it came from.

use rp_analytics::parse_profile_csv;
use rp_core::{BackendKind, BackendSpec, PilotConfig, RunReport, SimSession, TaskDescription};
use rp_profiler::{Phase, ProfileData};
use rp_sim::SimDuration;
use std::collections::BTreeMap;

/// A three-backend pilot (Flux ×2, Dragon, PRRTE) with a mixed workload,
/// profiled with 5 s gauge sampling. Failure-free, so every task traverses
/// the pipeline exactly once.
fn profiled_report() -> RunReport {
    let cfg = PilotConfig::new(
        12,
        vec![
            BackendSpec::Flux {
                partitions: 2,
                backfill: true,
            },
            BackendSpec::Dragon { partitions: 1 },
            BackendSpec::Prrte { partitions: 1 },
        ],
    );
    let mut tasks = Vec::new();
    for i in 0..60 {
        tasks.push(TaskDescription::dummy(i, SimDuration::from_secs(20)));
    }
    for i in 60..120 {
        tasks.push(TaskDescription::function(
            i,
            "f",
            SimDuration::from_secs(10),
        ));
    }
    for i in 120..150 {
        let mut t = TaskDescription::dummy(i, SimDuration::from_secs(15));
        t.backend_hint = Some(BackendKind::Prrte);
        tasks.push(t);
    }
    SimSession::with_tasks(cfg, tasks)
        .with_profiling(SimDuration::from_secs(5))
        .run()
}

fn profile(report: &RunReport) -> &ProfileData {
    report.profile.as_ref().expect("session ran with profiling")
}

#[test]
fn event_counts_match_reported_transitions() {
    let report = profiled_report();
    let data = profile(&report);
    assert_eq!(data.dropped, 0, "ring must not overflow in this workload");
    let done = report.done_tasks().count();
    assert_eq!(done, 150);
    let count = |what, ph| data.count(Some("agent"), Some(what), Some(ph));
    assert_eq!(count("NEW", Phase::Instant), report.tasks.len());
    assert_eq!(count("STAGING_INPUT", Phase::Instant), report.tasks.len());
    assert_eq!(count("SUBMITTED", Phase::Instant), report.tasks.len());
    assert_eq!(count("EXECUTING", Phase::Instant), done);
    assert_eq!(count("DONE", Phase::Instant), done);
    assert_eq!(count("FAILED", Phase::Instant), 0);
    // Pilot lifecycle appears exactly once each.
    assert_eq!(count("PILOT_LAUNCHING", Phase::Instant), 1);
    assert_eq!(count("PILOT_ACTIVE", Phase::Instant), 1);
    // The global scheduler served every task: B/E pairs balance.
    assert_eq!(
        data.count(Some("agent.sched"), Some("schedule"), Some(Phase::Begin)),
        data.count(Some("agent.sched"), Some("schedule"), Some(Phase::End)),
    );
    // Backend-side hooks fired: every partition track has events.
    for comp in ["srun", "flux.0", "flux.1", "dragon.0", "prrte.0"] {
        assert!(
            data.count(Some(comp), None, None) > 0,
            "no events on track {comp}"
        );
    }
}

#[test]
fn csv_roundtrip_matches_task_records() {
    let report = profiled_report();
    let data = profile(&report);
    let csv = data.csv();
    let rows = parse_profile_csv(&csv).expect("own CSV parses");
    assert_eq!(rows.len(), data.events.len());

    // The `agent` track's state instants, parsed back, equal the
    // TaskRecord timestamps the run reported, to CSV (microsecond)
    // precision. Failure-free run: each state is entered exactly once.
    let mut instants: BTreeMap<(u64, &str), Vec<f64>> = BTreeMap::new();
    for r in rows
        .iter()
        .filter(|r| r.phase == Phase::Instant && r.comp == "agent")
    {
        if let Some(uid) = r.uid {
            instants
                .entry((uid, r.what.as_str()))
                .or_default()
                .push(r.at);
        }
    }
    let instant = |uid: u64, state: &str| instants.get(&(uid, state)).cloned().unwrap_or_default();
    let close = |got: Vec<f64>, want: Option<rp_sim::SimTime>| match want {
        Some(t) => got.len() == 1 && (got[0] - t.as_secs_f64()).abs() < 1e-6,
        None => got.is_empty(),
    };
    for t in &report.tasks {
        let uid = t.uid.0;
        assert!(close(instant(uid, "NEW"), Some(t.submitted)), "task {uid}");
        assert!(close(instant(uid, "SCHEDULING"), t.staged), "task {uid}");
        assert!(close(instant(uid, "SUBMITTING"), t.scheduled), "task {uid}");
        assert!(
            close(instant(uid, "SUBMITTED"), t.backend_accepted),
            "task {uid}"
        );
        assert!(close(instant(uid, "EXECUTING"), t.exec_start), "task {uid}");
        assert!(close(instant(uid, "DONE"), t.exec_end), "task {uid}");
    }
}

/// Pull `"key":<digits>` out of a single-event JSON line.
fn int_field(line: &str, key: &str) -> Option<i64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    digits.parse().ok()
}

/// Pull `"key":"value"` out of a single-event JSON line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

#[test]
fn chrome_trace_is_balanced_and_monotonic_per_track() {
    let report = profiled_report();
    let data = profile(&report);
    let doc = data.chrome_trace();
    let lines: Vec<&str> = doc.lines().collect();
    assert_eq!(lines.first(), Some(&"["));
    assert_eq!(lines.last(), Some(&"]"));

    use std::collections::HashMap;
    let mut last_ts: HashMap<i64, i64> = HashMap::new();
    let mut open_spans: HashMap<i64, Vec<String>> = HashMap::new();
    let mut metadata = 0usize;
    let mut events = 0usize;
    for line in &lines[1..lines.len() - 1] {
        let ph = str_field(line, "ph").expect("every event has a phase");
        if ph == "M" {
            metadata += 1;
            continue;
        }
        events += 1;
        let tid = int_field(line, "tid").expect("tid");
        let ts = int_field(line, "ts").expect("ts");
        let name = str_field(line, "name").expect("name").to_string();
        // Timestamps never go backwards within a track.
        let prev = last_ts.insert(tid, ts).unwrap_or(i64::MIN);
        assert!(ts >= prev, "track {tid} went backwards: {prev} -> {ts}");
        match ph {
            "B" => open_spans.entry(tid).or_default().push(name),
            "E" => {
                let top = open_spans
                    .entry(tid)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("E without B on track {tid}"));
                assert_eq!(top, name, "mismatched span pair on track {tid}");
            }
            "i" | "C" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(
        metadata,
        data.names.len(),
        "one thread_name per interned name"
    );
    assert_eq!(events, data.events.len());
    for (tid, stack) in open_spans {
        assert!(stack.is_empty(), "track {tid} left spans open: {stack:?}");
    }
}

#[test]
fn gauges_respect_capacity_bounds() {
    let report = profiled_report();
    let rows = parse_profile_csv(&profile(&report).csv()).unwrap();
    let gauges: Vec<_> = rows.iter().filter(|r| r.phase == Phase::Gauge).collect();
    assert!(!gauges.is_empty(), "sampler must have fired");
    let ceiling = gauges
        .iter()
        .find(|r| r.what == "SRUN_CEILING")
        .expect("ceiling gauge")
        .detail;
    assert_eq!(ceiling, 112.0);
    for g in &gauges {
        match g.what.as_str() {
            "SRUN_INFLIGHT" => assert!(g.detail <= ceiling, "inflight {} > ceiling", g.detail),
            "QUEUE_DEPTH" | "BUSY_CORES" | "BUSY_GPUS" => {
                assert!(g.detail >= 0.0)
            }
            _ => {}
        }
    }
    // Every backend partition track was sampled.
    for comp in ["flux.0", "flux.1", "dragon.0", "prrte.0"] {
        assert!(
            gauges
                .iter()
                .any(|g| g.comp == comp && g.what == "BUSY_CORES"),
            "no BUSY_CORES samples on {comp}"
        );
    }
    // Utilization actually shows up: some sample caught busy cores > 0.
    assert!(
        gauges
            .iter()
            .any(|g| g.what == "BUSY_CORES" && g.detail > 0.0),
        "no busy sample on any partition"
    );
}
