//! End-to-end exporter tests: a profiled session's CSV and Chrome-trace
//! outputs must agree with the run report it came from.

use rp_analytics::blame::is_milestone;
use rp_analytics::parse_profile_csv;
use rp_core::{BackendKind, BackendSpec, PilotConfig, RunReport, SimSession, TaskDescription};
use rp_lineage::{BACKEND_NAMES, EVENT_NAMES, META_UID, NO_BACKEND};
use rp_profiler::{Phase, ProfileData};
use rp_sim::SimDuration;
use std::collections::{BTreeMap, HashMap};

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
    assert_eq!(data.dropped, 0, "the profile stream is complete");
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
    // Backend-side lineage events landed: every partition track has rows.
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
        assert!(str_field(line, "name").is_some(), "every event has a name");
        // Timestamps never go backwards within a track.
        let prev = last_ts.insert(tid, ts).unwrap_or(i64::MIN);
        assert!(ts >= prev, "track {tid} went backwards: {prev} -> {ts}");
        assert!(matches!(ph, "i" | "C"), "unexpected phase {ph:?}");
    }
    assert_eq!(
        metadata,
        data.names.len(),
        "one thread_name per interned name"
    );
    assert_eq!(events, data.events.len());
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

/// The `(track, name)` rows a lineage milestone must appear as: task
/// states on `agent` under their RP names (`submit` as both `NEW` and
/// `STAGING_INPUT`), everything else under its lineage name on its
/// backend's track.
fn expected_rows(e: &rp_lineage::Event) -> Vec<(String, &'static str)> {
    let agent = |what| vec![("agent".to_string(), what)];
    match EVENT_NAMES[e.kind as usize] {
        "submit" => vec![
            ("agent".to_string(), "NEW"),
            ("agent".to_string(), "STAGING_INPUT"),
        ],
        "stage_done" => agent("SCHEDULING"),
        "sched_done" => agent("SUBMITTING"),
        "handoff" => agent("SUBMITTED"),
        "exec" => agent("EXECUTING"),
        "done" => agent("DONE"),
        "failed" => agent("FAILED"),
        "retry" => agent("STAGING_INPUT"),
        "canceled" => agent("CANCELED"),
        name => {
            let track = match e.backend {
                NO_BACKEND => "agent".to_string(),
                0 => "srun".to_string(),
                b => format!("{}.{}", BACKEND_NAMES[b as usize], e.partition),
            };
            vec![(track, name)]
        }
    }
}

/// Every lineage milestone appears as exactly one profile row per
/// [`expected_rows`] entry, with the same uid and microsecond time.
fn assert_milestones_rendered(report: &RunReport) {
    let data = profile(report);
    let lin = report.lineage.as_ref().expect("profiling attaches lineage");
    let mut rows: HashMap<(usize, u64, usize, u64), u32> = HashMap::new();
    for ev in data.events.iter().filter(|ev| ev.phase == Phase::Instant) {
        let key = (ev.comp.index(), ev.uid, ev.what.index(), ev.at.as_micros());
        *rows.entry(key).or_default() += 1;
    }
    let sym = |name: &str| data.names.iter().position(|n| n == name);
    let mut checked = 0;
    for e in lin.events.iter().filter(|e| e.uid != META_UID) {
        if !is_milestone(e.kind) {
            continue;
        }
        for (track, what) in expected_rows(e) {
            let key = sym(&track)
                .zip(sym(what))
                .map(|(comp, what)| (comp, e.uid, what, e.t.as_micros()));
            let seen = key.and_then(|k| rows.get(&k)).copied().unwrap_or(0);
            assert_eq!(seen, 1, "uid {} {what} on {track} at {}", e.uid, e.t);
            checked += 1;
        }
    }
    assert!(checked > 0, "no milestones checked");
}

/// A run far past the 2^20 events the profile used to keep: nothing is
/// dropped, the `DONE` rows match the done tasks, and every milestone is
/// on file.
#[test]
fn profile_is_complete_past_the_old_ring_capacity() {
    let nodes = 400;
    let tasks = (0..nodes as u64 * 224).map(TaskDescription::null).collect();
    let report = SimSession::with_tasks(PilotConfig::flux(nodes, 1), tasks)
        .with_profiling(SimDuration::from_secs(1))
        .run();
    let data = profile(&report);
    assert!(
        data.events.len() > 1 << 20,
        "only {} rows",
        data.events.len()
    );
    assert_eq!(data.dropped, 0);
    let done = report.done_tasks().count();
    assert_eq!(done, report.tasks.len());
    assert_eq!(
        data.count(Some("agent"), Some("DONE"), Some(Phase::Instant)),
        done
    );
    assert_milestones_rendered(&report);
}

/// Faults, retries and cancels: failed attempts, retry re-staging, the
/// fault marker on the victim's partition track and the cancels all show
/// up as rows.
#[test]
fn faults_retries_and_cancels_are_profiled() {
    let tasks: Vec<TaskDescription> = (0..300)
        .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(60)))
        .collect();
    let spec = rp_core::FaultSpec::parse("nodes=2,crashes=1,window=40..200,retries=4")
        .expect("fault spec parses");
    let report = SimSession::with_tasks(PilotConfig::flux(4, 2), tasks)
        .with_faults(spec, 7, 300)
        .cancel_at(rp_sim::SimTime::from_secs(45), (280..300).collect())
        .with_profiling(SimDuration::from_secs(5))
        .run();
    let data = profile(&report);
    let rows = parse_profile_csv(&data.csv()).expect("own CSV parses");
    let agent = |what: &str| -> Vec<_> {
        rows.iter()
            .filter(|r| r.comp == "agent" && r.what == what)
            .collect()
    };

    let failed = agent("FAILED");
    assert!(!failed.is_empty(), "faults failed some attempts");
    // A retried task is staged again after its failure.
    let retried: Vec<_> = report.tasks.iter().filter(|t| t.retries > 0).collect();
    assert!(!retried.is_empty(), "faults forced retries");
    for t in &retried {
        let uid = Some(t.uid.0);
        let first_fail = failed
            .iter()
            .filter(|r| r.uid == uid)
            .map(|r| r.at)
            .fold(f64::INFINITY, f64::min);
        let restaged = agent("STAGING_INPUT")
            .iter()
            .filter(|r| r.uid == uid && r.at >= first_fail)
            .count();
        assert!(restaged >= 1, "task {} never re-staged", t.uid);
    }
    // Each fault marker sits on the partition that held the victim: the
    // track of the victim's latest backend row before the fault.
    let faults: Vec<_> = rows.iter().filter(|r| r.what == "fault").collect();
    assert!(!faults.is_empty(), "fault markers rendered");
    for f in &faults {
        assert!(f.comp.starts_with("flux."), "fault on {}", f.comp);
        let held = rows
            .iter()
            .filter(|r| r.uid == f.uid && r.at <= f.at && r.comp.starts_with("flux."))
            .rfind(|r| r.what != "fault")
            .expect("victim had a backend row");
        assert_eq!(held.comp, f.comp, "uid {:?}", f.uid);
    }
    let canceled = report
        .tasks
        .iter()
        .filter(|t| t.state == rp_core::TaskState::Canceled)
        .count();
    assert!(canceled > 0, "the late cancel caught queued tasks");
    assert_eq!(agent("CANCELED").len(), canceled);
    assert_milestones_rendered(&report);
}
