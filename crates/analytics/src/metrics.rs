//! The paper's three core metrics (§4): task throughput, resource
//! utilization, and runtime overhead — derived from task records.
//!
//! Definitions used throughout the experiment harness:
//!
//! - **throughput**: tasks *started* per second ("tasks launched per
//!   second, independent of their execution duration"). `avg` is computed
//!   over launch-active seconds (one-second buckets containing at least one
//!   start), which matches launch-rate semantics for bursty dummy
//!   workloads; `span` divides by the whole first-to-last-start window;
//!   `peak` is the best one-second bucket.
//! - **utilization**: busy core-seconds divided by available core-seconds
//!   over the execution window (first task start → last task end), i.e.
//!   "the percentage of allocated compute resources actively used".
//! - **overhead**: infrastructure setup time before execution can begin
//!   (agent bootstrap, instance bootstraps) — reported per instance.

use rp_core::{RunReport, TaskRecord};

/// Throughput summary for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Tasks started.
    pub started: u64,
    /// Mean rate over launch-active seconds (tasks/s).
    pub avg_active: f64,
    /// Mean rate over the whole start window (tasks/s).
    pub avg_span: f64,
    /// Best one-second bucket (tasks/s).
    pub peak: f64,
}

/// Compute throughput from task start times.
pub fn throughput(tasks: &[TaskRecord]) -> Option<Throughput> {
    let mut starts: Vec<u64> = tasks
        .iter()
        .filter_map(|t| t.exec_start)
        .map(|t| t.as_micros())
        .collect();
    if starts.is_empty() {
        return None;
    }
    starts.sort_unstable();
    let n = starts.len() as u64;
    let first = *starts.first().expect("non-empty");
    let last = *starts.last().expect("non-empty");
    let span_s = ((last - first) as f64 / 1e6).max(1e-9);

    // One-second buckets anchored at the first start.
    let mut buckets: Vec<u64> = Vec::new();
    for s in &starts {
        let b = ((s - first) / 1_000_000) as usize;
        if b >= buckets.len() {
            buckets.resize(b + 1, 0);
        }
        buckets[b] += 1;
    }
    let active = buckets.iter().filter(|&&c| c > 0).count().max(1);
    let peak = buckets.iter().copied().max().unwrap_or(0) as f64;

    Some(Throughput {
        started: n,
        avg_active: n as f64 / active as f64,
        avg_span: if n > 1 { (n - 1) as f64 / span_s } else { 0.0 },
        peak,
    })
}

/// Utilization summary for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// Busy core-seconds integrated over task exec spans.
    pub busy_core_s: f64,
    /// Core utilization over the execution window, in `[0, 1]`.
    pub cores: f64,
    /// GPU utilization over the execution window, in `[0, 1]`
    /// (0 when the pilot has no GPUs or no GPU tasks ran).
    pub gpus: f64,
    /// The execution window length (s).
    pub window_s: f64,
}

/// Compute utilization over the execution window.
pub fn utilization(report: &RunReport) -> Option<Utilization> {
    let first = report.first_start()?;
    let last = report.last_end()?;
    let window_s = last.saturating_since(first).as_secs_f64().max(1e-9);

    let mut busy_core_s = 0.0;
    let mut busy_gpu_s = 0.0;
    for t in &report.tasks {
        if let (Some(s), Some(e)) = (t.exec_start, t.exec_end) {
            let span = e.saturating_since(s).as_secs_f64();
            busy_core_s += span * t.cores as f64;
            busy_gpu_s += span * t.gpus as f64;
        }
    }
    let cores = busy_core_s / (report.total_cores as f64 * window_s);
    let gpus = if report.total_gpus > 0 {
        busy_gpu_s / (report.total_gpus as f64 * window_s)
    } else {
        0.0
    };
    Some(Utilization {
        busy_core_s,
        cores,
        gpus,
        window_s,
    })
}

/// Overhead summary: instance bootstrap costs (Fig. 7's quantity).
#[derive(Debug, Clone, PartialEq)]
pub struct Overheads {
    /// `(kind, partition, nodes, overhead_s)` per instance.
    pub instances: Vec<(String, u32, u32, f64)>,
    /// Wall-clock from pilot start until every instance was ready —
    /// demonstrates the non-additivity of concurrent instance launches.
    pub all_ready_s: Option<f64>,
}

/// Extract overheads from a report.
pub fn overheads(report: &RunReport) -> Overheads {
    let instances = report
        .instances
        .iter()
        .filter_map(|i| {
            i.bootstrap_overhead()
                .map(|o| (i.kind.to_string(), i.partition, i.nodes, o))
        })
        .collect();
    let all_ready_s = report
        .instances
        .iter()
        .map(|i| i.ready.map(|r| r.as_secs_f64()))
        .collect::<Option<Vec<f64>>>()
        .and_then(|v| {
            v.into_iter()
                .fold(None, |m: Option<f64>, x| Some(m.map_or(x, |m| m.max(x))))
        });
    Overheads {
        instances,
        all_ready_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::{TaskDescription, TaskState};
    use rp_sim::{SimDuration, SimTime};

    fn record(uid: u64, start_s: u64, end_s: u64, cores: u32) -> TaskRecord {
        let desc = TaskDescription::dummy(uid, SimDuration::from_secs(end_s - start_s));
        let mut rec = rp_core::TaskRecord::new(&desc, SimTime::ZERO);
        rec.cores = cores;
        rec.advance(TaskState::StagingInput, SimTime::ZERO);
        rec.advance(TaskState::Scheduling, SimTime::ZERO);
        rec.advance(TaskState::Submitting, SimTime::ZERO);
        rec.advance(TaskState::Submitted, SimTime::ZERO);
        rec.advance(TaskState::Executing, SimTime::from_secs(start_s));
        rec.advance(TaskState::Done, SimTime::from_secs(end_s));
        rec
    }

    #[test]
    fn throughput_counts_starts() {
        // 10 tasks in second 0, 10 in second 5 => active avg 10/s,
        // span avg ~ 19/5, peak 10.
        let mut tasks = Vec::new();
        for i in 0..10 {
            tasks.push(record(i, 0, 100, 1));
        }
        for i in 10..20 {
            tasks.push(record(i, 5, 100, 1));
        }
        let t = throughput(&tasks).unwrap();
        assert_eq!(t.started, 20);
        assert!((t.avg_active - 10.0).abs() < 1e-9);
        assert!((t.peak - 10.0).abs() < 1e-9);
        assert!((t.avg_span - 19.0 / 5.0).abs() < 1e-6);
    }

    #[test]
    fn throughput_none_when_nothing_ran() {
        assert!(throughput(&[]).is_none());
    }

    #[test]
    fn utilization_half_busy() {
        // 2 cores total; one 1-core task busy the whole window.
        let report = RunReport {
            nodes: 1,
            total_cores: 2,
            total_gpus: 0,
            tasks: vec![record(0, 0, 100, 1)],
            instances: vec![],
            services: vec![],
            pilot: Default::default(),
            agent_ready: None,
            end: SimTime::from_secs(100),
            profile: None,
            metrics: None,
            telemetry: None,
            lineage: None,
            serving: None,
        };
        let u = utilization(&report).unwrap();
        assert!((u.cores - 0.5).abs() < 1e-9, "{u:?}");
        assert_eq!(u.gpus, 0.0);
        assert!((u.window_s - 100.0).abs() < 1e-9);
    }

    #[test]
    fn srun_ceiling_utilization_is_half() {
        // The Fig. 4 arithmetic: 112 concurrent single-core tasks on 224
        // cores, back-to-back waves => 50 %.
        let mut tasks = Vec::new();
        for wave in 0..4u64 {
            for i in 0..112u64 {
                tasks.push(record(wave * 112 + i, wave * 180, (wave + 1) * 180, 1));
            }
        }
        let report = RunReport {
            nodes: 4,
            total_cores: 224,
            total_gpus: 0,
            tasks,
            instances: vec![],
            services: vec![],
            pilot: Default::default(),
            agent_ready: None,
            end: SimTime::from_secs(720),
            profile: None,
            metrics: None,
            telemetry: None,
            lineage: None,
            serving: None,
        };
        let u = utilization(&report).unwrap();
        assert!((u.cores - 0.5).abs() < 1e-6, "{}", u.cores);
    }
}
