//! A streaming-pipeline workload — the third §2 "emerging use case"
//! (alongside RL agents and active-learning loops): data arrives
//! continuously at a fixed rate, each arrival spawning a short processing
//! task, with periodic aggregation tasks over completed windows. The
//! arrival process is external to the middleware, so it is expressed as
//! timed submission batches (the `SimSession::submit_at` path) rather than
//! a completion-driven [`rp_core::WorkloadSource`].

use rp_core::{Name, TaskDescription, TaskId, TaskKind, UidGen};
use rp_platform::ResourceRequest;
use rp_sim::{SimDuration, SimTime};

/// Stream shape parameters.
#[derive(Debug, Clone)]
pub struct StreamingParams {
    /// Arrival batches per second of virtual time.
    pub batches_per_sec: f64,
    /// Stream length (s).
    pub duration_s: u64,
    /// Processing tasks per arrival batch (function tasks).
    pub tasks_per_batch: u32,
    /// Processing task runtime.
    pub task_duration: SimDuration,
    /// Emit an aggregation task (executable, wider) every this many batches
    /// (0 disables aggregation).
    pub aggregate_every: u32,
    /// Cores per aggregation task.
    pub aggregate_cores: u16,
    /// Aggregation task runtime.
    pub aggregate_duration: SimDuration,
}

impl Default for StreamingParams {
    fn default() -> Self {
        StreamingParams {
            batches_per_sec: 2.0,
            duration_s: 60,
            tasks_per_batch: 8,
            task_duration: SimDuration::from_secs(2),
            aggregate_every: 10,
            aggregate_cores: 8,
            aggregate_duration: SimDuration::from_secs(5),
        }
    }
}

/// One timed arrival batch.
#[derive(Debug)]
pub struct StreamBatch {
    /// Arrival time.
    pub at: SimTime,
    /// Tasks arriving.
    pub tasks: Vec<TaskDescription>,
}

/// Generate the stream's timed batches. Deterministic: arrival times are
/// an exact arithmetic sequence.
pub fn streaming_batches(params: &StreamingParams) -> Vec<StreamBatch> {
    assert!(
        params.batches_per_sec > 0.0,
        "stream needs a positive arrival rate"
    );
    let interval_us = (1e6 / params.batches_per_sec).round() as u64;
    let n_batches = (params.duration_s * 1_000_000) / interval_us.max(1);
    let mut uids = UidGen::new();
    let mut out = Vec::with_capacity(n_batches as usize);
    let process = TaskKind::Function {
        name: Name::new("stream_process"),
    };
    let aggregate = TaskKind::Executable {
        name: Name::new("window_aggregate"),
    };
    for b in 0..n_batches {
        let at = SimTime::from_micros(b * interval_us);
        let mut tasks = Vec::new();
        let label = Name::new(&format!("stream.{b:05}"));
        for _ in 0..params.tasks_per_batch {
            tasks.push(TaskDescription {
                uid: TaskId(uids.next_id()),
                kind: process,
                req: ResourceRequest::single(1, 0),
                duration: params.task_duration,
                backend_hint: None,
                label,
            });
        }
        if params.aggregate_every > 0 && b > 0 && b % params.aggregate_every as u64 == 0 {
            tasks.push(TaskDescription {
                uid: TaskId(uids.next_id()),
                kind: aggregate,
                req: ResourceRequest::single(params.aggregate_cores, 0),
                duration: params.aggregate_duration,
                backend_hint: None,
                label: Name::new(&format!("aggregate.{b:05}")),
            });
        }
        out.push(StreamBatch { at, tasks });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::{PilotConfig, SimSession, StaticWorkload, TaskState};

    #[test]
    fn batches_are_deterministic_and_timed() {
        let p = StreamingParams::default();
        let a = streaming_batches(&p);
        let b = streaming_batches(&p);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 120); // 2 batches/s × 60 s
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.tasks.len(), y.tasks.len());
        }
        // Arrival spacing is exactly 0.5 s.
        assert_eq!(a[1].at.as_micros() - a[0].at.as_micros(), 500_000);
        // Aggregation every 10th batch.
        assert_eq!(a[10].tasks.len(), 9);
        assert_eq!(a[11].tasks.len(), 8);
    }

    #[test]
    fn stream_runs_on_hybrid_pilot_in_real_time() {
        // Sustained processing: the pilot must keep up with arrivals —
        // completions track submissions with bounded lag.
        let p = StreamingParams {
            duration_s: 120,
            ..Default::default()
        };
        let batches = streaming_batches(&p);
        let total: usize = batches.iter().map(|b| b.tasks.len()).sum();
        let mut session = SimSession::new(
            PilotConfig::flux_dragon(4, 1).with_seed(31),
            Box::new(StaticWorkload::new(Vec::new())),
        );
        for b in batches {
            session = session.submit_at(b.at, b.tasks);
        }
        let report = session.run();
        assert_eq!(report.tasks.len(), total);
        assert!(report.tasks.iter().all(|t| t.state == TaskState::Done));
        // Every processing task starts within a few seconds of its arrival
        // (no unbounded backlog): the pilot keeps pace with the stream.
        for t in &report.tasks {
            let lag = t
                .exec_start
                .unwrap()
                .saturating_since(t.submitted)
                .as_secs_f64();
            assert!(
                lag < 45.0,
                "{}: lag {lag}s (pilot activation ≈25 s dominates early tasks)",
                t.uid
            );
        }
        // Steady-state lag (tasks arriving well after activation, once the
        // boot backlog has drained) is small.
        let active_at = report
            .pilot
            .entered_at(rp_core::PilotState::Active)
            .unwrap()
            + rp_sim::SimDuration::from_secs(20);
        let late_lags: Vec<f64> = report
            .tasks
            .iter()
            .filter(|t| t.submitted > active_at)
            .map(|t| {
                t.exec_start
                    .unwrap()
                    .saturating_since(t.submitted)
                    .as_secs_f64()
            })
            .collect();
        assert!(!late_lags.is_empty());
        let mean_lag = late_lags.iter().sum::<f64>() / late_lags.len() as f64;
        assert!(mean_lag < 1.0, "steady-state lag {mean_lag}s");
    }

    #[test]
    fn zero_aggregation_streams_are_pure_functions() {
        let p = StreamingParams {
            aggregate_every: 0,
            duration_s: 5,
            ..Default::default()
        };
        let batches = streaming_batches(&p);
        assert!(batches
            .iter()
            .flat_map(|b| &b.tasks)
            .all(|t| t.kind.is_function()));
    }
}
