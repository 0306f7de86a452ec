//! Time-series reconstruction: task concurrency and execution start rate —
//! the two curves of Fig. 8 (and the utilization timeline of Fig. 4).

use rp_core::TaskRecord;

/// One sample of the concurrency / start-rate series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Seconds since the series origin (first submission).
    pub t_s: f64,
    /// Tasks executing at this instant.
    pub running: u64,
    /// Cores held by executing tasks.
    pub busy_cores: u64,
    /// GPUs held by executing tasks.
    pub busy_gpus: u64,
    /// Task starts within the preceding bucket (tasks/s given 1 s buckets).
    pub start_rate: u64,
}

/// Reconstruct a bucketed timeline from task records.
///
/// `bucket_s` controls resolution; the Fig. 8 reproductions use 60 s
/// buckets at campaign scale and 1 s buckets for the synthetic runs.
pub fn timeline(tasks: &[TaskRecord], bucket_s: u64) -> Vec<TimelinePoint> {
    assert!(bucket_s > 0, "bucket must be positive");
    let mut events: Vec<(u64, i64, i64, i64)> = Vec::new(); // (us, drun, dcore, dgpu)
    let mut starts: Vec<u64> = Vec::new();
    let origin = tasks.iter().map(|t| t.submitted.as_micros()).min();
    let Some(origin) = origin else {
        return Vec::new();
    };
    for t in tasks {
        if let Some(s) = t.exec_start {
            starts.push(s.as_micros() - origin.min(s.as_micros()));
            let c = t.cores as i64;
            let g = t.gpus as i64;
            events.push((s.as_micros() - origin, 1, c, g));
            if let Some(e) = t.exec_end {
                events.push((e.as_micros() - origin, -1, -c, -g));
            }
        }
    }
    if events.is_empty() {
        return Vec::new();
    }
    events.sort_unstable();
    let end_us = events.last().expect("non-empty").0;
    let bucket_us = bucket_s * 1_000_000;
    let n_buckets = (end_us / bucket_us + 1) as usize;

    let mut start_counts = vec![0u64; n_buckets];
    for s in &starts {
        start_counts[(s / bucket_us) as usize] += 1;
    }

    let mut out = Vec::with_capacity(n_buckets);
    let mut running = 0i64;
    let mut cores = 0i64;
    let mut gpus = 0i64;
    let mut idx = 0usize;
    #[allow(clippy::needless_range_loop)] // b indexes both time and counts
    for b in 0..n_buckets {
        let t_end = (b as u64 + 1) * bucket_us;
        while idx < events.len() && events[idx].0 < t_end {
            running += events[idx].1;
            cores += events[idx].2;
            gpus += events[idx].3;
            idx += 1;
        }
        out.push(TimelinePoint {
            t_s: ((b as u64 + 1) * bucket_s) as f64,
            running: running.max(0) as u64,
            busy_cores: cores.max(0) as u64,
            busy_gpus: gpus.max(0) as u64,
            start_rate: start_counts[b],
        });
    }
    out
}

/// Peak concurrency over the run (the plateau Fig. 4 exposes).
pub fn peak_concurrency(tasks: &[TaskRecord]) -> u64 {
    let mut events: Vec<(u64, i64)> = Vec::new();
    for t in tasks {
        if let (Some(s), Some(e)) = (t.exec_start, t.exec_end) {
            events.push((s.as_micros(), 1));
            events.push((e.as_micros(), -1));
        }
    }
    events.sort_unstable();
    let mut level = 0i64;
    let mut peak = 0i64;
    for (_, d) in events {
        level += d;
        peak = peak.max(level);
    }
    peak.max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::{TaskDescription, TaskState};
    use rp_sim::{SimDuration, SimTime};

    fn record(uid: u64, start_s: u64, end_s: u64, cores: u32) -> TaskRecord {
        let desc = TaskDescription::dummy(uid, SimDuration::from_secs(end_s - start_s));
        let mut rec = TaskRecord::new(&desc, SimTime::ZERO);
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
    fn concurrency_steps_up_and_down() {
        let tasks = vec![
            record(0, 0, 10, 2),
            record(1, 2, 12, 3),
            record(2, 20, 30, 1),
        ];
        let tl = timeline(&tasks, 1);
        // At t in [3,9]: both task 0 and 1 run => 5 cores.
        let p = &tl[5];
        assert_eq!(p.running, 2);
        assert_eq!(p.busy_cores, 5);
        // Between 12 and 20 nothing runs.
        let p = &tl[15];
        assert_eq!(p.running, 0);
        assert_eq!(p.busy_cores, 0);
        assert_eq!(peak_concurrency(&tasks), 2);
    }

    #[test]
    fn start_rate_counts_per_bucket() {
        let tasks: Vec<TaskRecord> = (0..30).map(|i| record(i, i / 10, 100, 1)).collect();
        let tl = timeline(&tasks, 1);
        assert_eq!(tl[0].start_rate, 10);
        assert_eq!(tl[1].start_rate, 10);
        assert_eq!(tl[2].start_rate, 10);
    }

    #[test]
    fn empty_tasks_empty_timeline() {
        assert!(timeline(&[], 1).is_empty());
        assert_eq!(peak_concurrency(&[]), 0);
    }
}
