//! Per-state duration analysis — the core RADICAL-Analytics capability the
//! paper uses for "fine-grained characterization of workflow performance":
//! how long tasks spend in each pipeline state, where middleware overhead
//! concentrates, and how the stages compare across backends.

use crate::stats::{summarize, Summary};
use rp_core::TaskRecord;
use std::collections::BTreeMap;

/// The pipeline intervals derivable from a task record's milestones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Interval {
    /// Submission → staging complete (input staging + stager queueing).
    Staging,
    /// Staging complete → agent-scheduler decision done.
    Scheduling,
    /// Decision → backend acceptance (executor-adapter serialization).
    Adapter,
    /// Backend acceptance → payload start (backend-internal queueing,
    /// matching and launch — where srun's ceiling and Flux's pipeline
    /// appear).
    BackendQueue,
    /// Payload start → payload end.
    Execution,
    /// Submission → payload end (total turnaround).
    Turnaround,
}

impl Interval {
    /// All intervals in pipeline order.
    pub const ALL: [Interval; 6] = [
        Interval::Staging,
        Interval::Scheduling,
        Interval::Adapter,
        Interval::BackendQueue,
        Interval::Execution,
        Interval::Turnaround,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Interval::Staging => "staging",
            Interval::Scheduling => "scheduling",
            Interval::Adapter => "adapter",
            Interval::BackendQueue => "backend_queue",
            Interval::Execution => "execution",
            Interval::Turnaround => "turnaround",
        }
    }

    /// Extract this interval from a record, in seconds, if both endpoints
    /// were reached.
    pub fn of(self, t: &TaskRecord) -> Option<f64> {
        let span = |a: rp_sim::SimTime, b: rp_sim::SimTime| b.saturating_since(a).as_secs_f64();
        match self {
            Interval::Staging => Some(span(t.submitted, t.staged?)),
            Interval::Scheduling => Some(span(t.staged?, t.scheduled?)),
            Interval::Adapter => Some(span(t.scheduled?, t.backend_accepted?)),
            Interval::BackendQueue => Some(span(t.backend_accepted?, t.exec_start?)),
            Interval::Execution => Some(span(t.exec_start?, t.exec_end?)),
            Interval::Turnaround => Some(span(t.submitted, t.exec_end?)),
        }
    }
}

/// Summaries of every interval over a set of tasks.
#[derive(Debug, Clone)]
pub struct DurationBreakdown {
    /// Interval → summary (absent when no task completed the interval).
    pub intervals: BTreeMap<&'static str, Summary>,
    /// Tasks considered.
    pub tasks: usize,
}

impl DurationBreakdown {
    /// Middleware overhead per task: mean turnaround minus mean execution —
    /// "runtime overhead, representing the infrastructure \[time\] before
    /// workflow execution begins" plus queueing.
    pub fn mean_overhead_s(&self) -> Option<f64> {
        let turn = self.intervals.get(Interval::Turnaround.label())?.mean;
        let exec = self.intervals.get(Interval::Execution.label())?.mean;
        Some(turn - exec)
    }

    /// Render as an aligned text table.
    pub fn table(&self) -> String {
        let mut out =
            String::from("interval        n       mean(s)      sd(s)      min(s)      max(s)\n");
        for (label, s) in &self.intervals {
            out.push_str(&format!(
                "{label:<14} {:>4}  {:>10.4} {:>10.4}  {:>10.4}  {:>10.4}\n",
                s.n, s.mean, s.sd, s.min, s.max
            ));
        }
        out
    }
}

/// Compute the breakdown over `tasks`.
pub fn duration_breakdown(tasks: &[TaskRecord]) -> DurationBreakdown {
    let mut intervals = BTreeMap::new();
    for iv in Interval::ALL {
        let xs: Vec<f64> = tasks.iter().filter_map(|t| iv.of(t)).collect();
        if let Some(s) = summarize(&xs) {
            intervals.insert(iv.label(), s);
        }
    }
    DurationBreakdown {
        intervals,
        tasks: tasks.len(),
    }
}

/// Breakdown grouped by a key function (e.g. backend, workflow label).
pub fn duration_breakdown_by<K: Ord + std::fmt::Display>(
    tasks: &[TaskRecord],
    key: impl Fn(&TaskRecord) -> K,
) -> BTreeMap<K, DurationBreakdown> {
    let mut groups: BTreeMap<K, Vec<TaskRecord>> = BTreeMap::new();
    for t in tasks {
        groups.entry(key(t)).or_default().push(t.clone());
    }
    groups
        .into_iter()
        .map(|(k, v)| (k, duration_breakdown(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::{TaskDescription, TaskState};
    use rp_sim::{SimDuration, SimTime};

    fn record_with_milestones(uid: u64, base: u64) -> TaskRecord {
        let desc = TaskDescription::dummy(uid, SimDuration::from_secs(10));
        let mut rec = TaskRecord::new(&desc, SimTime::from_secs(base));
        rec.advance(TaskState::StagingInput, SimTime::from_secs(base));
        rec.advance(TaskState::Scheduling, SimTime::from_secs(base + 1));
        rec.advance(TaskState::Submitting, SimTime::from_secs(base + 3));
        rec.advance(TaskState::Submitted, SimTime::from_secs(base + 4));
        rec.advance(TaskState::Executing, SimTime::from_secs(base + 9));
        rec.advance(TaskState::Done, SimTime::from_secs(base + 19));
        rec
    }

    #[test]
    fn interval_extraction() {
        let t = record_with_milestones(0, 100);
        assert_eq!(Interval::Staging.of(&t), Some(1.0));
        assert_eq!(Interval::Scheduling.of(&t), Some(2.0));
        assert_eq!(Interval::Adapter.of(&t), Some(1.0));
        assert_eq!(Interval::BackendQueue.of(&t), Some(5.0));
        assert_eq!(Interval::Execution.of(&t), Some(10.0));
        assert_eq!(Interval::Turnaround.of(&t), Some(19.0));
    }

    #[test]
    fn breakdown_sums_and_overhead() {
        let tasks: Vec<TaskRecord> = (0..10).map(|i| record_with_milestones(i, i * 50)).collect();
        let b = duration_breakdown(&tasks);
        assert_eq!(b.tasks, 10);
        assert_eq!(b.intervals.len(), 6);
        assert!((b.mean_overhead_s().unwrap() - 9.0).abs() < 1e-9);
        let table = b.table();
        assert!(table.contains("backend_queue"));
        assert!(table.contains("turnaround"));
    }

    #[test]
    fn incomplete_records_are_skipped() {
        let desc = TaskDescription::dummy(1, SimDuration::ZERO);
        let mut rec = TaskRecord::new(&desc, SimTime::ZERO);
        rec.advance(TaskState::StagingInput, SimTime::ZERO);
        // Never staged/scheduled: only no intervals are derivable.
        let b = duration_breakdown(&[rec]);
        assert!(b.intervals.is_empty());
        assert!(b.mean_overhead_s().is_none());
    }

    #[test]
    fn grouped_breakdown() {
        let mut tasks: Vec<TaskRecord> = (0..6).map(|i| record_with_milestones(i, 0)).collect();
        for (i, t) in tasks.iter_mut().enumerate() {
            t.label = if i % 2 == 0 {
                "dock".into()
            } else {
                "infer".into()
            };
        }
        let by = duration_breakdown_by(&tasks, |t| t.label);
        assert_eq!(by.len(), 2);
        assert_eq!(by[&"dock".into()].tasks, 3);
        assert_eq!(by[&"infer".into()].tasks, 3);
    }
}
