//! Run reports: everything a session run produces for analysis.
//!
//! This is the boundary between `rp-core` (which *generates* events) and
//! `rp-analytics` (which derives the paper's three metrics from them).

use crate::backend::BackendKind;
use crate::pilot::PilotTrajectory;
use crate::service::ServiceRecord;
use crate::task::{TaskDescription, TaskId, TaskRecord, TaskState};
use rp_sim::{SimTime, UidMap};
use std::ops::Range;

/// Bootstrap/readiness record for one backend instance (Fig. 7's data).
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// Backend kind.
    pub kind: BackendKind,
    /// Partition index within the kind.
    pub partition: u32,
    /// Nodes in the partition.
    pub nodes: u32,
    /// When the instance's carrier `srun` acquired its slot.
    pub srun_acquired: Option<SimTime>,
    /// When bootstrap completed (instance ready for tasks).
    pub ready: Option<SimTime>,
    /// Whether the instance was killed by failure injection.
    pub killed: bool,
}

impl InstanceReport {
    /// The bootstrap overhead (ready − carrier start), the quantity Fig. 7
    /// plots.
    pub fn bootstrap_overhead(&self) -> Option<f64> {
        match (self.srun_acquired, self.ready) {
            (Some(a), Some(r)) => Some(r.saturating_since(a).as_secs_f64()),
            _ => None,
        }
    }
}

/// Mutable run state shared between the session and the agent actor
/// (single-threaded engine ⇒ `Rc<RefCell<RunState>>`).
#[derive(Debug, Default)]
pub struct RunState {
    /// Per-task records in first-submission order: one dense table that
    /// moves into [`RunReport::tasks`] as is at the end of the run.
    tasks: Vec<TaskRecord>,
    /// Task descriptions at the same slot as their records. The agent
    /// reads requests and durations from them; the session's metrics fold
    /// reads the configured durations after the run.
    descs: Vec<TaskDescription>,
    /// Uid → slot in `tasks`. [`UidMap`] because every state transition
    /// probes it (the agent's `with_task` funnel): uids are dense, so the
    /// hottest lookup in the pipeline is one bounds check.
    slots: UidMap<u32>,
    /// Backend instance reports.
    pub instances: Vec<InstanceReport>,
    /// Persistent-service records.
    pub services: Vec<ServiceRecord>,
    /// Pilot lifecycle trajectory.
    pub pilot: PilotTrajectory,
    /// Agent bootstrap completion.
    pub agent_ready: Option<SimTime>,
}

impl RunState {
    /// Slot of task `uid` in submission order, if it was ever submitted.
    #[inline]
    pub(crate) fn slot(&self, uid: TaskId) -> Option<usize> {
        self.slots.get(uid.0).map(|&s| s as usize)
    }

    /// The record of task `uid`.
    #[inline]
    pub(crate) fn task(&self, uid: TaskId) -> Option<&TaskRecord> {
        self.slot(uid).map(|s| &self.tasks[s])
    }

    /// Mutable record of task `uid`.
    #[inline]
    pub(crate) fn task_mut(&mut self, uid: TaskId) -> Option<&mut TaskRecord> {
        self.slot(uid).map(|s| &mut self.tasks[s])
    }

    /// The description of submitted task `uid`.
    ///
    /// # Panics
    /// When `uid` was never submitted.
    #[inline]
    pub(crate) fn desc(&self, uid: TaskId) -> &TaskDescription {
        &self.descs[self.slot(uid).expect("submitted task")]
    }

    /// Every description, in submission order (slot-indexed).
    pub(crate) fn descs(&self) -> &[TaskDescription] {
        &self.descs
    }

    /// Admit a submission batch: the first batch becomes the description
    /// table as is (no copy), later ones append, and each task gets a
    /// record at its description's slot, already in `StagingInput`.
    /// Returns the batch's slots.
    ///
    /// # Panics
    /// When a task with the same uid was already submitted.
    pub(crate) fn submit(&mut self, batch: Vec<TaskDescription>, now: SimTime) -> Range<usize> {
        let first = self.descs.len();
        if self.descs.is_empty() {
            self.descs = batch;
        } else {
            self.descs.extend(batch);
        }
        self.tasks.reserve(self.descs.len() - first);
        self.slots.reserve(self.descs.len() - first);
        for desc in &self.descs[first..] {
            let slot = u32::try_from(self.tasks.len()).expect("fewer than 2^32 tasks");
            let prev = self.slots.insert(desc.uid.0, slot);
            assert!(prev.is_none(), "duplicate task uid {}", desc.uid);
            let mut rec = TaskRecord::new(desc, now);
            rec.advance(TaskState::StagingInput, now);
            self.tasks.push(rec);
        }
        first..self.descs.len()
    }

    /// Move the records out, in submission order, trimmed to their length,
    /// and drop the descriptions.
    pub(crate) fn take_tasks(&mut self) -> Vec<TaskRecord> {
        self.slots = UidMap::new();
        self.descs = Vec::new();
        let mut tasks = std::mem::take(&mut self.tasks);
        // Reports outlive the run (sweeps keep many alive at once), so
        // hand back no growth slack.
        tasks.shrink_to_fit();
        tasks
    }
}

/// The immutable result of a finished run.
#[derive(Debug)]
pub struct RunReport {
    /// Pilot size (nodes).
    pub nodes: u32,
    /// Total cores in the pilot.
    pub total_cores: u64,
    /// Total GPUs in the pilot.
    pub total_gpus: u64,
    /// All task records, in submission order.
    pub tasks: Vec<TaskRecord>,
    /// Backend instance reports.
    pub instances: Vec<InstanceReport>,
    /// Persistent-service records.
    pub services: Vec<ServiceRecord>,
    /// Pilot lifecycle trajectory.
    pub pilot: PilotTrajectory,
    /// Agent bootstrap completion.
    pub agent_ready: Option<SimTime>,
    /// Virtual time when the simulation quiesced.
    pub end: SimTime,
    /// Runtime profile, when the session ran with
    /// [`crate::SimSession::with_profiling`].
    pub profile: Option<rp_profiler::ProfileData>,
    /// Metrics snapshot (counters, gauges, histograms), when the
    /// session ran with [`crate::SimSession::with_metrics`].
    pub metrics: Option<rp_metrics::Snapshot>,
    /// Streaming-telemetry capture (time-series ring, flight recorder,
    /// SLO digest), when the session ran with
    /// [`crate::SimSession::with_telemetry`].
    pub telemetry: Option<rp_telemetry::TelemetryData>,
    /// Per-task causal-lineage capture, when the session ran with
    /// [`crate::SimSession::with_lineage`],
    /// [`crate::SimSession::with_profiling`] or
    /// [`crate::SimSession::with_metrics`].
    pub lineage: Option<rp_lineage::LineageData>,
    /// Serving-plane books and client-perceived SLO digest, when the
    /// session ran with [`crate::SimSession::with_serving`].
    pub serving: Option<rp_serving::ServingReport>,
}

impl RunReport {
    /// Records of tasks that completed successfully.
    pub fn done_tasks(&self) -> impl Iterator<Item = &TaskRecord> {
        self.tasks.iter().filter(|t| t.state == TaskState::Done)
    }

    /// Count of permanently failed tasks.
    pub fn failed_count(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.state == TaskState::Failed)
            .count()
    }

    /// Earliest payload start across tasks.
    pub fn first_start(&self) -> Option<SimTime> {
        self.tasks.iter().filter_map(|t| t.exec_start).min()
    }

    /// Latest payload end across tasks.
    pub fn last_end(&self) -> Option<SimTime> {
        self.tasks.iter().filter_map(|t| t.exec_end).max()
    }

    /// Workflow makespan: first submission to last payload end.
    pub fn makespan(&self) -> Option<f64> {
        let first = self.tasks.iter().map(|t| t.submitted).min()?;
        let last = self.last_end()?;
        Some(last.saturating_since(first).as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_overhead() {
        let mut r = InstanceReport {
            kind: BackendKind::Flux,
            partition: 0,
            nodes: 4,
            srun_acquired: Some(SimTime::from_secs(5)),
            ready: Some(SimTime::from_secs(26)),
            killed: false,
        };
        assert_eq!(r.bootstrap_overhead(), Some(21.0));
        r.ready = None;
        assert_eq!(r.bootstrap_overhead(), None);
    }
}
