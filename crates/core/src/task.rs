//! Tasks: descriptions, the RP task state machine, and per-task records.
//!
//! RP models every unit of work — MPI executable, serial binary, or Python
//! function — as a task moving through an explicit state machine; every
//! transition is timestamped in the lineage stream. This is the vocabulary the
//! whole characterization is expressed in: throughput is the rate of
//! `Executing` transitions, utilization integrates `Executing` spans times
//! placement width, overheads are gaps between adjacent transitions.

use crate::backend::BackendKind;
use rp_platform::ResourceRequest;
use rp_sim::{SimDuration, SimTime};
use std::fmt;

/// Unique task identity within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task.{:06}", self.0)
    }
}

/// What the task runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskKind {
    /// A standalone executable (compiled binary / MPI application); launched
    /// via srun or Flux in the paper.
    Executable {
        /// Binary name, for traces.
        name: String,
    },
    /// A named function executed in-process by a pooled worker; Dragon's
    /// native workload.
    Function {
        /// Registered function name.
        name: String,
    },
}

impl TaskKind {
    /// Whether this is a function task.
    pub fn is_function(&self) -> bool {
        matches!(self, TaskKind::Function { .. })
    }

    /// The payload name.
    pub fn name(&self) -> &str {
        match self {
            TaskKind::Executable { name } | TaskKind::Function { name } => name,
        }
    }
}

/// A user-facing task description (RP's `TaskDescription`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDescription {
    /// Unique id (assign via [`crate::session::UidGen`] or manually).
    pub uid: TaskId,
    /// Payload.
    pub kind: TaskKind,
    /// Resource shape.
    pub req: ResourceRequest,
    /// Modeled payload runtime (sim plane). The synthetic workloads use 0 s
    /// (null) or fixed sleeps (dummy), exactly as the paper does.
    pub duration: SimDuration,
    /// Route to a specific backend instead of the router's default.
    pub backend_hint: Option<BackendKind>,
    /// Workflow/stage label for post-hoc analytics (empty if unused).
    pub label: String,
}

impl TaskDescription {
    /// A single-core executable sleep task — the paper's dummy workload
    /// unit.
    pub fn dummy(uid: u64, duration: SimDuration) -> Self {
        TaskDescription {
            uid: TaskId(uid),
            kind: TaskKind::Executable {
                name: "sleep".into(),
            },
            req: ResourceRequest::single(1, 0),
            duration,
            backend_hint: None,
            label: String::new(),
        }
    }

    /// A single-core null task (returns immediately) — the paper's
    /// middleware-stress unit.
    pub fn null(uid: u64) -> Self {
        Self::dummy(uid, SimDuration::ZERO)
    }

    /// A single-core function task.
    pub fn function(uid: u64, name: &str, duration: SimDuration) -> Self {
        TaskDescription {
            uid: TaskId(uid),
            kind: TaskKind::Function { name: name.into() },
            req: ResourceRequest::single(1, 0),
            duration,
            backend_hint: None,
            label: String::new(),
        }
    }
}

/// RP task states (the subset of RP's full machine that is observable in
/// these experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskState {
    /// Accepted by the session.
    New,
    /// Input staging in progress.
    StagingInput,
    /// Waiting for / in the agent scheduler.
    Scheduling,
    /// In the executor adapter, being serialized to a backend.
    Submitting,
    /// Accepted by a backend, waiting to start.
    Submitted,
    /// Payload running.
    Executing,
    /// Finished successfully (terminal).
    Done,
    /// Failed (terminal unless retried).
    Failed,
    /// Canceled by the user (terminal).
    Canceled,
}

impl TaskState {
    /// Whether `self → to` is a legal transition.
    pub fn can_transition(self, to: TaskState) -> bool {
        use TaskState::*;
        match (self, to) {
            (New, StagingInput) => true,
            (StagingInput, Scheduling) => true,
            (Scheduling, Submitting) => true,
            (Submitting, Submitted) => true,
            (Submitted, Executing) => true,
            (Executing, Done) => true,
            // Failure is reachable from any non-terminal state.
            (New | StagingInput | Scheduling | Submitting | Submitted | Executing, Failed) => true,
            // Cancellation likewise.
            (New | StagingInput | Scheduling | Submitting | Submitted | Executing, Canceled) => {
                true
            }
            // Retry: a failed task re-enters the pipeline at staging.
            (Failed, StagingInput) => true,
            _ => false,
        }
    }

    /// Whether the state is terminal (absent retry).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TaskState::Done | TaskState::Failed | TaskState::Canceled
        )
    }
}

/// The session-side record of one task: description digest + timestamps of
/// every transition. This is what RADICAL-Analytics would read.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Task id.
    pub uid: TaskId,
    /// Payload kind digest.
    pub is_function: bool,
    /// Cores the task occupies while executing.
    pub cores: u64,
    /// GPUs the task occupies while executing.
    pub gpus: u64,
    /// Nodes the request spans (ranks for spread placements).
    pub state: TaskState,
    /// Backend that executed (or was executing) the task.
    pub backend: Option<BackendKind>,
    /// Partition index within that backend.
    pub partition: Option<u32>,
    /// Submission time.
    pub submitted: SimTime,
    /// Staging complete.
    pub staged: Option<SimTime>,
    /// Agent-scheduler decision complete.
    pub scheduled: Option<SimTime>,
    /// Backend accepted the task.
    pub backend_accepted: Option<SimTime>,
    /// Payload started.
    pub exec_start: Option<SimTime>,
    /// Payload ended.
    pub exec_end: Option<SimTime>,
    /// Retries consumed.
    pub retries: u32,
    /// Workflow/stage label.
    pub label: String,
}

impl TaskRecord {
    /// Fresh record for a just-submitted task.
    pub fn new(desc: &TaskDescription, now: SimTime) -> Self {
        TaskRecord {
            uid: desc.uid,
            is_function: desc.kind.is_function(),
            cores: desc.req.total_cores(),
            gpus: desc.req.total_gpus(),
            state: TaskState::New,
            backend: None,
            partition: None,
            submitted: now,
            staged: None,
            scheduled: None,
            backend_accepted: None,
            exec_start: None,
            exec_end: None,
            retries: 0,
            label: desc.label.clone(),
        }
    }

    /// Advance the state machine, panicking on illegal transitions (those
    /// are agent bugs, not runtime conditions) and timestamping the
    /// milestone fields.
    pub fn advance(&mut self, to: TaskState, now: SimTime) {
        assert!(
            self.state.can_transition(to),
            "{}: illegal transition {:?} -> {to:?}",
            self.uid,
            self.state
        );
        self.state = to;
        match to {
            TaskState::Scheduling => self.staged = Some(now),
            TaskState::Submitting => self.scheduled = Some(now),
            TaskState::Submitted => self.backend_accepted = Some(now),
            TaskState::Executing => self.exec_start = Some(now),
            TaskState::Done | TaskState::Failed | TaskState::Canceled => {
                if self.state == TaskState::Done || self.exec_start.is_some() {
                    self.exec_end.get_or_insert(now);
                }
            }
            TaskState::New | TaskState::StagingInput => {}
        }
    }

    /// Executed span, if the task ran to completion.
    pub fn exec_span(&self) -> Option<SimDuration> {
        match (self.exec_start, self.exec_end) {
            (Some(s), Some(e)) => Some(e.saturating_since(s)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_transitions() {
        let desc = TaskDescription::dummy(1, SimDuration::from_secs(10));
        let mut rec = TaskRecord::new(&desc, SimTime::ZERO);
        let path = [
            TaskState::StagingInput,
            TaskState::Scheduling,
            TaskState::Submitting,
            TaskState::Submitted,
            TaskState::Executing,
            TaskState::Done,
        ];
        for (i, s) in path.iter().enumerate() {
            rec.advance(*s, SimTime::from_secs(i as u64 + 1));
        }
        assert_eq!(rec.state, TaskState::Done);
        assert_eq!(rec.exec_start, Some(SimTime::from_secs(5)));
        assert_eq!(rec.exec_end, Some(SimTime::from_secs(6)));
        assert_eq!(rec.exec_span(), Some(SimDuration::from_secs(1)));
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn skipping_states_panics() {
        let desc = TaskDescription::null(1);
        let mut rec = TaskRecord::new(&desc, SimTime::ZERO);
        rec.advance(TaskState::Executing, SimTime::ZERO);
    }

    #[test]
    fn failure_from_any_live_state() {
        for mid in [
            TaskState::New,
            TaskState::StagingInput,
            TaskState::Scheduling,
        ] {
            assert!(mid.can_transition(TaskState::Failed), "{mid:?}");
        }
        assert!(!TaskState::Done.can_transition(TaskState::Failed));
    }

    #[test]
    fn retry_reenters_at_staging() {
        assert!(TaskState::Failed.can_transition(TaskState::StagingInput));
        assert!(!TaskState::Failed.can_transition(TaskState::Executing));
    }

    #[test]
    fn terminal_flags() {
        assert!(TaskState::Done.is_terminal());
        assert!(TaskState::Failed.is_terminal());
        assert!(!TaskState::Executing.is_terminal());
    }

    #[test]
    fn description_helpers() {
        let f = TaskDescription::function(2, "inference", SimDuration::ZERO);
        assert!(f.kind.is_function());
        assert_eq!(f.kind.name(), "inference");
        let n = TaskDescription::null(3);
        assert!(n.duration.is_zero());
        assert_eq!(n.req.total_cores(), 1);
    }
}
