//! The per-task metric families as a fold over the lineage stream.
//!
//! A metrics session records lineage (every task-state milestone and
//! backend annotation, once); at the end of the run the events are walked
//! in append order and observed into the handles
//! [`crate::agent::SimAgent::attach_metrics`] registered, so each
//! histogram sum adds its samples in the order the events happened.
//!
//! | family | folded from |
//! |---|---|
//! | `rp_task_state_seconds{state}` | gap between consecutive state milestones of a uid, at the later one |
//! | `rp_tasks_{submitted,completed,canceled}_total`, `rp_task_retries_total` | `submit`, `done`, `canceled`, `retry` counts |
//! | `rp_tasks_failed_total` | tasks whose last milestone is `failed` |
//! | `rp_routing_failed_total` | tasks whose last milestone is a `failed` right after `stage_done` |
//! | `rp_routed_total{backend}` | `route` events |
//! | `rp_backend_submitted_total`, `rp_backend_queue_depth` | `backend_queue` events and their `value − 1` |
//! | `rp_backend_queue_wait_seconds` | `backend_queue` → the uid's next `launch_start` |
//! | `rp_backend_contended_submits_total` | Flux: joined a non-empty queue; others: no `launch_start` at the enqueue instant |
//! | `rp_backend_launch_seconds` | `backend_queue` → the uid's next `exec` |
//! | `rp_backend_exec_seconds`, `rp_backend_completed_total` | configured duration, at `term_seen` (or `done` when the agent saw none) |

use crate::agent::state_index;
use crate::backend::BackendKind;
use crate::profile::agent_state;
use crate::report::RunState;
use crate::task::{TaskId, TaskState};
use rp_lineage::{Lineage, NO_BACKEND};
use rp_metrics::{Counter, Histogram, Registry};
use rp_sim::SimTime;

/// The `rp_backend_*` families of one backend kind.
#[derive(Default)]
pub(crate) struct BackendFamilies {
    launch: Histogram,
    queue_wait: Histogram,
    exec: Histogram,
    queue_depth: Histogram,
    contended: Counter,
    submitted: Counter,
    completed: Counter,
}

impl BackendFamilies {
    /// Register the families under `backend`, in export order.
    pub(crate) fn register(reg: &Registry, backend: &str) -> Self {
        let l = [("backend", backend)];
        BackendFamilies {
            launch: reg.histogram(
                "rp_backend_launch_seconds",
                &l,
                "Latency from backend enqueue to the agent seeing the payload start",
            ),
            queue_wait: reg.histogram(
                "rp_backend_queue_wait_seconds",
                &l,
                "Latency from backend enqueue to launch start (srun slot, Flux start-server pop, Dragon dispatch, PRRTE HNP pop)",
            ),
            exec: reg.histogram(
                "rp_backend_exec_seconds",
                &l,
                "Payload execution time as observed by the backend",
            ),
            queue_depth: reg.histogram(
                "rp_backend_queue_depth",
                &l,
                "Backend queue length sampled at each submit",
            ),
            contended: reg.counter(
                "rp_backend_contended_submits_total",
                &l,
                "Submits that joined a non-empty Flux queue, or could not launch at once elsewhere",
            ),
            submitted: reg.counter("rp_backend_submitted_total", &l, "Tasks submitted"),
            completed: reg.counter("rp_backend_completed_total", &l, "Tasks completed"),
        }
    }
}

/// Handles of every family the fold observes into.
pub(crate) struct TaskFamilies {
    /// Dwell-time histogram per task state, indexed by [`state_index`].
    pub(crate) dwell: [Histogram; 9],
    /// Routing decisions per backend kind (`BackendKind as usize`); kinds
    /// without an adapter hold a disabled handle.
    pub(crate) routed: [Counter; 4],
    /// Backend families per kind; undeployed kinds hold disabled handles.
    pub(crate) backends: [BackendFamilies; 4],
    pub(crate) routing_failed: Counter,
    pub(crate) submitted: Counter,
    pub(crate) completed: Counter,
    pub(crate) failed: Counter,
    pub(crate) canceled: Counter,
    pub(crate) retried: Counter,
}

/// Where one task stands in the fold.
#[derive(Clone, Copy)]
struct Cursor {
    /// Time of the task's last state milestone.
    at: SimTime,
    /// State entered at the last milestone, and the one before it.
    state: TaskState,
    prev: TaskState,
    /// Backend of the latest `backend_queue` (or [`NO_BACKEND`]) and its
    /// time; the flags say which of that attempt's `launch_start`, `exec`
    /// and completion were already folded.
    backend: u8,
    queued: SimTime,
    launched: bool,
    started: bool,
    finished: bool,
}

const FRESH: Cursor = Cursor {
    at: SimTime::ZERO,
    state: TaskState::New,
    prev: TaskState::New,
    backend: NO_BACKEND,
    queued: SimTime::ZERO,
    launched: false,
    started: false,
    finished: false,
};

/// Fold `lineage` into `fam`. `state` is the run's task table, still
/// holding the descriptions: events of uids it does not know (meta
/// events) are skipped, and a completion observes its task's configured
/// duration, which each backend sim runs a payload for exactly.
pub(crate) fn fold(lineage: &Lineage, state: &RunState, fam: &TaskFamilies) {
    use rp_lineage::*;
    let descs = state.descs();
    let mut cursors = vec![FRESH; descs.len()];
    // Counters only go up, so contended submits are tallied here first:
    // srun, Dragon and PRRTE count every enqueue and take back those that
    // launch at the same instant.
    let mut contended = [0u64; 4];
    lineage.for_each_in_time_order(|e| {
        let Some(slot) = state.slot(TaskId(e.uid)) else {
            return;
        };
        let c = &mut cursors[slot];
        let since = |t: SimTime| e.t.saturating_since(t).as_secs_f64();
        match e.kind {
            EV_ROUTE => fam.routed[usize::from(e.backend)].inc(),
            EV_BACKEND_QUEUE => {
                let b = usize::from(e.backend);
                fam.backends[b].submitted.inc();
                fam.backends[b].queue_depth.observe((e.value - 1) as f64);
                if b != BackendKind::Flux as usize || e.value > 1 {
                    contended[b] += 1;
                }
                *c = Cursor {
                    backend: e.backend,
                    queued: e.t,
                    launched: false,
                    started: false,
                    finished: false,
                    ..*c
                };
            }
            _ => {}
        }
        let b = usize::from(c.backend);
        if let Some(fb) = fam.backends.get(b) {
            match e.kind {
                EV_LAUNCH_START if !c.launched => {
                    c.launched = true;
                    fb.queue_wait.observe(since(c.queued));
                    if b != BackendKind::Flux as usize && e.t == c.queued {
                        contended[b] -= 1;
                    }
                }
                EV_EXEC if !c.started => {
                    c.started = true;
                    fb.launch.observe(since(c.queued));
                }
                EV_TERM_SEEN | EV_DONE if !c.finished => {
                    c.finished = true;
                    fb.exec.observe(descs[slot].duration.as_secs_f64());
                    fb.completed.inc();
                }
                _ => {}
            }
        }
        let Some(entered) = agent_state(e.kind) else {
            return;
        };
        match e.kind {
            EV_SUBMIT => fam.submitted.inc(),
            EV_DONE => fam.completed.inc(),
            EV_CANCELED => fam.canceled.inc(),
            EV_RETRY => fam.retried.inc(),
            _ => {}
        }
        if e.kind != EV_SUBMIT {
            fam.dwell[state_index(c.state)].observe(since(c.at));
        }
        *c = Cursor {
            at: e.t,
            state: entered,
            prev: c.state,
            ..*c
        };
    });
    for (fb, n) in fam.backends.iter().zip(contended) {
        fb.contended.add(n);
    }
    // A failed task that never retried failed for good; only routing
    // fails a task out of SCHEDULING.
    for c in cursors.iter().filter(|c| c.state == TaskState::Failed) {
        fam.failed.inc();
        if c.prev == TaskState::Scheduling {
            fam.routing_failed.inc();
        }
    }
}
