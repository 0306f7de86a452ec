//! The RP Agent (sim plane): one engine actor orchestrating the full task
//! pipeline across concurrently deployed runtime backends.
//!
//! Pipeline, mirroring Fig. 1: task submission → input staging (N
//! concurrent stagers) → agent scheduler (one decision server whose cost
//! grows with partition count and pilot size — the coordination overhead
//! behind `flux_n`'s diminishing returns) → per-backend executor adapter
//! (the serialization servers whose combined rate is the paper's ≈1,550 t/s
//! "RP task-management" ceiling) → backend submit.
//!
//! Backends run as reactive sub-machines owned by the agent: a site-wide
//! [`SrunSim`] (which also carries every instance bootstrap on a
//! persistent slot, so instance count interacts with the 112-step ceiling
//! exactly as on Frontier) and one table of runtime instances over
//! disjoint node partitions — [`FluxInstanceSim`]s, [`DragonSim`]s and
//! PRRTE DVMs (`Instance`). Task state transitions are driven by
//! their emitted events, never by polling — the event-driven integration
//! of §3.2.

use crate::backend::{BackendKind, BackendSpec, ALL_BACKENDS};
use crate::config::PilotConfig;
use crate::metrics::{BackendFamilies, TaskFamilies};
use crate::pilot::PilotState;
use crate::report::{InstanceReport, RunState};
use crate::router::{Router, RoutingPolicy};
use crate::service::{ServiceDescription, ServiceRecord};
use crate::task::{TaskDescription, TaskId, TaskRecord, TaskState};
use crate::workload::{ResourceView, WorkloadSource};
use rp_chaos::{FaultAction, FaultPlan, RecoveryPolicy};
use rp_dragonrt::{DragonSim, DragonTask};
use rp_fluxrt::{EasyBackfill, Fcfs, FluxInstanceSim, JobId, JobSpec, SchedPolicy};
use rp_lineage::Lineage;
use rp_metrics::{Counter as MCounter, Gauge as MGauge, Histogram as MHistogram, Registry};
use rp_platform::{Allocation, Calibration, Cluster, Placement, ResourcePool, ResourceRequest};
use rp_profiler::{Phase, ProfileData, Sym, NO_UID};
use rp_prrte::{PrrteDvm, PrrteTask};
use rp_serving::{ServingOutcome, ServingState, ServingTaskKind};
use rp_sim::{Action, Actor, Ctx, Dist, FxHashMap, RngStream, SimTime, Token, UidMap};
use rp_slurm::{SrunSim, StepId, StepRequest};
use rp_telemetry::{SampleInput, Severity, Telemetry};
use std::collections::VecDeque;

/// Infra step-id base for instance carriers: the srun step carrying
/// instance `i` (its flat index in the instance table) is `INFRA_BASE + i`.
const INFRA_BASE: u64 = 1 << 62;

/// Messages driving the agent actor.
#[derive(Debug)]
pub enum AgentMsg {
    /// Start the pilot (schedule agent bootstrap).
    Init,
    /// Agent bootstrap finished; deploy backends and pull initial workload.
    BootstrapDone,
    /// Externally injected tasks (beyond the workload source).
    Submit(Vec<TaskDescription>),
    /// A stager finished staging this task.
    StagerDone(TaskId),
    /// The agent scheduler finished deciding this task.
    SchedDone(TaskId),
    /// The executor adapter finished serializing this task.
    AdapterDone(BackendKind, TaskId),
    /// A sub-agent's scheduler finished deciding this task.
    SubSchedDone(u32, TaskId),
    /// A sub-agent's adapter finished serializing this task.
    SubAdapterDone(u32, TaskId),
    /// Site srun timer.
    Srun(Token),
    /// Runtime instance timer (flat instance index).
    Instance(u32, Token),
    /// The backend-kind watcher thread finished processing one event.
    WatcherDone(BackendKind),
    /// Cancel tasks (best effort; running payloads finish).
    CancelTasks(Vec<TaskId>),
    /// A scheduled chaos-plan action fires (node/backend fault or its
    /// paired recovery transition).
    Fault(FaultAction),
    /// Watchdog check for a possibly hung task (scheduled at its
    /// swallowed launch; fires the hang fault if it never progressed).
    Watchdog(TaskId),
    /// A backoff-delayed fault retry re-enters the staging queue.
    RetryFire(TaskId),
    /// An open-loop serving batch arrives (index into the serving plan's
    /// batch list).
    ServingArrive(u32),
}

/// An event awaiting the watcher thread of a backend kind.
#[derive(Debug, Clone, Copy)]
enum WatcherEvent {
    /// Payload started (⇒ task Executing); carries the flat instance
    /// index for Dragon flow-control feeding.
    Exec(TaskId, u32),
    /// Payload finished (⇒ task Done + workload feedback).
    Term(TaskId),
}

/// Executor-adapter server state for one backend kind.
struct Adapter {
    q: VecDeque<TaskId>,
    busy: bool,
    cost: Dist,
}

/// One per-partition sub-agent pipeline: its own scheduler and executor
/// adapter servers (§4.1.2). Sub-agent `i` manages instance `i`.
struct SubAgent {
    kind: BackendKind,
    sched_q: VecDeque<TaskId>,
    sched_busy: bool,
    sched_cost: Dist,
    adapter_q: VecDeque<TaskId>,
    adapter_busy: bool,
    adapter_cost: Dist,
}

/// Resources held by a running service.
struct ServiceHold {
    /// Index into `RunState::services`.
    report_idx: usize,
    /// Flat index of the hosting instance.
    instance: usize,
    /// Flux/PRRTE: the reserved placement.
    placement: Option<Placement>,
    /// Dragon: the reserved workers.
    workers: u64,
}

/// A PRRTE DVM partition: RP-side placement (PRRTE has no scheduler) plus
/// the DVM launch machine.
struct PrrteBackend {
    dvm: PrrteDvm,
    pool: ResourcePool,
    waiting: VecDeque<TaskId>,
    placements: UidMap<Placement>,
    /// Head task already blamed for the current RP-side placement stall
    /// (one lineage PLACE_REJECT per distinct blocked head).
    lin_reject: Option<u64>,
}

impl PrrteBackend {
    /// Return task `id`'s RP-held placement (if any) to the pool.
    fn release(&mut self, id: u64) {
        if let Some(pl) = self.placements.remove(id) {
            self.pool.free(&pl);
        }
    }
}

/// One deployed runtime instance over its own node partition. The agent
/// keeps every instance in one table in kind-grouped order — flux, then
/// dragon, then prrte — which is also the chaos plan's partition order,
/// the profile's `flux.N`/`dragon.N`/`prrte.N` track order, the sub-agent
/// order and the carrier launch order: the flat index is the one name of
/// an instance.
struct Instance {
    /// Index into `RunState::instances` (spec order).
    report: usize,
    /// Partition number within the kind.
    part: u32,
    machine: Machine,
}

/// The backend sub-machine an instance runs.
enum Machine {
    Flux(FluxInstanceSim),
    /// Dragon plus the agent's flow control for its pipe: `inflight` tasks
    /// submitted and not yet started, `parked` tasks waiting for window
    /// space.
    Dragon {
        sim: DragonSim,
        alloc: Allocation,
        inflight: usize,
        parked: VecDeque<TaskId>,
    },
    Prrte(PrrteBackend),
}

impl Instance {
    fn kind(&self) -> BackendKind {
        match self.machine {
            Machine::Flux(_) => BackendKind::Flux,
            Machine::Dragon { .. } => BackendKind::Dragon,
            Machine::Prrte(_) => BackendKind::Prrte,
        }
    }

    fn is_alive(&self) -> bool {
        match &self.machine {
            Machine::Flux(f) => f.is_alive(),
            Machine::Dragon { sim, .. } => sim.is_alive(),
            Machine::Prrte(pb) => pb.dvm.is_alive(),
        }
    }

    /// Nodes in the partition.
    fn nodes(&self) -> u32 {
        match &self.machine {
            Machine::Flux(f) => f.allocation().count,
            Machine::Dragon { alloc, .. } => alloc.count,
            Machine::Prrte(pb) => pb.pool.node_count() as u32,
        }
    }

    /// Cores (Dragon: workers) the instance runs tasks on.
    fn capacity(&self) -> u64 {
        match &self.machine {
            Machine::Flux(f) => f.allocation().total_cores(),
            Machine::Dragon { sim, .. } => sim.worker_capacity(),
            Machine::Prrte(pb) => pb.pool.total_cores(),
        }
    }

    /// `(busy cores, busy gpus)`; Dragon reports busy workers and no GPUs.
    fn busy(&self) -> (u64, u64) {
        match &self.machine {
            Machine::Flux(f) => (f.busy_cores(), f.busy_gpus()),
            Machine::Dragon { sim, .. } => (sim.busy_workers(), 0),
            Machine::Prrte(pb) => (
                pb.pool.total_cores() - pb.pool.free_cores(),
                pb.pool.total_gpus() - pb.pool.free_gpus(),
            ),
        }
    }

    /// Tasks queued inside the backend itself.
    fn queued(&self) -> usize {
        match &self.machine {
            Machine::Flux(f) => f.queued_count(),
            Machine::Dragon { sim, .. } => sim.queued(),
            Machine::Prrte(pb) => pb.dvm.queued(),
        }
    }

    /// Deepest the backend queue has ever been.
    fn queued_peak(&self) -> usize {
        match &self.machine {
            Machine::Flux(f) => f.queued_peak(),
            Machine::Dragon { sim, .. } => sim.queued_peak(),
            Machine::Prrte(pb) => pb.dvm.queued_peak(),
        }
    }

    /// Backlog (agent-side waiting + backend queued + running) per unit
    /// of capacity: the least-loaded router's pressure.
    fn pressure(&self) -> f64 {
        let backlog = match &self.machine {
            Machine::Flux(f) => f.queued_count() + f.running_count(),
            Machine::Dragon { sim, parked, .. } => {
                sim.queued() + parked.len() + sim.busy_workers() as usize
            }
            Machine::Prrte(pb) => pb.waiting.len() + pb.dvm.queued() + pb.dvm.running_count(),
        };
        backlog as f64 / self.capacity().max(1) as f64
    }

    /// This partition's share of a workload's resource view: its totals,
    /// and its free capacity while alive.
    fn view_share(&self) -> ViewShare {
        let (total_cores, total_gpus, free_cores, free_gpus) = match &self.machine {
            Machine::Flux(f) => {
                let (cores, gpus) = (f.allocation().total_cores(), f.allocation().total_gpus());
                (cores, gpus, cores - f.busy_cores(), gpus - f.busy_gpus())
            }
            // Dragon manages GPUs implicitly; count its partition's GPUs as
            // available for sizing purposes.
            Machine::Dragon { sim, alloc, .. } => (
                alloc.total_cores(),
                alloc.total_gpus(),
                sim.worker_capacity() - sim.busy_workers(),
                alloc.total_gpus(),
            ),
            Machine::Prrte(pb) => (
                pb.pool.total_cores(),
                pb.pool.total_gpus(),
                pb.pool.free_cores(),
                pb.pool.free_gpus(),
            ),
        };
        let alive = self.is_alive();
        ViewShare {
            free_cores: if alive { free_cores } else { 0 },
            free_gpus: if alive { free_gpus } else { 0 },
            total_cores,
            total_gpus,
        }
    }

    fn attach_lineage(&mut self, lin: Lineage) {
        match &mut self.machine {
            Machine::Flux(f) => f.attach_lineage(lin, self.part),
            Machine::Dragon { sim, .. } => sim.attach_lineage(lin, self.part),
            Machine::Prrte(pb) => pb.dvm.attach_lineage(lin, self.part),
        }
    }

    /// Crash the backend and return every task it held, agent-side queues
    /// included.
    fn kill(&mut self) -> Vec<TaskId> {
        match &mut self.machine {
            Machine::Flux(f) => f.kill().into_iter().map(|JobId(id)| TaskId(id)).collect(),
            Machine::Dragon {
                sim,
                inflight,
                parked,
                ..
            } => {
                let mut lost: Vec<TaskId> = sim.kill().into_iter().map(TaskId).collect();
                lost.extend(parked.drain(..));
                *inflight = 0;
                lost
            }
            Machine::Prrte(pb) => {
                let mut lost: Vec<TaskId> = pb.dvm.kill().into_iter().map(TaskId).collect();
                // RP placed the DVM's tasks: their cores go back to the
                // partition's pool for the restarted DVM.
                for t in &lost {
                    pb.release(t.0);
                }
                pb.placements.clear();
                lost.extend(pb.waiting.drain(..));
                lost
            }
        }
    }

    /// Reserve `req` for a persistent service: `(placement, workers)`.
    fn reserve(&mut self, req: &ResourceRequest) -> Option<(Option<Placement>, u64)> {
        match &mut self.machine {
            Machine::Flux(f) => f.reserve(req).map(|pl| (Some(pl), 0)),
            Machine::Dragon { sim, .. } => {
                let workers = req.total_cores().max(1);
                sim.reserve_workers(workers).then_some((None, workers))
            }
            Machine::Prrte(pb) => pb.pool.try_alloc(req).map(|pl| (Some(pl), 0)),
        }
    }

    /// Return a stopped service's resources.
    fn release(&mut self, hold: &ServiceHold) {
        match (&mut self.machine, &hold.placement) {
            (Machine::Flux(f), Some(pl)) => f.release_reservation(pl),
            (Machine::Dragon { sim, .. }, _) => sim.release_workers(hold.workers),
            (Machine::Prrte(pb), Some(pl)) => pb.pool.free(pl),
            _ => {}
        }
    }

    /// Boot the backend — the first time, or after a chaos crash — over
    /// its allocation minus the nodes `down` marks (the agent's mask for
    /// this instance; empty when no fault plan is armed).
    fn boot(&mut self, down: &[bool], out: &mut Vec<Action>) {
        match &mut self.machine {
            Machine::Flux(f) => f.boot(down, out),
            Machine::Dragon { sim, .. } => sim.boot(down, out),
            Machine::Prrte(pb) => {
                // RP's pool outlives the DVM, but heard of no node
                // transition while the DVM was down.
                pb.pool.set_down_mask(down);
                pb.dvm.boot(out);
            }
        }
    }

    /// Deliver one of the backend's timer tokens.
    fn on_token(&mut self, now: SimTime, token: Token, out: &mut Vec<Action>) {
        match &mut self.machine {
            Machine::Flux(f) => f.on_token(now, token, out),
            Machine::Dragon { sim, .. } => sim.on_token(now, token, out),
            Machine::Prrte(pb) => pb.dvm.on_token(now, token, out),
        }
    }

    /// Take partition node `node` of this live backend down and reap every
    /// task resident there; returns the victims' uids, sorted. The agent's
    /// mask has already marked the node down.
    fn fail_node(&mut self, now: SimTime, node: u32, out: &mut Vec<Action>) -> Vec<u64> {
        match &mut self.machine {
            Machine::Flux(f) => f
                .fail_node(now, node, out)
                .into_iter()
                .map(|JobId(id)| id)
                .collect(),
            Machine::Dragon { sim, .. } => sim.fail_node(node, out),
            Machine::Prrte(pb) => {
                pb.pool.node_down(node as usize);
                // The DVM has no node model — placement lives with the
                // agent (§5), so victim selection does too: every resident
                // whose placement touches the node is reaped.
                let victims: Vec<u64> = pb
                    .dvm
                    .resident_ids()
                    .into_iter()
                    .filter(|id| {
                        pb.placements
                            .get(*id)
                            .is_some_and(|pl| pl.ranks.iter().any(|r| r.node_idx == node))
                    })
                    .collect();
                for &id in &victims {
                    // Down-node ranks park inside the pool; surviving
                    // ranks free normally.
                    pb.release(id);
                    pb.dvm.reap(id);
                }
                victims
            }
        }
    }

    /// Bring partition node `node` of this live backend back.
    fn node_up(&mut self, now: SimTime, node: u32, out: &mut Vec<Action>) {
        match &mut self.machine {
            Machine::Flux(f) => f.node_up(now, node, out),
            Machine::Dragon { sim, .. } => sim.node_up(node, out),
            Machine::Prrte(pb) => {
                pb.pool.node_up(node as usize);
            }
        }
    }
}

/// One instance's contribution to a workload's [`ResourceView`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ViewShare {
    free_cores: u64,
    free_gpus: u64,
    total_cores: u64,
    total_gpus: u64,
}

impl ViewShare {
    fn plus(self, o: ViewShare) -> ViewShare {
        ViewShare {
            free_cores: self.free_cores + o.free_cores,
            free_gpus: self.free_gpus + o.free_gpus,
            total_cores: self.total_cores + o.total_cores,
            total_gpus: self.total_gpus + o.total_gpus,
        }
    }

    fn minus(self, o: ViewShare) -> ViewShare {
        ViewShare {
            free_cores: self.free_cores - o.free_cores,
            free_gpus: self.free_gpus - o.free_gpus,
            total_cores: self.total_cores - o.total_cores,
            total_gpus: self.total_gpus - o.total_gpus,
        }
    }
}

/// The instances' [`ViewShare`]s and their sum, kept incrementally: the
/// workload view is read at every terminal task, and a hybrid pilot has
/// dozens of instances of which a task touches one or two. Every site
/// that can change an instance's capacity or liveness [marks](Self::mark)
/// it, and a read re-sums only the marked instances.
struct ViewCache {
    shares: Vec<ViewShare>,
    sum: ViewShare,
    marked: Vec<bool>,
    /// The marked instances, each once.
    stale: Vec<usize>,
}

impl ViewCache {
    /// A cache over `n` instances, all marked.
    fn new(n: usize) -> Self {
        ViewCache {
            shares: vec![ViewShare::default(); n],
            sum: ViewShare::default(),
            marked: vec![true; n],
            stale: (0..n).collect(),
        }
    }

    fn mark(&mut self, i: usize) {
        if !std::mem::replace(&mut self.marked[i], true) {
            self.stale.push(i);
        }
    }

    /// The summed shares, re-reading the marked instances.
    fn sum(&mut self, instances: &[Instance]) -> ViewShare {
        for i in self.stale.drain(..) {
            self.marked[i] = false;
            let share = instances[i].view_share();
            let old = std::mem::replace(&mut self.shares[i], share);
            self.sum = self.sum.minus(old).plus(share);
        }
        self.sum
    }
}

/// Executor-adapter serialization cost for `kind`.
fn adapter_cost(cal: &Calibration, kind: BackendKind) -> Dist {
    match kind {
        BackendKind::Srun => cal.rp_srun_adapter.clone(),
        BackendKind::Flux => cal.rp_flux_adapter.clone(),
        BackendKind::Dragon => cal.rp_dragon_adapter.clone(),
        BackendKind::Prrte => cal.rp_prrte_adapter.clone(),
    }
}

/// The srun execution backend: agent-side capacity accounting plus the
/// site launcher. srun places at node granularity itself, so RP tracks
/// aggregate capacity (optionally oversubscribed, Table 1's "4 tasks per
/// core") rather than per-core placements.
struct SrunBackend {
    free_core_slots: u64,
    free_gpus: u64,
    total_core_slots: u64,
    oversubscribe: u64,
    waiting: VecDeque<TaskId>,
    holds: UidMap<(u64, u64)>,
    /// Head task already blamed for the current capacity stall (one
    /// lineage PLACE_REJECT per distinct blocked head).
    lin_reject: Option<u64>,
}

impl SrunBackend {
    /// Return the capacity the agent holds for task `id` (if any).
    fn release(&mut self, id: u64) {
        if let Some((cores, gpus)) = self.holds.remove(id) {
            self.free_core_slots += cores;
            self.free_gpus += gpus;
        }
    }
}

/// Blame an agent-side placer's blocked queue head (srun capacity, a
/// PRRTE partition's pool) in lineage, once per distinct head: `blamed`
/// holds the head blamed last. The reason is short of cores, else short
/// of GPUs, else fragmentation; `free` is the placer's free
/// `(cores, gpus)`, and the event carries its free cores.
fn blame_stall(
    l: &Lineage,
    blamed: &mut Option<u64>,
    uid: u64,
    req: &ResourceRequest,
    (free_cores, free_gpus): (u64, u64),
    (kind, part): (BackendKind, u32),
) {
    if *blamed == Some(uid) {
        return;
    }
    *blamed = Some(uid);
    let reason = if req.total_cores() > free_cores {
        rp_lineage::REJ_INSUFFICIENT_CORES
    } else if req.total_gpus() > free_gpus {
        rp_lineage::REJ_INSUFFICIENT_GPUS
    } else {
        rp_lineage::REJ_FRAGMENTATION
    };
    l.record_ctx(
        uid,
        rp_lineage::EV_PLACE_REJECT,
        reason,
        kind as u8,
        part,
        free_cores,
    );
}

/// An agent-side placer granted `uid`: record it (the event carries the
/// cores granted) and clear the stall blame.
fn note_placed(
    l: &Lineage,
    blamed: &mut Option<u64>,
    uid: u64,
    req: &ResourceRequest,
    (kind, part): (BackendKind, u32),
) {
    *blamed = None;
    l.record_ctx(
        uid,
        rp_lineage::EV_PLACE_OK,
        rp_lineage::NO_DETAIL,
        kind as u8,
        part,
        req.total_cores(),
    );
}

/// Dense index of a task state (dwell histograms, telemetry populations).
pub(crate) fn state_index(s: TaskState) -> usize {
    match s {
        TaskState::New => 0,
        TaskState::StagingInput => 1,
        TaskState::Scheduling => 2,
        TaskState::Submitting => 3,
        TaskState::Submitted => 4,
        TaskState::Executing => 5,
        TaskState::Done => 6,
        TaskState::Failed => 7,
        TaskState::Canceled => 8,
    }
}

/// RP-profile event name for a task state.
pub(crate) fn state_event_name(s: TaskState) -> &'static str {
    match s {
        TaskState::New => "NEW",
        TaskState::StagingInput => "STAGING_INPUT",
        TaskState::Scheduling => "SCHEDULING",
        TaskState::Submitting => "SUBMITTING",
        TaskState::Submitted => "SUBMITTED",
        TaskState::Executing => "EXECUTING",
        TaskState::Done => "DONE",
        TaskState::Failed => "FAILED",
        TaskState::Canceled => "CANCELED",
    }
}

/// The profile's gauge tracks (built by [`SimAgent::attach_profile`]):
/// each profile sample appends its rows to `data`.
struct ProfileGauges {
    data: ProfileData,
    /// The `agent` and `srun` tracks, then the gauge names, in
    /// [`SimAgent::attach_profile`]'s order.
    names: [Sym; 7],
    /// One `kind.partition` track per instance, in instance-table order.
    parts: Vec<Sym>,
}

/// Directly observed metrics of the agent pipeline (built by
/// [`SimAgent::attach_metrics`]): the sampled server costs and the live
/// gauges, which have no lineage counterpart. The per-task families are
/// folded from lineage after the run (`crate::metrics`).
struct AgentMetrics {
    reg: Registry,
    /// Pipeline server service times (sampled cost, not queue wait —
    /// queueing shows up in the state dwell histograms).
    stage_seconds: MHistogram,
    sched_seconds: MHistogram,
    /// Adapter service time per backend kind, indexed by
    /// `BackendKind as usize`. Kinds without an adapter hold a disabled
    /// (default) handle, so the per-event path is an unconditional array
    /// index — no keyed map probe per observation.
    adapter_seconds: [MHistogram; 4],
    watcher_seconds: MHistogram,
    /// Pipeline gauges, set once from the end-of-run gauge snapshot.
    queue_depth: MGauge,
    srun_inflight: MGauge,
    busy_cores: MGauge,
    busy_gpus: MGauge,
    /// Queue depth and partition utilization at each metrics sample.
    depth_sampled: MHistogram,
    util_sampled: MHistogram,
}

/// Chaos-plane run state, present only when fault injection is armed via
/// [`SimAgent::enable_faults`] — faults-off runs carry `None` and stay
/// byte-identical to a chaos-free build (no extra RNG draws, no extra
/// metric series, no extra events).
struct ChaosState {
    /// The realized fault plan (all randomness drawn up front from its
    /// own seed, never from the workload/backend streams).
    plan: FaultPlan,
    /// Placement each fault-failed task should avoid on its next routing
    /// decision (`ResubmitElsewhere` policy), keyed by uid. Point
    /// lookups only — never iterated — so determinism is unaffected.
    avoid: FxHashMap<u64, (BackendKind, u32)>,
    /// Tasks that found no live partition while a restart/restore was
    /// still pending: they wait here (in submission order) and re-stage
    /// when capacity returns, instead of failing permanently.
    parked: Vec<TaskId>,
    /// Fault counters, registered lazily by `enable_faults` so the
    /// OpenMetrics text of a faults-off run is unchanged.
    counters: Option<ChaosCounters>,
    /// Node health, decided here and only obeyed by the backends: one
    /// down-node mask per fault partition — each instance, in table
    /// order, or on srun-only pilots the srun allocation as partition 0.
    /// A backend hears of a transition only while it is alive; its
    /// (re)boot builds capacity from the allocation minus its mask.
    down: Vec<Vec<bool>>,
}

/// Metrics instruments for the chaos plane (faults-on runs only).
struct ChaosCounters {
    /// Injected fault events by kind, indexed by the lineage fault codes
    /// (`FAULT_NODE` / `FAULT_CRASH` / `FAULT_HANG`).
    faults: [MCounter; 3],
    /// Fault-failed tasks resubmitted by the recovery policy.
    recoveries: MCounter,
    /// Tasks the recovery policy abandoned (give-up or retry budget).
    given_up: MCounter,
}

/// The simulated agent actor.
pub struct SimAgent {
    cfg: PilotConfig,
    router: Router,
    /// The run's records: the session takes them back with
    /// [`Self::into_parts`] after the run.
    state: RunState,
    rng: RngStream,

    // Pipeline servers.
    stage_q: VecDeque<TaskId>,
    stagers_free: usize,
    stage_cost: Dist,
    sched_q: VecDeque<TaskId>,
    sched_busy: bool,
    sched_cost: Dist,
    /// Executor adapters, indexed by `BackendKind as usize` (probed on
    /// every SchedDone/AdapterDone, so a flat array beats a map).
    adapters: [Option<Adapter>; 4],
    /// Per-partition sub-agents (empty unless `cfg.sub_agents`).
    subs: Vec<SubAgent>,

    // Backends.
    site_srun: SrunSim,
    srun_backend: Option<SrunBackend>,
    /// Every runtime instance, in kind-grouped flat order (see
    /// [`Instance`]).
    instances: Vec<Instance>,
    /// The instances' part of the workload view (see [`ViewCache`]).
    view: ViewCache,
    /// Flat index of each kind's first instance, indexed by
    /// `BackendKind as usize`; kind `k` owns `first[k]..first[k + 1]`
    /// (srun owns none).
    first: [usize; 5],

    assignment: UidMap<(BackendKind, u32)>,
    /// Tasks submitted but not yet terminal; when this drains to zero the
    /// agent stops persistent services.
    outstanding: usize,
    /// Pending service descriptions (started at pilot activation) and the
    /// resources held by running services.
    pending_services: Vec<ServiceDescription>,
    service_holds: Vec<ServiceHold>,
    /// Backend instances still booting. The pilot goes ACTIVE — and the
    /// agent scheduler starts releasing tasks — only when this reaches
    /// zero, matching RP's pilot lifecycle.
    instances_pending: usize,
    /// Per-backend watcher threads: serial event servers (Fig. 3's watcher;
    /// the Flux event subscription consumer of Fig. 2).
    watcher_q: [VecDeque<WatcherEvent>; 4],
    watcher_busy: [bool; 4],
    watcher_cost: Dist,
    /// Flow-control window of each Dragon instance's pipe.
    dragon_window: usize,
    workload: Box<dyn WorkloadSource>,
    /// Round-robin cursors, indexed by `BackendKind as usize`.
    rr: [usize; 4],
    /// Reusable backend action buffers. Backends append into one (out-param
    /// API) and the action routers drain it, so steady-state event
    /// handling allocates nothing. [`Self::take_scratch`] pops a buffer
    /// and [`Self::restore_scratch`] pushes it back after the drain; a
    /// reentrant call (a carrier's boot inside the srun router, a PRRTE
    /// or srun completion pumping its placer) pops the next one, so the
    /// pool holds one buffer per nesting level and never reallocates.
    scratch: Vec<Vec<Action>>,
    /// Cores (Dragon: workers) deployed across the non-srun partitions at
    /// start: the fixed denominator of the sampled utilization figures.
    capacity: f64,
    /// Profile gauge tracks (None unless [`Self::attach_profile`] ran).
    profile: Option<ProfileGauges>,
    /// Metrics instruments (None unless [`Self::attach_metrics`] ran).
    metrics: Option<AgentMetrics>,
    /// Streaming telemetry (None unless [`Self::attach_telemetry`] ran).
    telemetry: Option<Telemetry>,
    /// Cached `Telemetry::straggler_sample_mask` — the transition funnel
    /// only assembles backend/partition context for sampled uids.
    tel_sample_mask: u64,
    /// Causal-lineage recorder (None unless [`Self::attach_lineage`] ran).
    /// Untracked runs pay exactly one `Option` check per hook site.
    lineage: Option<Lineage>,
    /// Fault-injection plane (None unless [`Self::enable_faults`] ran).
    chaos: Option<ChaosState>,
    /// Open-loop serving plane (None unless [`Self::enable_serving`] ran).
    /// Batch runs pay exactly one `Option` check per hook site.
    serving: Option<ServingState>,
}

impl SimAgent {
    /// Build the agent for `cfg`, feeding from `workload`.
    pub fn new(cfg: PilotConfig, workload: Box<dyn WorkloadSource>) -> Self {
        cfg.validate();
        let mut cluster = Cluster::new(rp_platform::frontier());
        let alloc = cluster
            .allocate(cfg.nodes)
            .expect("machine too small for pilot");
        let cal = cfg.cal.clone();
        let mut rng = RngStream::derive(cfg.seed, "agent");

        let router = Router::new(cfg.backends.iter().map(|b| b.kind()).collect());
        let total_partitions = cfg.total_instances();

        let srun_backend = cfg.has_backend(BackendKind::Srun).then(|| {
            let oversubscribe = cfg.srun_oversubscribe.max(1) as u64;
            let slots = alloc.total_cores() * oversubscribe;
            SrunBackend {
                free_core_slots: slots,
                free_gpus: alloc.total_gpus(),
                total_core_slots: slots,
                oversubscribe,
                waiting: VecDeque::new(),
                holds: UidMap::default(),
                lin_reject: None,
            }
        });
        // Partition the allocation across all non-srun instances and draw
        // their seeds in spec order (srun spans everything), then group
        // the table by kind.
        let mut instances = Vec::new();
        let mut state = RunState::default();
        let non_srun = if srun_backend.is_some() {
            0
        } else {
            total_partitions
        };
        let mut parts = if non_srun > 0 {
            alloc.partition(non_srun)
        } else {
            Vec::new()
        }
        .into_iter();
        for spec in &cfg.backends {
            for part in 0..spec.partitions() {
                let mut next = || (parts.next().expect("enough partitions"), rng.next_u64());
                let machine = match *spec {
                    BackendSpec::Srun => break,
                    BackendSpec::Flux { backfill, .. } => {
                        let (alloc, seed) = next();
                        let policy: Box<dyn SchedPolicy> = if backfill {
                            Box::new(EasyBackfill::default())
                        } else {
                            Box::new(Fcfs)
                        };
                        Machine::Flux(FluxInstanceSim::new(alloc, &cal, policy, seed))
                    }
                    BackendSpec::Dragon { .. } => {
                        let (alloc, seed) = next();
                        Machine::Dragon {
                            sim: DragonSim::new(&alloc, &cal, seed),
                            alloc,
                            inflight: 0,
                            parked: VecDeque::new(),
                        }
                    }
                    BackendSpec::Prrte { .. } => {
                        let (alloc, seed) = next();
                        Machine::Prrte(PrrteBackend {
                            dvm: PrrteDvm::new(&alloc, &cal, seed),
                            pool: alloc.pool(),
                            waiting: VecDeque::new(),
                            placements: UidMap::default(),
                            lin_reject: None,
                        })
                    }
                };
                let inst = Instance {
                    report: state.instances.len(),
                    part,
                    machine,
                };
                state.instances.push(InstanceReport {
                    kind: spec.kind(),
                    partition: part,
                    nodes: inst.nodes(),
                    srun_acquired: None,
                    ready: None,
                    killed: false,
                });
                instances.push(inst);
            }
        }
        instances.sort_by_key(Instance::kind);
        let first = [0, 1, 2, 3, 4].map(|k| instances.partition_point(|x| (x.kind() as usize) < k));

        let mut adapters: [Option<Adapter>; 4] = [None, None, None, None];
        for spec in &cfg.backends {
            adapters[spec.kind() as usize] = Some(Adapter {
                q: VecDeque::new(),
                busy: false,
                cost: adapter_cost(&cal, spec.kind()),
            });
        }

        // Per-partition sub-agent pipelines, one per instance. A
        // sub-agent's scheduler pays only partition-local cost (no
        // cross-partition term); its adapter matches its backend kind.
        let subs: Vec<SubAgent> = if cfg.sub_agents {
            instances
                .iter()
                .map(|inst| SubAgent {
                    kind: inst.kind(),
                    sched_q: VecDeque::new(),
                    sched_busy: false,
                    sched_cost: cal.rp_sched_cost(1, inst.nodes()),
                    adapter_q: VecDeque::new(),
                    adapter_busy: false,
                    adapter_cost: adapter_cost(&cal, inst.kind()),
                })
                .collect()
        } else {
            Vec::new()
        };
        let stagers_free = cfg.stager_concurrency.max(1);
        let capacity = instances.iter().map(Instance::capacity).sum::<u64>() as f64;
        SimAgent {
            router,
            state,
            stage_q: VecDeque::new(),
            stagers_free,
            stage_cost: cal.rp_stage.clone(),
            sched_q: VecDeque::new(),
            sched_busy: false,
            sched_cost: cal.rp_sched_cost(total_partitions, cfg.nodes),
            adapters,
            subs,
            site_srun: SrunSim::new(cfg.nodes, cal.clone(), rng.next_u64()),
            srun_backend,
            instances_pending: instances.len(),
            view: ViewCache::new(instances.len()),
            instances,
            first,
            assignment: UidMap::default(),
            outstanding: 0,
            pending_services: Vec::new(),
            service_holds: Vec::new(),
            watcher_q: [const { VecDeque::new() }; 4],
            watcher_busy: [false; 4],
            watcher_cost: cal.rp_watcher.clone(),
            dragon_window: cal.rp_dragon_window.max(1),
            workload,
            rr: [0; 4],
            scratch: Vec::new(),
            rng,
            cfg,
            capacity,
            profile: None,
            metrics: None,
            telemetry: None,
            tel_sample_mask: u64::MAX,
            lineage: None,
            chaos: None,
            serving: None,
        }
    }

    /// Attach the profile's gauge tracks: each profile sample writes the
    /// agent-queue, srun-concurrency and per-partition utilization gauges
    /// into `data` as gauge rows on the `agent`, `srun`, `flux.N`,
    /// `dragon.N` and `prrte.N` tracks, stamped with the sample boundary.
    pub fn attach_profile(&mut self) {
        let mut p = ProfileData::default();
        let names = [
            "agent",
            "srun",
            "QUEUE_DEPTH",
            "BUSY_CORES",
            "BUSY_GPUS",
            "SRUN_INFLIGHT",
            "SRUN_CEILING",
        ]
        .map(|name| p.intern(name));
        let parts = self
            .instances
            .iter()
            .map(|inst| p.intern(&format!("{}.{}", inst.kind(), inst.part)))
            .collect();
        self.profile = Some(ProfileGauges {
            data: p,
            names,
            parts,
        });
    }

    /// Attach a metrics registry: pipeline-server service times are
    /// observed at the pump sites, queue depth and utilization at each
    /// metrics sample, and the pipeline gauges once, at the end of the
    /// run. The per-task families (state dwell, lifecycle and routing
    /// counters, the `rp_backend_*` families of every deployed kind) are
    /// only registered here, in export order, and returned: the session
    /// folds them from lineage after the run.
    pub(crate) fn attach_metrics(&mut self, reg: &Registry) -> TaskFamilies {
        use TaskState::*;
        let dwell = [
            New,
            StagingInput,
            Scheduling,
            Submitting,
            Submitted,
            Executing,
            Done,
            Failed,
            Canceled,
        ]
        .map(|st| {
            reg.histogram(
                "rp_task_state_seconds",
                &[("state", state_event_name(st))],
                "Time tasks dwell in each lifecycle state",
            )
        });
        let mut adapter_seconds: [MHistogram; 4] = Default::default();
        let mut routed: [MCounter; 4] = Default::default();
        for kind in ALL_BACKENDS
            .iter()
            .filter(|k| self.adapters[**k as usize].is_some())
        {
            let k = format!("{kind}");
            adapter_seconds[*kind as usize] = reg.histogram(
                "rp_adapter_seconds",
                &[("backend", k.as_str())],
                "Executor-adapter serialization service time",
            );
            routed[*kind as usize] = reg.counter(
                "rp_routed_total",
                &[("backend", k.as_str())],
                "Scheduling decisions routed to this backend kind",
            );
        }
        // The site srun always exports its families (it carries the
        // instance bootstraps even when no task routes to it).
        let mut backends: [BackendFamilies; 4] = Default::default();
        for kind in ALL_BACKENDS
            .iter()
            .filter(|&&k| k == BackendKind::Srun || !self.kind_range(k).is_empty())
        {
            backends[*kind as usize] = BackendFamilies::register(reg, &format!("{kind}"));
        }
        let server = |name, help| reg.histogram(name, &[], help);
        let stage_seconds = server("rp_stage_seconds", "Input-stager service time per task");
        let sched_seconds = server(
            "rp_sched_seconds",
            "Agent-scheduler decision service time per task",
        );
        let watcher_seconds = server(
            "rp_watcher_seconds",
            "Watcher-thread service time per backend event",
        );
        let counter = |name, help| reg.counter(name, &[], help);
        let families = TaskFamilies {
            dwell,
            routed,
            backends,
            routing_failed: counter(
                "rp_routing_failed_total",
                "Tasks no live backend could host",
            ),
            submitted: counter("rp_tasks_submitted_total", "Tasks submitted to the agent"),
            completed: counter("rp_tasks_completed_total", "Tasks finished successfully"),
            failed: counter("rp_tasks_failed_total", "Tasks failed permanently"),
            canceled: counter("rp_tasks_canceled_total", "Tasks canceled before running"),
            retried: counter("rp_task_retries_total", "Task retry attempts"),
        };
        self.metrics = Some(AgentMetrics {
            stage_seconds,
            sched_seconds,
            adapter_seconds,
            watcher_seconds,
            queue_depth: reg.gauge(
                "rp_agent_queue_depth",
                &[],
                "Tasks waiting in agent pipeline queues",
            ),
            srun_inflight: reg.gauge(
                "rp_srun_inflight",
                &[],
                "Site srun steps currently in flight",
            ),
            busy_cores: reg.gauge(
                "rp_busy_cores",
                &[],
                "Busy cores/workers across non-srun partitions",
            ),
            busy_gpus: reg.gauge("rp_busy_gpus", &[], "Busy GPUs across non-srun partitions"),
            depth_sampled: reg.histogram(
                "rp_agent_queue_depth_sampled",
                &[],
                "Agent pipeline queue depth, sampled periodically",
            ),
            util_sampled: reg.histogram(
                "rp_utilization_sampled",
                &[],
                "Busy fraction of non-srun partition cores, sampled periodically",
            ),
            reg: reg.clone(),
        });
        families
    }

    /// Attach a streaming-telemetry collector: the task transition funnel
    /// feeds its SLO tracker and straggler detector (with backend/partition
    /// causal context from the routing assignment), and each telemetry
    /// sample feeds its time-series and online detectors.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.tel_sample_mask = tel.straggler_sample_mask();
        self.telemetry = Some(tel);
    }

    /// Attach a causal-lineage recorder: the agent contributes pipeline
    /// milestones (submit, stage/schedule done, routing decisions, adapter
    /// handoff, terminal states) and every backend sub-machine records its
    /// own queue, placement, and launch events into the same stream.
    /// Unlike telemetry's straggler cohort, lineage covers *every* task
    /// when attached — tail exemplars are unknowable in advance — and
    /// detached runs pay one `Option` check per hook site.
    pub fn attach_lineage(&mut self, lin: Lineage) {
        self.site_srun.attach_lineage(lin.clone());
        for inst in &mut self.instances {
            inst.attach_lineage(lin.clone());
        }
        self.lineage = Some(lin);
    }

    /// Arm the fault-injection plane with a realized [`FaultPlan`]. Call
    /// AFTER the observability attachments: the chaos counters register
    /// only here, so a faults-off run's OpenMetrics output is
    /// byte-identical to a build without the chaos plane. Inactive plans
    /// are dropped outright — the agent then carries no chaos state at
    /// all.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        if !plan.is_active() {
            return;
        }
        // `retries=N` governs the whole run, not just the fault path: a
        // task resubmitted into a still-down backend fails through the
        // ordinary exception path and must get the same allowance.
        if let Some(n) = plan.max_retries {
            self.cfg.max_retries = n;
        }
        let counters = self.metrics.as_ref().map(|m| ChaosCounters {
            // Indexed by the lineage fault codes: FAULT_NODE=0,
            // FAULT_CRASH=1, FAULT_HANG=2.
            faults: ["node_failure", "backend_crash", "task_hang"].map(|label| {
                m.reg.counter(
                    "rp_faults_injected_total",
                    &[("kind", label)],
                    "Chaos-plan faults injected, by kind",
                )
            }),
            recoveries: m.reg.counter(
                "rp_fault_recoveries_total",
                &[],
                "Fault-failed tasks resubmitted by the recovery policy",
            ),
            given_up: m.reg.counter(
                "rp_fault_give_ups_total",
                &[],
                "Tasks abandoned by the recovery policy",
            ),
        });
        let down = if self.instances.is_empty() {
            vec![vec![false; self.cfg.nodes as usize]]
        } else {
            self.instances
                .iter()
                .map(|inst| vec![false; inst.nodes() as usize])
                .collect()
        };
        self.chaos = Some(ChaosState {
            plan,
            avoid: FxHashMap::default(),
            parked: Vec::new(),
            counters,
            down,
        });
    }

    /// Attach the open-loop serving plane. The session realizes the plan
    /// and schedules one [`AgentMsg::ServingArrive`] per batch; the agent
    /// admits through `state`'s weighted-fair queues and maps released
    /// plan indices onto task descriptions. Sessions without serving
    /// never call this — batch runs stay byte-identical.
    pub fn enable_serving(&mut self, state: ServingState) {
        self.serving = Some(state);
    }

    /// End the run: hand back the run's records, the profile's gauge rows
    /// (when profiling) and the serving books (when serving).
    pub(crate) fn into_parts(self) -> (RunState, Option<ProfileData>, Option<ServingState>) {
        (self.state, self.profile.map(|p| p.data), self.serving)
    }

    /// One serving batch arrives: offer it to the admission queues, then
    /// pump whatever the window allows into the pipeline.
    fn serving_arrive(&mut self, b: u32, ctx: &mut Ctx<AgentMsg>) {
        if let Some(s) = &mut self.serving {
            s.on_batch(b);
        }
        self.serving_pump(ctx);
    }

    /// Admit up to one release batch from the serving queues and submit
    /// the mapped task descriptions.
    fn serving_pump(&mut self, ctx: &mut Ctx<AgentMsg>) {
        let Some(st) = &mut self.serving else { return };
        let mut released: Vec<u32> = Vec::new();
        st.pump_into(&mut released);
        let dur = rp_sim::SimDuration::from_secs_f64(st.spec().dur_s);
        let descs: Vec<TaskDescription> = released
            .iter()
            .map(|&idx| {
                let uid = st.uid_for(idx);
                match st.plan().tasks[idx as usize].kind {
                    ServingTaskKind::Null => TaskDescription::null(uid),
                    ServingTaskKind::Dummy => TaskDescription::dummy(uid, dur),
                    ServingTaskKind::Function => TaskDescription::function(uid, "serve", dur),
                }
            })
            .collect();
        if !descs.is_empty() {
            self.submit_tasks(descs, ctx);
        }
    }

    /// Terminal accounting for a possibly-serving task: release its
    /// window slot exactly once (outcome read from the record's terminal
    /// state) and refill the freed capacity from the admission queues.
    fn serving_terminal(&mut self, t: TaskId, ctx: &mut Ctx<AgentMsg>) {
        let Some(s) = &mut self.serving else { return };
        let outcome = match self.state.task(t).map(|r| r.state) {
            Some(TaskState::Done) => ServingOutcome::Done,
            Some(TaskState::Canceled) => ServingOutcome::Canceled,
            _ => ServingOutcome::Failed,
        };
        if s.on_terminal(t.0, ctx.now().as_secs_f64(), outcome) {
            self.serving_pump(ctx);
        }
    }

    /// Whether the serving plane (if any) has delivered and drained every
    /// planned arrival — the extra gate on stopping persistent services.
    fn serving_drained(&self) -> bool {
        self.serving.as_ref().is_none_or(ServingState::drained)
    }

    /// Bump one chaos fault counter (no-op when metrics are detached).
    fn note_fault(&self, code: u16) {
        if let Some(c) = self.chaos.as_ref().and_then(|c| c.counters.as_ref()) {
            c.faults[usize::from(code.min(2))].inc();
        }
    }

    /// Record a routing decision in the lineage stream (no-op untracked).
    fn note_route(&self, t: TaskId, detail: u16, kind: BackendKind, part: u32) {
        if let Some(l) = &self.lineage {
            l.record_ctx(
                t.0,
                rp_lineage::EV_ROUTE,
                detail,
                kind as u8,
                part,
                rp_lineage::NO_VALUE,
            );
        }
    }

    /// Record a pilot lifecycle advance in the lineage run scope.
    fn note_pilot(&self, st: PilotState) {
        if let Some(l) = &self.lineage {
            l.record_ctx(
                rp_lineage::META_UID,
                rp_lineage::EV_PILOT,
                st as u16,
                rp_lineage::NO_BACKEND,
                rp_lineage::NO_PARTITION,
                rp_lineage::NO_VALUE,
            );
        }
    }

    /// Sampler tags ([`Actor::sample`]'s `sink`): the sink a sample feeds.
    /// `SAMPLE_END` is not periodic: sampled once after the run, it sets
    /// the metrics gauges to the final state.
    pub(crate) const SAMPLE_PROFILE: u32 = 0;
    pub(crate) const SAMPLE_METRICS: u32 = 1;
    pub(crate) const SAMPLE_TELEMETRY: u32 = 2;
    pub(crate) const SAMPLE_END: u32 = 3;

    /// The gauges as of now, from live agent and backend state, with
    /// `(busy cores, busy gpus)` per instance in instance-table order.
    fn gauges(&self) -> (SampleInput, Vec<(f64, f64)>) {
        let mut depth = self.stage_q.len() + self.sched_q.len();
        depth += self
            .adapters
            .iter()
            .flatten()
            .map(|a| a.q.len())
            .sum::<usize>();
        depth += self
            .subs
            .iter()
            .map(|s| s.sched_q.len() + s.adapter_q.len())
            .sum::<usize>();
        let parts: Vec<(f64, f64)> = self
            .instances
            .iter()
            .map(|inst| {
                let (cores, gpus) = inst.busy();
                (cores as f64, gpus as f64)
            })
            .collect();
        let (busy_cores, busy_gpus) = parts
            .iter()
            .fold((0.0, 0.0), |(c, g), &(pc, pg)| (c + pc, g + pg));
        let mut bq = [0usize; 4];
        let mut peaks = [0usize; 4];
        bq[BackendKind::Srun as usize] = self.site_srun.queued();
        peaks[BackendKind::Srun as usize] = self.site_srun.queued_peak();
        for inst in &self.instances {
            let k = inst.kind() as usize;
            bq[k] += inst.queued();
            peaks[k] = peaks[k].max(inst.queued_peak());
        }
        let input = SampleInput {
            queue_depth: depth as f64,
            srun_inflight: self.site_srun.slots_in_use() as f64,
            busy_cores,
            busy_gpus,
            capacity_cores: self.capacity,
            backend_queues: bq.map(|n| n as f64),
            backend_queue_peaks: peaks.map(|n| n as f64),
        };
        (input, parts)
    }

    // ------------------------------------------------------------ helpers

    /// Flat indices of `kind`'s instances (empty for srun).
    fn kind_range(&self, kind: BackendKind) -> std::ops::Range<usize> {
        self.first[kind as usize]..self.first[kind as usize + 1]
    }

    /// Flat index of `kind`'s partition `part`, if such an instance exists.
    fn instance_index(&self, kind: BackendKind, part: u32) -> Option<usize> {
        let i = self.first[kind as usize] + part as usize;
        (i < self.first[kind as usize + 1]).then_some(i)
    }

    fn resource_view(&mut self) -> ResourceView {
        let shares = self.view.sum(&self.instances);
        debug_assert_eq!(
            shares,
            self.instances
                .iter()
                .fold(ViewShare::default(), |sum, inst| sum
                    .plus(inst.view_share())),
            "an instance changed without marking the view cache"
        );
        let mut view = ResourceView {
            free_cores: shares.free_cores,
            free_gpus: shares.free_gpus,
            total_cores: shares.total_cores,
            total_gpus: shares.total_gpus,
            nodes: self.cfg.nodes,
        };
        if let Some(sb) = &self.srun_backend {
            // Report logical (non-oversubscribed) capacity to workloads.
            view.free_cores += sb.free_core_slots / sb.oversubscribe;
            view.free_gpus += sb.free_gpus;
            view.total_cores += sb.total_core_slots / sb.oversubscribe;
            view.total_gpus += self.cfg.nodes as u64 * rp_platform::frontier().node.gpus as u64;
        }
        view
    }

    fn with_task<R>(&mut self, uid: TaskId, f: impl FnOnce(&mut TaskRecord) -> R) -> R {
        let rec = self
            .state
            .task_mut(uid)
            .unwrap_or_else(|| panic!("unknown task {uid}"));
        let before = rec.state;
        let out = f(rec);
        // Every state transition funnels through here (except initial
        // submission, instrumented in `submit_tasks`), so one hook covers
        // the whole pipeline.
        if rec.state != before {
            if let Some(t) = &self.telemetry {
                // Backend/partition context only matters for the
                // straggler-sampled cohort; skip the routing lookup on the
                // other seven-eighths of transitions.
                let (backend, partition) = if uid.0 & self.tel_sample_mask == 0 {
                    match self.assignment.get(uid.0) {
                        Some(&(kind, part)) => (Some(kind as usize), Some(part)),
                        None => (None, None),
                    }
                } else {
                    (None, None)
                };
                t.on_transition(
                    uid.0,
                    state_index(before),
                    state_index(rec.state),
                    backend,
                    partition,
                );
            }
            if let Some(l) = &self.lineage {
                // Initial StagingInput is recorded as EV_SUBMIT in
                // `submit_tasks` (the record is inserted pre-advanced), so
                // a StagingInput transition seen here is always a retry.
                let kind = match rec.state {
                    TaskState::New => None,
                    TaskState::StagingInput => Some(rp_lineage::EV_RETRY),
                    TaskState::Scheduling => Some(rp_lineage::EV_STAGE_DONE),
                    TaskState::Submitting => Some(rp_lineage::EV_SCHED_DONE),
                    TaskState::Submitted => Some(rp_lineage::EV_HANDOFF),
                    TaskState::Executing => Some(rp_lineage::EV_EXEC),
                    TaskState::Done => Some(rp_lineage::EV_DONE),
                    TaskState::Failed => Some(rp_lineage::EV_FAILED),
                    TaskState::Canceled => Some(rp_lineage::EV_CANCELED),
                };
                if let Some(k) = kind {
                    l.record(uid.0, k);
                }
            }
            if rec.state == TaskState::Executing {
                if let Some(s) = &mut self.serving {
                    // Client-perceived time-to-launch: the record's own
                    // exec timestamp minus the planned arrival (idempotent
                    // across transient retry re-entries).
                    let now = rec.exec_start.unwrap_or(rec.submitted).as_secs_f64();
                    s.on_launch(uid.0, now);
                }
            }
        }
        out
    }

    fn submit_tasks(&mut self, batch: Vec<TaskDescription>, ctx: &mut Ctx<AgentMsg>) {
        // Bulk submission (initial workloads arrive in one batch): the run
        // state adopts the batch as its description table and sizes the
        // record table up front, and the routing table is sized the same
        // way rather than doubled past the batch as tasks route.
        let slots = self.state.submit(batch, ctx.now());
        let descs = &self.state.descs()[slots];
        // Batched observability hooks: one table borrow and one clock read
        // per submission batch instead of one per task (the whole batch
        // shares `now`, so the stream is byte-identical either way).
        if let Some(t) = &self.telemetry {
            t.on_submitted_batch(descs.iter().map(|d| d.uid.0));
        }
        if let Some(l) = &self.lineage {
            for d in descs {
                l.record(d.uid.0, rp_lineage::EV_SUBMIT);
            }
        }
        self.stage_q.extend(descs.iter().map(|d| d.uid));
        self.assignment.reserve(descs.len());
        self.outstanding += descs.len();
        self.pump_stagers(ctx);
    }

    fn pump_stagers(&mut self, ctx: &mut Ctx<AgentMsg>) {
        while self.stagers_free > 0 {
            let Some(t) = self.stage_q.pop_front() else {
                break;
            };
            self.stagers_free -= 1;
            let cost = self.stage_cost.sample(&mut self.rng);
            if let Some(m) = &self.metrics {
                m.stage_seconds.observe(cost.as_secs_f64());
            }
            ctx.timer(cost, AgentMsg::StagerDone(t));
        }
    }

    fn pump_sched(&mut self, ctx: &mut Ctx<AgentMsg>) {
        if self.sched_busy || self.instances_pending > 0 {
            return;
        }
        let Some(t) = self.sched_q.pop_front() else {
            return;
        };
        self.sched_busy = true;
        let cost = self.sched_cost.sample(&mut self.rng);
        if let Some(m) = &self.metrics {
            m.sched_seconds.observe(cost.as_secs_f64());
        }
        ctx.timer(cost, AgentMsg::SchedDone(t));
    }

    fn pump_adapter(&mut self, kind: BackendKind, ctx: &mut Ctx<AgentMsg>) {
        let adapter = self.adapters[kind as usize]
            .as_mut()
            .expect("adapter exists");
        if adapter.busy {
            return;
        }
        let Some(t) = adapter.q.pop_front() else {
            return;
        };
        adapter.busy = true;
        let cost = adapter.cost.sample(&mut self.rng);
        if let Some(m) = &self.metrics {
            m.adapter_seconds[kind as usize].observe(cost.as_secs_f64());
        }
        ctx.timer(cost, AgentMsg::AdapterDone(kind, t));
    }

    fn pump_sub_sched(&mut self, idx: u32, ctx: &mut Ctx<AgentMsg>) {
        if self.instances_pending > 0 {
            return; // pilot not ACTIVE yet
        }
        let sub = &mut self.subs[idx as usize];
        if sub.sched_busy {
            return;
        }
        let Some(t) = sub.sched_q.pop_front() else {
            return;
        };
        sub.sched_busy = true;
        let cost = sub.sched_cost.sample(&mut self.rng);
        if let Some(m) = &self.metrics {
            m.sched_seconds.observe(cost.as_secs_f64());
        }
        ctx.timer(cost, AgentMsg::SubSchedDone(idx, t));
    }

    fn pump_sub_adapter(&mut self, idx: u32, ctx: &mut Ctx<AgentMsg>) {
        let sub = &mut self.subs[idx as usize];
        if sub.adapter_busy {
            return;
        }
        let Some(t) = sub.adapter_q.pop_front() else {
            return;
        };
        sub.adapter_busy = true;
        let cost = sub.adapter_cost.sample(&mut self.rng);
        let kind = sub.kind;
        if let Some(m) = &self.metrics {
            m.adapter_seconds[kind as usize].observe(cost.as_secs_f64());
        }
        ctx.timer(cost, AgentMsg::SubAdapterDone(idx, t));
    }

    /// Pick a backend and partition for a task. Under `TypeAware` routing
    /// this is the paper's static mapping with round-robin over live
    /// partitions; under `LeastLoaded` every hosting-capable backend
    /// competes on queue pressure. Falls back across kinds when a whole
    /// backend is dead.
    fn select_backend(&mut self, t: TaskId) -> Option<(BackendKind, u32)> {
        // One-shot resubmit-elsewhere hint from the chaos plane: prefer
        // any partition other than the one that just failed the task
        // (falling back to it only when nothing else is alive).
        let avoid = self.chaos.as_mut().and_then(|c| c.avoid.remove(&t.0));
        // Read what routing needs from the description table, then let it
        // go: picking a partition moves the agent's round-robin cursors.
        let (candidates, routed) = {
            let desc = self.state.desc(t);
            if self.cfg.routing == RoutingPolicy::LeastLoaded && desc.backend_hint.is_none() {
                (self.router.candidates(desc), None)
            } else {
                (Vec::new(), Some(self.router.route(desc)))
            }
        };
        if routed.is_none() {
            // The first candidate with the strictly lowest pressure wins.
            let best = |avoid| {
                candidates
                    .iter()
                    .filter_map(|&kind| {
                        let (pressure, part) = self.least_loaded_partition(kind, avoid)?;
                        Some((pressure, kind, part))
                    })
                    .fold(None, |best: Option<(f64, BackendKind, u32)>, c| {
                        if best.is_none_or(|b| c.0 < b.0) {
                            Some(c)
                        } else {
                            best
                        }
                    })
            };
            // Every alternative dead: resubmit in place.
            let (_, kind, part) = best(avoid).or_else(|| avoid.and_then(|_| best(None)))?;
            self.note_route(t, rp_lineage::ROUTE_LEAST_LOADED, kind, part);
            return Some((kind, part));
        }

        let kind = routed?.ok()?;
        if let Some(p) = self.pick_partition(kind, avoid) {
            self.note_route(t, rp_lineage::ROUTE_TYPE_AWARE, kind, p);
            return Some((kind, p));
        }
        // Routed kind has no live partitions (failover path): try others in
        // the router's preference order by re-routing without hints.
        for alt in [
            BackendKind::Flux,
            BackendKind::Prrte,
            BackendKind::Dragon,
            BackendKind::Srun,
        ] {
            if alt != kind && self.router.has(alt) {
                if let Some(p) = self.pick_partition(alt, avoid) {
                    self.note_route(t, rp_lineage::ROUTE_FAILOVER, alt, p);
                    return Some((alt, p));
                }
            }
        }
        None
    }

    /// The live partition of `kind` with the lowest backlog, and that
    /// backlog normalized by the partition's capacity. `avoid` excludes
    /// one (backend, partition) pair — the chaos plane's
    /// resubmit-elsewhere hint; callers fall back to an unfiltered pick
    /// when the exclusion empties every candidate set.
    fn least_loaded_partition(
        &self,
        kind: BackendKind,
        avoid: Option<(BackendKind, u32)>,
    ) -> Option<(f64, u32)> {
        if kind == BackendKind::Srun {
            let sb = self.srun_backend.as_ref()?;
            let backlog = sb.waiting.len() + self.site_srun.queued();
            return (avoid != Some((kind, 0))).then_some((backlog as f64, 0));
        }
        self.instances[self.kind_range(kind)]
            .iter()
            .filter(|inst| inst.is_alive() && avoid != Some((kind, inst.part)))
            .map(|inst| (inst.pressure(), inst.part))
            .min_by(|a, b| a.0.total_cmp(&b.0))
    }

    /// Round-robin over `kind`'s live partitions. `avoid` is the chaos
    /// plane's resubmit-elsewhere hint: the avoided partition is chosen
    /// only when it is the sole live one (resubmit in place beats
    /// permanent failure).
    fn pick_partition(
        &mut self,
        kind: BackendKind,
        avoid: Option<(BackendKind, u32)>,
    ) -> Option<u32> {
        if kind == BackendKind::Srun {
            return self.srun_backend.as_ref().map(|_| 0);
        }
        let range = self.kind_range(kind);
        let count = range.len();
        if count == 0 {
            return None;
        }
        let avoid_idx = match avoid {
            Some((k, p)) if k == kind => Some(p as usize),
            _ => None,
        };
        let start = self.rr[kind as usize];
        let mut fallback = None;
        for off in 0..count {
            let idx = (start + off) % count;
            if !self.instances[range.start + idx].is_alive() {
                continue;
            }
            if avoid_idx == Some(idx) {
                fallback = Some(idx);
                continue;
            }
            self.rr[kind as usize] = idx + 1;
            return Some(idx as u32);
        }
        fallback.map(|idx| {
            self.rr[kind as usize] = idx + 1;
            idx as u32
        })
    }

    // --------------------------------------------------- backend dispatch

    fn dispatch_to_backend(&mut self, t: TaskId, ctx: &mut Ctx<AgentMsg>) {
        let (kind, part) = *self.assignment.get(t.0).expect("assigned");
        let now = ctx.now();
        let attempt = self.with_task(t, |rec| {
            rec.advance(TaskState::Submitted, now);
            rec.backend = Some(kind);
            rec.partition = Some(part);
            rec.retries
        });
        if let Some(chaos) = &self.chaos {
            if attempt == 0 && chaos.plan.hang_victims.binary_search(&t.0).is_ok() {
                // Planned hang: the payload wedges silently downstream of
                // the adapter on its first launch attempt. Nothing
                // reaches the backend — only the watchdog will notice.
                ctx.timer(chaos.plan.watchdog, AgentMsg::Watchdog(t));
                return;
            }
        }
        let Some(i) = self.instance_index(kind, part) else {
            self.srun_backend
                .as_mut()
                .expect("srun deployed")
                .waiting
                .push_back(t);
            self.pump_srun_backend(ctx);
            return;
        };
        match &mut self.instances[i].machine {
            Machine::Flux(_) => {
                let job = {
                    let desc = self.state.desc(t);
                    JobSpec {
                        id: JobId(t.0),
                        req: desc.req,
                        duration: desc.duration,
                    }
                };
                self.with_instance(i, ctx, |inst, acts| {
                    if let Machine::Flux(sim) = &mut inst.machine {
                        sim.submit(job, acts);
                    }
                });
            }
            Machine::Prrte(pb) => {
                if pb.dvm.is_alive() {
                    pb.waiting.push_back(t);
                    self.pump_prrte(i, ctx);
                } else {
                    self.fail_task(t, true, ctx);
                }
            }
            Machine::Dragon {
                sim,
                inflight,
                parked,
                ..
            } => {
                if !sim.is_alive() {
                    self.fail_task(t, true, ctx);
                } else if *inflight < self.dragon_window {
                    self.push_to_dragon(i, t, ctx);
                } else {
                    // Flow control: the executor keeps at most `window`
                    // tasks in the pipe per instance.
                    parked.push_back(t);
                }
            }
        }
    }

    /// Instance `i` reported `Ready`: stamp its report, and feed the
    /// pilot-activation gate on its FIRST readiness only. A re-boot after
    /// a chaos restart re-stamps `ready` but skips the gate: it already
    /// counted the instance once — either at its original `Ready` or when
    /// `fault_crash` released it on its behalf (`killed` records
    /// that history, so a kill-during-boot followed by a restart cannot
    /// double-release).
    fn instance_booted(&mut self, i: usize, now: SimTime, ctx: &mut Ctx<AgentMsg>) {
        let first = {
            let report = &mut self.state.instances[self.instances[i].report];
            let first = report.ready.is_none() && !report.killed;
            report.ready = Some(now);
            first
        };
        if first {
            self.instance_ready(ctx);
        }
    }

    /// One backend instance finished booting; release the scheduler when
    /// the pilot is fully active.
    fn instance_ready(&mut self, ctx: &mut Ctx<AgentMsg>) {
        self.instances_pending = self.instances_pending.saturating_sub(1);
        if self.instances_pending == 0 {
            self.state.pilot.advance(PilotState::Active, ctx.now());
            self.note_pilot(PilotState::Active);
            self.start_services(ctx);
            self.pump_sched(ctx);
            for idx in 0..self.subs.len() {
                self.pump_sub_sched(idx as u32, ctx);
            }
        }
    }

    /// Place every pending service (pilot just went active). Placement is
    /// immediate reservation: services are few and sized by the user, so a
    /// failure to fit is reported, not queued.
    fn start_services(&mut self, ctx: &mut Ctx<AgentMsg>) {
        let now = ctx.now();
        let services = std::mem::take(&mut self.pending_services);
        for desc in services {
            let kind = desc
                .backend_hint
                .filter(|k| self.router.has(*k))
                .or_else(|| {
                    [BackendKind::Flux, BackendKind::Prrte, BackendKind::Dragon]
                        .into_iter()
                        .find(|k| self.router.has(*k))
                });
            let mut record = ServiceRecord {
                uid: desc.uid,
                name: desc.name.clone(),
                backend: kind,
                partition: None,
                started: None,
                stopped: None,
                cores: desc.req.total_cores(),
                gpus: desc.req.total_gpus(),
                failed: true,
            };
            for i in kind.map_or(0..0, |k| self.kind_range(k)) {
                if let Some((placement, workers)) = self.instances[i].reserve(&desc.req) {
                    self.view.mark(i);
                    record.partition = Some(self.instances[i].part);
                    record.started = Some(now);
                    record.failed = false;
                    let report_idx = self.state.services.len();
                    self.state.services.push(record.clone());
                    self.service_holds.push(ServiceHold {
                        report_idx,
                        instance: i,
                        placement,
                        workers,
                    });
                    break;
                }
            }
            if record.failed {
                self.state.services.push(record);
            }
        }
    }

    /// Stop every running service (workload drained): release resources and
    /// timestamp the records.
    fn stop_services(&mut self, ctx: &mut Ctx<AgentMsg>) {
        let now = ctx.now();
        for hold in self.service_holds.drain(..) {
            self.instances[hold.instance].release(&hold);
            self.view.mark(hold.instance);
            self.state.services[hold.report_idx].stopped = Some(now);
        }
    }

    /// Enqueue an event for `kind`'s watcher thread.
    fn watch(&mut self, kind: BackendKind, ev: WatcherEvent, ctx: &mut Ctx<AgentMsg>) {
        if let (WatcherEvent::Term(t), Some(l)) = (&ev, &self.lineage) {
            // The launcher is done; everything until the record update is
            // collection overhead. Guard against stale events for tasks
            // already failed over elsewhere.
            let executing = self
                .state
                .task(*t)
                .is_some_and(|r| r.state == TaskState::Executing);
            if executing {
                l.record(t.0, rp_lineage::EV_TERM_SEEN);
            }
        }
        self.watcher_q[kind as usize].push_back(ev);
        self.pump_watcher(kind, ctx);
    }

    fn pump_watcher(&mut self, kind: BackendKind, ctx: &mut Ctx<AgentMsg>) {
        if self.watcher_busy[kind as usize] || self.watcher_q[kind as usize].is_empty() {
            return;
        }
        self.watcher_busy[kind as usize] = true;
        let cost = self.watcher_cost.sample(&mut self.rng);
        if let Some(m) = &self.metrics {
            m.watcher_seconds.observe(cost.as_secs_f64());
        }
        ctx.timer(cost, AgentMsg::WatcherDone(kind));
    }

    /// Apply one watcher event. Tolerant of stale events (task already
    /// failed over): transitions apply only when legal.
    fn apply_watcher_event(
        &mut self,
        kind: BackendKind,
        ev: WatcherEvent,
        ctx: &mut Ctx<AgentMsg>,
    ) {
        let now = ctx.now();
        match ev {
            WatcherEvent::Exec(t, i) => {
                self.with_task(t, |rec| {
                    if rec.state.can_transition(TaskState::Executing) {
                        rec.advance(TaskState::Executing, now);
                    }
                });
                if kind == BackendKind::Dragon {
                    self.dragon_slot_freed(i as usize, ctx);
                }
            }
            WatcherEvent::Term(t) => {
                let stale = self.with_task(t, |rec| {
                    if rec.state.can_transition(TaskState::Done) {
                        rec.advance(TaskState::Done, now);
                        false
                    } else {
                        true
                    }
                });
                if !stale {
                    self.on_terminal(t, ctx);
                }
            }
        }
    }

    /// A task left Dragon instance `i`'s pipe: feed the next parked task
    /// into the freed window slot.
    fn dragon_slot_freed(&mut self, i: usize, ctx: &mut Ctx<AgentMsg>) {
        let Machine::Dragon {
            sim,
            inflight,
            parked,
            ..
        } = &mut self.instances[i].machine
        else {
            return;
        };
        *inflight = inflight.saturating_sub(1);
        if let Some(next) = parked.pop_front() {
            if sim.is_alive() {
                self.push_to_dragon(i, next, ctx);
            } else {
                self.fail_task(next, true, ctx);
            }
        }
    }

    fn push_to_dragon(&mut self, i: usize, t: TaskId, ctx: &mut Ctx<AgentMsg>) {
        let task = {
            let desc = self.state.desc(t);
            DragonTask {
                id: t.0,
                workers: desc.req.total_cores().max(1) as u32,
                duration: desc.duration,
                is_function: desc.kind.is_function(),
            }
        };
        self.with_instance(i, ctx, |inst, acts| {
            if let Machine::Dragon { sim, inflight, .. } = &mut inst.machine {
                *inflight += 1;
                sim.submit(task, acts);
            }
        });
    }

    /// Place and launch waiting PRRTE tasks (RP-side FCFS placement over
    /// the partition's pool, then FIFO through the DVM's HNP).
    fn pump_prrte(&mut self, i: usize, ctx: &mut Ctx<AgentMsg>) {
        let mut acts = self.take_scratch();
        let inst = &mut self.instances[i];
        let part = inst.part;
        if let Machine::Prrte(pb) = &mut inst.machine {
            while let Some(&t) = pb.waiting.front() {
                let desc = self.state.desc(t);
                let Some(pl) = pb.pool.try_alloc(&desc.req) else {
                    if let Some(l) = &self.lineage {
                        let free = (pb.pool.free_cores(), pb.pool.free_gpus());
                        let at = (BackendKind::Prrte, part);
                        blame_stall(l, &mut pb.lin_reject, t.0, &desc.req, free, at);
                    }
                    break; // head-of-line wait for completions
                };
                pb.waiting.pop_front();
                if let Some(l) = &self.lineage {
                    let at = (BackendKind::Prrte, part);
                    note_placed(l, &mut pb.lin_reject, t.0, &desc.req, at);
                }
                pb.placements.insert(t.0, pl);
                pb.dvm.submit(
                    PrrteTask {
                        id: t.0,
                        duration: desc.duration,
                    },
                    &mut acts,
                );
            }
        }
        self.process_instance_actions(i, &mut acts, ctx);
        self.restore_scratch(acts);
    }

    fn pump_srun_backend(&mut self, ctx: &mut Ctx<AgentMsg>) {
        let mut acts = self.take_scratch();
        loop {
            let Some(sb) = self.srun_backend.as_mut() else {
                return;
            };
            let Some(&t) = sb.waiting.front() else {
                break;
            };
            let desc = self.state.desc(t);
            let need_cores = desc.req.total_cores();
            let need_gpus = desc.req.total_gpus();
            if need_cores > sb.free_core_slots || need_gpus > sb.free_gpus {
                if let Some(l) = &self.lineage {
                    let free = (sb.free_core_slots, sb.free_gpus);
                    let at = (BackendKind::Srun, 0);
                    blame_stall(l, &mut sb.lin_reject, t.0, &desc.req, free, at);
                }
                break; // wait for completions to free capacity
            }
            sb.waiting.pop_front();
            if let Some(l) = &self.lineage {
                let at = (BackendKind::Srun, 0);
                note_placed(l, &mut sb.lin_reject, t.0, &desc.req, at);
            }
            sb.free_core_slots -= need_cores;
            sb.free_gpus -= need_gpus;
            sb.holds.insert(t.0, (need_cores, need_gpus));
            // srun spans as many nodes as the request has spread ranks.
            let step_nodes = match desc.req.policy {
                rp_platform::PlacementPolicy::Spread
                | rp_platform::PlacementPolicy::NodeExclusive => desc.req.ranks,
                rp_platform::PlacementPolicy::Pack => need_cores.div_ceil(56).max(1) as u32,
            };
            self.site_srun.submit(
                StepRequest {
                    id: StepId(t.0),
                    step_nodes,
                    duration: desc.duration,
                },
                &mut acts,
            );
        }
        self.process_srun_actions(&mut acts, ctx);
        self.restore_scratch(acts);
    }

    // ----------------------------------------------------- action routing

    /// Route the site srun's actions. Kept apart from the instances'
    /// router: srun steps drive task records directly (no watcher) and
    /// carry the instance bootstraps.
    fn process_srun_actions(&mut self, acts: &mut Vec<Action>, ctx: &mut Ctx<AgentMsg>) {
        let now = ctx.now();
        for a in acts.drain(..) {
            match a {
                Action::Timer { after, token } => ctx.timer(after, AgentMsg::Srun(token)),
                Action::Started(id) => {
                    if id >= INFRA_BASE {
                        self.on_infra_carrier_live((id - INFRA_BASE) as usize, ctx);
                    } else {
                        self.with_task(TaskId(id), |rec| rec.advance(TaskState::Executing, now));
                    }
                }
                Action::Completed(id) => {
                    debug_assert!(id < INFRA_BASE, "infra steps never exit via timer");
                    let t = TaskId(id);
                    if let Some(sb) = self.srun_backend.as_mut() {
                        sb.release(id);
                    }
                    self.with_task(t, |rec| rec.advance(TaskState::Done, now));
                    self.on_terminal(t, ctx);
                    self.pump_srun_backend(ctx);
                }
                Action::Ready | Action::Failed { .. } => unreachable!("srun emitted {a:?}"),
            }
        }
    }

    /// Instance `i`'s carrier srun acquired its slot: boot the instance.
    fn on_infra_carrier_live(&mut self, i: usize, ctx: &mut Ctx<AgentMsg>) {
        let slot = self.instances[i].report;
        self.state.instances[slot].srun_acquired = Some(ctx.now());
        self.boot_instance(i, ctx);
    }

    /// Boot (or, after a chaos crash, restart) instance `i` over its
    /// allocation minus its down nodes, and route the actions it emits.
    fn boot_instance(&mut self, i: usize, ctx: &mut Ctx<AgentMsg>) {
        let mut acts = self.take_scratch();
        let down = self.chaos.as_ref().map_or(&[][..], |c| &c.down[i]);
        self.instances[i].boot(down, &mut acts);
        self.process_instance_actions(i, &mut acts, ctx);
        self.restore_scratch(acts);
    }

    /// Run `f` on instance `i` with the scratch action buffer, then route
    /// the actions it emitted.
    fn with_instance<R>(
        &mut self,
        i: usize,
        ctx: &mut Ctx<AgentMsg>,
        f: impl FnOnce(&mut Instance, &mut Vec<Action>) -> R,
    ) -> R {
        let mut acts = self.take_scratch();
        let r = f(&mut self.instances[i], &mut acts);
        self.process_instance_actions(i, &mut acts, ctx);
        self.restore_scratch(acts);
        r
    }

    /// Route instance `i`'s actions: timers come back as
    /// [`AgentMsg::Instance`], starts and completions go through the
    /// kind's watcher, failures to [`Self::fail_task`].
    fn process_instance_actions(
        &mut self,
        i: usize,
        acts: &mut Vec<Action>,
        ctx: &mut Ctx<AgentMsg>,
    ) {
        let now = ctx.now();
        let kind = self.instances[i].kind();
        // The backend ran before handing over its actions; the routing
        // below may read the view.
        self.view.mark(i);
        for a in acts.drain(..) {
            match a {
                Action::Timer { after, token } => {
                    ctx.timer(after, AgentMsg::Instance(i as u32, token))
                }
                Action::Ready => self.instance_booted(i, now, ctx),
                Action::Started(id) => {
                    self.watch(kind, WatcherEvent::Exec(TaskId(id), i as u32), ctx);
                }
                Action::Completed(id) => {
                    // PRRTE: free the RP-held placement immediately; the
                    // record update flows through the watcher like other
                    // backends.
                    let placed = match &mut self.instances[i].machine {
                        Machine::Prrte(pb) => {
                            pb.release(id);
                            true
                        }
                        _ => false,
                    };
                    self.watch(kind, WatcherEvent::Term(TaskId(id)), ctx);
                    if placed {
                        self.pump_prrte(i, ctx);
                    }
                }
                Action::Failed { id, retryable } => self.fail_task(TaskId(id), retryable, ctx),
            }
        }
    }

    // ------------------------------------------------- terminal & failure

    fn on_terminal(&mut self, t: TaskId, ctx: &mut Ctx<AgentMsg>) {
        self.assignment.remove(t.0);
        self.outstanding = self.outstanding.saturating_sub(1);
        let view = self.resource_view();
        let rec = self.state.task(t).expect("recorded task");
        let follow_ups = self.workload.on_task_done(rec, &view);
        if !follow_ups.is_empty() {
            self.submit_tasks(follow_ups, ctx);
        }
        if self.serving.is_some() {
            // Serving accounting + window refill before the drain check:
            // the pump may put new work in flight.
            self.serving_terminal(t, ctx);
        }
        if self.outstanding == 0 && !self.service_holds.is_empty() && self.serving_drained() {
            // Workload drained: stop persistent services so the pilot can
            // wind down.
            self.stop_services(ctx);
        }
    }

    fn fail_task(&mut self, t: TaskId, retryable: bool, ctx: &mut Ctx<AgentMsg>) {
        let now = ctx.now();
        let max_retries = retry_cap(self.cfg.max_retries);
        // Two separate record touches so the transition funnel sees both
        // the FAILED and the retry STAGING_INPUT transitions, not just the
        // net state.
        self.with_task(t, |rec| rec.advance(TaskState::Failed, now));
        let retry = retryable
            && self.with_task(t, |rec| {
                if rec.retries < max_retries {
                    rec.retries += 1;
                    rec.advance(TaskState::StagingInput, now);
                    true
                } else {
                    false
                }
            });
        self.assignment.remove(t.0);
        if retry {
            self.stage_q.push_back(t);
            self.pump_stagers(ctx);
        } else {
            self.on_terminal(t, ctx);
        }
    }

    /// Best-effort cancel: tasks still inside the agent pipeline or queued
    /// at a backend move to `Canceled`; payloads already launched run to
    /// completion (asynchronous-cancel semantics).
    fn cancel_task(&mut self, t: TaskId, ctx: &mut Ctx<AgentMsg>) {
        let now = ctx.now();
        let state = match self.state.task(t) {
            Some(rec) => rec.state,
            None => return, // unknown uid: ignore
        };
        if state.is_terminal() {
            return;
        }
        // 1. Still in an agent-side queue?
        let in_agent = remove_from(&mut self.stage_q, t)
            || remove_from(&mut self.sched_q, t)
            || self
                .adapters
                .iter_mut()
                .flatten()
                .any(|a| remove_from(&mut a.q, t))
            || self
                .subs
                .iter_mut()
                .any(|s| remove_from(&mut s.sched_q, t) || remove_from(&mut s.adapter_q, t));
        // 2. Queued at a backend?
        let in_backend = !in_agent
            && match self.assignment.get(t.0).copied() {
                Some((BackendKind::Srun, _)) => match self.srun_backend.as_mut() {
                    Some(sb) => {
                        let canceled =
                            remove_from(&mut sb.waiting, t) || self.site_srun.cancel(StepId(t.0));
                        if canceled {
                            // Free any capacity the agent already held for it.
                            sb.release(t.0);
                        }
                        canceled
                    }
                    None => false,
                },
                Some((kind, part)) => self
                    .instance_index(kind, part)
                    .is_some_and(|i| self.cancel_queued(i, t, ctx)),
                None => false,
            };
        if in_agent || in_backend {
            self.with_task(t, |rec| rec.advance(TaskState::Canceled, now));
            self.assignment.remove(t.0);
            self.outstanding = self.outstanding.saturating_sub(1);
            if self.serving.is_some() {
                self.serving_terminal(t, ctx);
            }
            // Stop services if the cancel drained the workload.
            if self.outstanding == 0 && !self.service_holds.is_empty() && self.serving_drained() {
                self.stop_services(ctx);
            }
        }
        // else: task is mid-RPC or executing; it completes normally.
    }

    /// Pull `t` out of instance `i` before it launches; true when it was
    /// still queued there.
    fn cancel_queued(&mut self, i: usize, t: TaskId, ctx: &mut Ctx<AgentMsg>) -> bool {
        // A Flux job matched and waiting to start frees its cores.
        self.view.mark(i);
        match &mut self.instances[i].machine {
            Machine::Flux(sim) => sim.cancel(JobId(t.0)),
            Machine::Dragon { sim, parked, .. } => {
                if remove_from(parked, t) {
                    true
                } else if sim.cancel(t.0) {
                    // It sat in the pipe: its window slot is free again.
                    self.dragon_slot_freed(i, ctx);
                    true
                } else {
                    false
                }
            }
            Machine::Prrte(pb) => {
                let canceled = remove_from(&mut pb.waiting, t) || pb.dvm.cancel(t.0);
                if canceled {
                    // A task canceled at the DVM was placed already: hand
                    // its cores back, then let the waiting queue use them
                    // (or move past a canceled head).
                    pb.release(t.0);
                    self.pump_prrte(i, ctx);
                }
                canceled
            }
        }
    }

    // ------------------------------------------------------- chaos plane

    /// Fault-path task failure. Mirrors [`Self::fail_task`], but recovery
    /// is governed by the chaos plan's policy and the fault is surfaced
    /// as data: an `EV_FAULT` lineage event carrying the fault kind and
    /// causal context is recorded immediately after the `EV_FAILED`
    /// transition (same timestamp, so the FAILED→FAULT blame gap is zero
    /// and the FAULT→retry gap is pure `recovery_overhead`), and the
    /// recovery/give-up counters feed the chaos metrics.
    fn fail_task_fault(
        &mut self,
        t: TaskId,
        detail: u16,
        node_value: u64,
        ctx: &mut Ctx<AgentMsg>,
    ) {
        let now = ctx.now();
        let prior = self.assignment.get(t.0).copied();
        self.with_task(t, |rec| rec.advance(TaskState::Failed, now));
        if let Some(l) = &self.lineage {
            let (bk, part) = match prior {
                Some((kind, part)) => (kind as u8, part),
                None => (rp_lineage::NO_BACKEND, rp_lineage::NO_PARTITION),
            };
            l.record_ctx(t.0, rp_lineage::EV_FAULT, detail, bk, part, node_value);
        }
        self.assignment.remove(t.0);
        let (policy, plan_max) = {
            let c = self.chaos.as_ref().expect("fault without chaos plan");
            (c.plan.policy, c.plan.max_retries)
        };
        let max_retries = retry_cap(plan_max.unwrap_or(self.cfg.max_retries));
        let retry = !matches!(policy, RecoveryPolicy::GiveUp)
            && self.with_task(t, |rec| rec.retries < max_retries);
        if retry {
            if let Some(c) = self.chaos.as_ref().and_then(|c| c.counters.as_ref()) {
                c.recoveries.inc();
            }
            match policy {
                RecoveryPolicy::RetryBackoff { .. } => {
                    let prior_retries = self.with_task(t, |rec| {
                        let p = rec.retries;
                        rec.retries += 1;
                        p
                    });
                    // The StagingInput advance happens when the backoff
                    // timer fires, so the FAULT→EV_RETRY lineage gap is
                    // exactly the recovery delay.
                    ctx.timer(policy.backoff(prior_retries.into()), AgentMsg::RetryFire(t));
                }
                RecoveryPolicy::ResubmitElsewhere => {
                    if let (Some(c), Some(pk)) = (self.chaos.as_mut(), prior) {
                        c.avoid.insert(t.0, pk);
                    }
                    self.with_task(t, |rec| {
                        rec.retries += 1;
                        rec.advance(TaskState::StagingInput, now);
                    });
                    self.stage_q.push_back(t);
                    self.pump_stagers(ctx);
                }
                RecoveryPolicy::GiveUp => unreachable!("filtered above"),
            }
        } else {
            if let Some(c) = self.chaos.as_ref().and_then(|c| c.counters.as_ref()) {
                c.given_up.inc();
            }
            if let Some(tel) = &self.telemetry {
                let retries = self.state.task(t).expect("recorded task").retries;
                tel.on_fault(
                    "fault_give_up",
                    Severity::Critical,
                    Some(t.0),
                    prior.map(|(k, _)| k as u8),
                    prior.map(|(_, p)| p),
                    f64::from(retries),
                    format!("task {} abandoned after {} retries", t.0, retries),
                );
            }
            self.on_terminal(t, ctx);
        }
    }

    /// Flight-recorder alarm for a fault at `backend`'s `partition`
    /// (no-op untracked).
    fn fault_alarm(
        &self,
        kind: &'static str,
        severity: Severity,
        (backend, partition): (BackendKind, u32),
        value: f64,
        message: String,
    ) {
        if let Some(tel) = &self.telemetry {
            let (backend, partition) = (Some(backend as u8), Some(partition));
            tel.on_fault(kind, severity, None, backend, partition, value, message);
        }
    }

    /// Apply one scheduled chaos-plan action.
    fn apply_fault(&mut self, action: FaultAction, ctx: &mut Ctx<AgentMsg>) {
        match action {
            FaultAction::FailNode {
                partition,
                node_idx,
            } => self.fault_node(partition, node_idx, true, ctx),
            FaultAction::RestoreNode {
                partition,
                node_idx,
            } => self.fault_node(partition, node_idx, false, ctx),
            FaultAction::CrashBackend { partition } => self.fault_crash(partition, ctx),
            FaultAction::RestartBackend { partition } => self.fault_restart(partition, ctx),
        }
        if matches!(
            action,
            FaultAction::RestartBackend { .. } | FaultAction::RestoreNode { .. }
        ) {
            self.drain_parked(ctx);
        }
    }

    /// No live partition can host `t`. Fault-free (or once the chaos plan
    /// has no recovery left to wait for) that is terminal — the historical
    /// "no live backend could host" semantic. Under an outage with a
    /// pending restart/restore the condition is transient: the task parks
    /// and [`Self::drain_parked`] re-stages it when capacity returns.
    fn route_failed(&mut self, t: TaskId, ctx: &mut Ctx<AgentMsg>) {
        let now = ctx.now();
        let transient = self.chaos.as_ref().is_some_and(|c| {
            c.plan.events.iter().any(|e| {
                e.at > now
                    && matches!(
                        e.action,
                        FaultAction::RestartBackend { .. } | FaultAction::RestoreNode { .. }
                    )
            })
        });
        if transient {
            // Failed is the legal waypoint out of Scheduling; the task sits
            // there (its dwell is the outage) until drain_parked re-stages.
            self.with_task(t, |rec| rec.advance(TaskState::Failed, now));
            self.assignment.remove(t.0);
            self.chaos
                .as_mut()
                .expect("transient implies chaos")
                .parked
                .push(t);
            return;
        }
        self.fail_task(t, false, ctx);
    }

    /// Re-stage every parked task after a restart/restore: capacity (or a
    /// fresh instance) is back, so routing gets another chance. Insertion
    /// order is submission order — deterministic.
    fn drain_parked(&mut self, ctx: &mut Ctx<AgentMsg>) {
        let parked = match self.chaos.as_mut() {
            Some(c) if !c.parked.is_empty() => std::mem::take(&mut c.parked),
            _ => return,
        };
        let now = ctx.now();
        for t in parked {
            self.with_task(t, |rec| rec.advance(TaskState::StagingInput, now));
            self.stage_q.push_back(t);
        }
        self.pump_stagers(ctx);
    }

    /// Apply a plan's node transition: `down` fails node `node_idx` of
    /// fault partition `partition`, `!down` restores it. The mask owns node
    /// health, so a repeat, or an index past the mask, changes nothing,
    /// raises no alarm and counts no injected fault. A live backend hears
    /// of a transition now and a dead one at its restart. Tasks resident on
    /// a failed node die (policy-driven recovery), and its capacity leaves
    /// the partition until the restore. The site srun models a site-wide
    /// RPC ceiling, not per-node slots, so on srun-only pilots a restore
    /// moves only the mask and the alarm.
    fn fault_node(&mut self, partition: u32, node_idx: u32, down: bool, ctx: &mut Ctx<AgentMsg>) {
        let mask = self
            .chaos
            .as_mut()
            .and_then(|c| c.down.get_mut(partition as usize));
        let Some(d) = mask.and_then(|m| m.get_mut(node_idx as usize)) else {
            return;
        };
        if std::mem::replace(d, down) == down {
            return;
        }
        if down {
            self.note_fault(rp_lineage::FAULT_NODE);
        }
        let i = partition as usize;
        let (at, what) = match self.instances.get(i) {
            Some(inst) => {
                let at = (inst.kind(), inst.part);
                (at, format!("{} partition {}", at.0, at.1))
            }
            None => ((BackendKind::Srun, 0), "the srun allocation".to_string()),
        };
        let (alarm, severity, verb) = if down {
            ("fault_node", Severity::Warning, "failed")
        } else {
            ("fault_node_cleared", Severity::Info, "restored")
        };
        let message = format!("node {node_idx} of {what} {verb}");
        self.fault_alarm(alarm, severity, at, f64::from(node_idx), message);
        let (kind, now) = (at.0, ctx.now());
        let lost = match self.instances.get(i) {
            None if down => return self.srun_fail_node(node_idx, ctx),
            Some(inst) if inst.is_alive() && down => {
                self.with_instance(i, ctx, |inst, acts| inst.fail_node(now, node_idx, acts))
            }
            Some(inst) if inst.is_alive() => {
                self.with_instance(i, ctx, |inst, acts| inst.node_up(now, node_idx, acts));
                Vec::new()
            }
            _ => return,
        };
        if kind == BackendKind::Prrte {
            // The victims' surviving ranks, or the restored node, went
            // back to RP's pool.
            self.pump_prrte(i, ctx);
        }
        for id in lost {
            if kind == BackendKind::Dragon {
                // A victim that never produced a `Started` event still
                // holds a flow-control window slot no watcher event will
                // return: free it and feed the park queue. (An Exec still
                // queued at the watcher frees the slot on its own when it
                // drains.)
                let submitted = self
                    .state
                    .task(TaskId(id))
                    .is_some_and(|r| r.state == TaskState::Submitted);
                let exec_pending = self.watcher_q[kind as usize]
                    .iter()
                    .any(|ev| matches!(ev, WatcherEvent::Exec(x, _) if x.0 == id));
                if submitted && !exec_pending {
                    self.dragon_slot_freed(i, ctx);
                }
            }
            self.fail_task_fault(TaskId(id), rp_lineage::FAULT_NODE, node_idx.into(), ctx);
        }
    }

    /// A node fault on a srun-only pilot: the site srun reaps the steps
    /// resident there.
    fn srun_fail_node(&mut self, node_idx: u32, ctx: &mut Ctx<AgentMsg>) {
        let mut acts = self.take_scratch();
        let lost = self.site_srun.fail_node(node_idx, &mut acts);
        self.process_srun_actions(&mut acts, ctx);
        self.restore_scratch(acts);
        if let Some(sb) = self.srun_backend.as_mut() {
            for &id in &lost {
                sb.release(id);
            }
        }
        for id in lost {
            self.fail_task_fault(TaskId(id), rp_lineage::FAULT_NODE, u64::from(node_idx), ctx);
        }
        self.pump_srun_backend(ctx);
    }

    /// Crash a whole backend instance via the chaos plane. Plan generation
    /// degrades crashes to node failures on srun-only pilots, so those
    /// ignore it.
    fn fault_crash(&mut self, partition: u32, ctx: &mut Ctx<AgentMsg>) {
        let i = partition as usize;
        let Some(inst) = self.instances.get(i) else {
            return; // plans count partitions in table order: none past it
        };
        if !inst.is_alive() {
            return; // already down; nothing new to kill
        }
        let (kind, part) = (inst.kind(), inst.part);
        self.note_fault(rp_lineage::FAULT_CRASH);
        self.fault_alarm(
            "fault_crash",
            Severity::Critical,
            (kind, part),
            0.0,
            format!("{kind} partition {part} crashed"),
        );
        let lost = self.instances[i].kill();
        self.view.mark(i);
        if kind != BackendKind::Prrte {
            // A Flux broker's or Dragon runtime's view of its partition,
            // service reservations included, dies with it: those services
            // end now. RP's PRRTE pool outlives the DVM, so its holds stay.
            let (now, services) = (ctx.now(), &mut self.state.services);
            self.service_holds.retain(|hold| {
                if hold.instance == i {
                    services[hold.report_idx].stopped = Some(now);
                }
                hold.instance != i
            });
        }
        let was_booting = {
            let report = &mut self.state.instances[self.instances[i].report];
            report.killed = true;
            report.ready.is_none()
        };
        if was_booting {
            // The dead instance will never report Ready; release the
            // pilot-activation gate on its behalf so the survivors proceed.
            self.instance_ready(ctx);
        }
        for t in lost {
            self.fail_task_fault(t, rp_lineage::FAULT_CRASH, rp_lineage::NO_VALUE, ctx);
        }
    }

    /// Restart a chaos-crashed instance: full re-bootstrap over whatever
    /// capacity is in service. The instance report keeps `killed` as the
    /// historical record; its `ready` timestamp is re-stamped at
    /// re-readiness (which does NOT re-fire pilot activation — see
    /// [`Self::instance_booted`]).
    fn fault_restart(&mut self, partition: u32, ctx: &mut Ctx<AgentMsg>) {
        let i = partition as usize;
        let Some(inst) = self.instances.get(i).filter(|inst| !inst.is_alive()) else {
            return; // none past the table; a live one needs no restart
        };
        let (kind, part) = (inst.kind(), inst.part);
        self.boot_instance(i, ctx);
        self.fault_alarm(
            "fault_crash_cleared",
            Severity::Info,
            (kind, part),
            0.0,
            format!("{kind} partition {part} restarting"),
        );
    }

    /// Watchdog fired for a planned hang victim: if the task never
    /// progressed past `Submitted`, the payload is wedged — surface the
    /// hang fault and recover by policy. Tasks that progressed (or were
    /// canceled) make the check a no-op.
    fn watchdog_check(&mut self, t: TaskId, ctx: &mut Ctx<AgentMsg>) {
        let hung = self
            .state
            .task(t)
            .is_some_and(|r| r.state == TaskState::Submitted);
        if !hung {
            return;
        }
        self.note_fault(rp_lineage::FAULT_HANG);
        if let Some(tel) = &self.telemetry {
            let prior = self.assignment.get(t.0).copied();
            let watchdog = self
                .chaos
                .as_ref()
                .map(|c| c.plan.watchdog.as_secs_f64())
                .unwrap_or(0.0);
            tel.on_fault(
                "fault_hang",
                Severity::Warning,
                Some(t.0),
                prior.map(|(k, _)| k as u8),
                prior.map(|(_, p)| p),
                watchdog,
                format!("task {} hung past the {watchdog}s watchdog", t.0),
            );
        }
        self.fail_task_fault(t, rp_lineage::FAULT_HANG, rp_lineage::NO_VALUE, ctx);
    }

    /// A drained action buffer: the pool's last, or a new one when every
    /// pooled buffer is held by an outer frame.
    fn take_scratch(&mut self) -> Vec<Action> {
        self.scratch.pop().unwrap_or_default()
    }

    /// Return a buffer taken with [`Self::take_scratch`] after its drain.
    fn restore_scratch(&mut self, acts: Vec<Action>) {
        debug_assert!(acts.is_empty(), "scratch buffer restored undrained");
        self.scratch.push(acts);
    }
}

/// A configured retry budget in the record's `u16` count: a task stops
/// retrying at 65,535 attempts whatever the budget.
fn retry_cap(max_retries: u32) -> u16 {
    u16::try_from(max_retries).unwrap_or(u16::MAX)
}

/// Remove `t` from a FIFO queue; true when it was present.
fn remove_from(q: &mut VecDeque<TaskId>, t: TaskId) -> bool {
    if let Some(pos) = q.iter().position(|&x| x == t) {
        q.remove(pos);
        true
    } else {
        false
    }
}

impl Actor<AgentMsg> for SimAgent {
    fn handle(&mut self, msg: AgentMsg, ctx: &mut Ctx<AgentMsg>) {
        match msg {
            AgentMsg::Init => {
                self.state.pilot.advance(PilotState::Launching, ctx.now());
                self.note_pilot(PilotState::Launching);
                let cost = self.cfg.cal.rp_agent_bootstrap.sample(&mut self.rng);
                ctx.timer(cost, AgentMsg::BootstrapDone);
            }
            AgentMsg::BootstrapDone => {
                self.state.agent_ready = Some(ctx.now());
                self.state
                    .pilot
                    .advance(PilotState::Bootstrapping, ctx.now());
                self.note_pilot(PilotState::Bootstrapping);
                // Launch backend instances on persistent srun slots.
                let mut acts = self.take_scratch();
                for (i, inst) in self.instances.iter().enumerate() {
                    let carrier = StepId(INFRA_BASE + i as u64);
                    self.site_srun
                        .submit_persistent(carrier, inst.nodes(), &mut acts);
                }
                self.process_srun_actions(&mut acts, ctx);
                self.restore_scratch(acts);
                // Collect services (started once the pilot is active) and
                // the initial workload.
                self.pending_services = self.workload.services();
                let view = self.resource_view();
                let tasks = self.workload.initial(&view);
                self.submit_tasks(tasks, ctx);
                // A pilot without non-srun instances is active immediately.
                if self.instances_pending == 0 {
                    self.state.pilot.advance(PilotState::Active, ctx.now());
                    self.note_pilot(PilotState::Active);
                    self.start_services(ctx);
                }
            }
            AgentMsg::Submit(tasks) => self.submit_tasks(tasks, ctx),
            AgentMsg::StagerDone(t) => {
                self.stagers_free += 1;
                let now = ctx.now();
                self.with_task(t, |rec| rec.advance(TaskState::Scheduling, now));
                if self.subs.is_empty() {
                    self.sched_q.push_back(t);
                    self.pump_sched(ctx);
                } else {
                    // Cheap top-level dispatch to the chosen partition's
                    // sub-agent; the heavy scheduling happens there.
                    match self.select_backend(t) {
                        Some((kind, part)) => {
                            self.assignment.insert(t.0, (kind, part));
                            // Sub-agent `i` serves instance `i` (srun
                            // pilots run without sub-agents).
                            let i = self
                                .instance_index(kind, part)
                                .expect("sub-agents serve instances");
                            self.subs[i].sched_q.push_back(t);
                            self.pump_sub_sched(i as u32, ctx);
                        }
                        None => self.route_failed(t, ctx),
                    }
                }
                self.pump_stagers(ctx);
            }
            AgentMsg::SchedDone(t) => {
                self.sched_busy = false;
                let now = ctx.now();
                match self.select_backend(t) {
                    Some((kind, part)) => {
                        self.assignment.insert(t.0, (kind, part));
                        self.with_task(t, |rec| rec.advance(TaskState::Submitting, now));
                        self.adapters[kind as usize]
                            .as_mut()
                            .expect("adapter")
                            .q
                            .push_back(t);
                        self.pump_adapter(kind, ctx);
                    }
                    None => self.route_failed(t, ctx),
                }
                self.pump_sched(ctx);
            }
            AgentMsg::AdapterDone(kind, t) => {
                self.adapters[kind as usize].as_mut().expect("adapter").busy = false;
                self.dispatch_to_backend(t, ctx);
                self.pump_adapter(kind, ctx);
            }
            AgentMsg::SubSchedDone(idx, t) => {
                let now = ctx.now();
                let sub = &mut self.subs[idx as usize];
                sub.sched_busy = false;
                self.with_task(t, |rec| rec.advance(TaskState::Submitting, now));
                self.subs[idx as usize].adapter_q.push_back(t);
                self.pump_sub_adapter(idx, ctx);
                self.pump_sub_sched(idx, ctx);
            }
            AgentMsg::SubAdapterDone(idx, t) => {
                self.subs[idx as usize].adapter_busy = false;
                self.dispatch_to_backend(t, ctx);
                self.pump_sub_adapter(idx, ctx);
            }
            AgentMsg::Srun(token) => {
                let mut acts = self.take_scratch();
                self.site_srun.on_token(token, &mut acts);
                self.process_srun_actions(&mut acts, ctx);
                self.restore_scratch(acts);
            }
            AgentMsg::Instance(i, token) => {
                let now = ctx.now();
                self.with_instance(i as usize, ctx, |inst, acts| {
                    inst.on_token(now, token, acts)
                });
            }
            AgentMsg::WatcherDone(kind) => {
                self.watcher_busy[kind as usize] = false;
                if let Some(ev) = self.watcher_q[kind as usize].pop_front() {
                    self.apply_watcher_event(kind, ev, ctx);
                }
                self.pump_watcher(kind, ctx);
            }
            AgentMsg::CancelTasks(uids) => {
                for t in uids {
                    self.cancel_task(t, ctx);
                }
            }
            AgentMsg::Fault(action) => self.apply_fault(action, ctx),
            AgentMsg::Watchdog(t) => self.watchdog_check(t, ctx),
            AgentMsg::RetryFire(t) => {
                let now = ctx.now();
                self.with_task(t, |rec| rec.advance(TaskState::StagingInput, now));
                self.stage_q.push_back(t);
                self.pump_stagers(ctx);
            }
            AgentMsg::ServingArrive(b) => self.serving_arrive(b, ctx),
        }
    }

    /// Take one gauge snapshot and feed it to the sink `sink` names (a
    /// `SAMPLE_*` tag); a tag whose sink is not attached is a no-op.
    fn sample(&mut self, at: SimTime, sink: u32) {
        let (g, parts) = self.gauges();
        match (sink, &mut self.profile, &self.metrics, &self.telemetry) {
            (Self::SAMPLE_PROFILE, Some(pg), _, _) => {
                let [agent, srun, queue_depth, busy_cores, busy_gpus, inflight, ceiling] = pg.names;
                let mut gauge = |comp, what, detail| {
                    pg.data.events.push(rp_profiler::Event {
                        at,
                        comp,
                        uid: NO_UID,
                        what,
                        phase: Phase::Gauge,
                        detail,
                    })
                };
                gauge(agent, queue_depth, g.queue_depth);
                gauge(srun, inflight, g.srun_inflight);
                gauge(srun, ceiling, self.site_srun.ceiling() as f64);
                for (&track, &(cores, gpus)) in pg.parts.iter().zip(&parts) {
                    gauge(track, busy_cores, cores);
                    gauge(track, busy_gpus, gpus);
                }
            }
            (Self::SAMPLE_METRICS, _, Some(m), _) => {
                m.depth_sampled.observe(g.queue_depth);
                m.util_sampled
                    .observe(g.busy_cores / g.capacity_cores.max(1.0));
            }
            (Self::SAMPLE_TELEMETRY, _, _, Some(tel)) => tel.on_sample(at, &g),
            (Self::SAMPLE_END, _, Some(m), _) => {
                m.queue_depth.set(g.queue_depth);
                m.srun_inflight.set(g.srun_inflight);
                m.busy_cores.set(g.busy_cores);
                m.busy_gpus.set(g.busy_gpus);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::StaticWorkload;
    use rp_chaos::FaultAction;
    use rp_sim::{Engine, SimDuration};

    #[test]
    fn dragon_cancel_in_the_pipe_frees_its_window_slot() {
        // One node: 56 functions run, the next 64 fill the pipe window
        // and the last 10 park. Canceling the pipe's tasks must hand
        // their window slots back, so the parked tasks get in and the
        // window is empty again once the run drains.
        let tasks = (0..130)
            .map(|i| TaskDescription::function(i, "f", SimDuration::from_secs(100)))
            .collect();
        let mut engine = Engine::new();
        let id = engine.add_actor(SimAgent::new(
            PilotConfig::dragon(1),
            Box::new(StaticWorkload::new(tasks)),
        ));
        engine.schedule(SimTime::ZERO, id, AgentMsg::Init);
        let canceled = 56..120;
        engine.schedule(
            SimTime::from_secs(60),
            id,
            AgentMsg::CancelTasks(canceled.clone().map(TaskId).collect()),
        );
        engine.run_until_idle(u64::MAX);

        let agent = engine.actor();
        for uid in (0..130).filter(|u| !canceled.contains(u)) {
            let state = agent.state.task(TaskId(uid)).expect("submitted").state;
            assert_eq!(state, TaskState::Done, "uid {uid}");
        }
        let Machine::Dragon {
            inflight, parked, ..
        } = &agent.instances[0].machine
        else {
            panic!("a Dragon pilot deploys a Dragon instance");
        };
        assert!(parked.is_empty());
        assert_eq!(*inflight, 0, "every window slot came back");
    }

    /// Reads the workload view at every terminal task and keeps a stream
    /// of short tasks going until 250 s (functions on Dragon when hinted,
    /// else executables); in a debug build each read checks the cached
    /// view against a full recount. Stream uids start past `STREAM`.
    struct ViewReader {
        views: std::rc::Rc<std::cell::RefCell<Vec<ResourceView>>>,
        next_uid: u64,
        hinted: bool,
    }

    impl ViewReader {
        const STREAM: u64 = 100_000;

        fn streamed(&mut self) -> TaskDescription {
            self.next_uid += 1;
            let (uid, secs) = (self.next_uid, SimDuration::from_millis(500));
            if self.hinted {
                TaskDescription {
                    backend_hint: Some(BackendKind::Dragon),
                    ..TaskDescription::function(uid, "f", secs)
                }
            } else {
                TaskDescription::dummy(uid, secs)
            }
        }
    }

    impl WorkloadSource for ViewReader {
        fn services(&mut self) -> Vec<ServiceDescription> {
            if !self.hinted {
                return Vec::new();
            }
            [BackendKind::Flux, BackendKind::Dragon, BackendKind::Prrte]
                .into_iter()
                .map(|kind| ServiceDescription {
                    backend_hint: Some(kind),
                    ..ServiceDescription::new(kind as u64, "svc", 8, 0)
                })
                .collect()
        }

        fn initial(&mut self, view: &ResourceView) -> Vec<TaskDescription> {
            self.views.borrow_mut().push(*view);
            (0..64).map(|_| self.streamed()).collect()
        }

        fn on_task_done(&mut self, done: &TaskRecord, view: &ResourceView) -> Vec<TaskDescription> {
            self.views.borrow_mut().push(*view);
            let streaming = done.exec_end.is_some_and(|t| t < SimTime::from_secs(250));
            if done.uid.0 > Self::STREAM && streaming {
                vec![self.streamed()]
            } else {
                Vec::new()
            }
        }
    }

    /// The cached view stays equal to a full recount through every kind
    /// of instance change — task traffic on Flux, Dragon and PRRTE,
    /// service reservations and their release, a cancel of matched Flux
    /// jobs, node failures and restores, a crash and a restart — and on an
    /// srun pilot, and reads all free once the pilot drains.
    #[test]
    fn cached_view_matches_a_recount_through_every_change() {
        use crate::backend::BackendSpec;
        use crate::session::SimSession;
        use rp_chaos::FaultEvent;

        let at = SimTime::from_secs;
        let fault = |secs, action| FaultEvent {
            at: at(secs),
            action,
        };
        let dummies = |base: u64, n: u64, secs, kind| -> Vec<TaskDescription> {
            (base..base + n)
                .map(|uid| TaskDescription {
                    backend_hint: Some(kind),
                    ..TaskDescription::dummy(uid, SimDuration::from_secs(secs))
                })
                .collect()
        };
        // Flux starts about one job a second here, so jobs wait matched
        // for the start server long enough for reads to fall between a
        // cancel and the next start.
        let mut cal = rp_platform::Calibration::frontier();
        cal.flux_start_rate_base = 1.0;
        let hybrid = PilotConfig::new(
            8,
            vec![
                BackendSpec::Flux {
                    partitions: 2,
                    backfill: true,
                },
                BackendSpec::Dragon { partitions: 1 },
                BackendSpec::Prrte { partitions: 1 },
            ],
        )
        .with_calibration(cal);
        for (cfg, hinted) in [(hybrid, true), (PilotConfig::srun(2), false)] {
            let views = std::rc::Rc::default();
            let workload = ViewReader {
                views: std::rc::Rc::clone(&views),
                next_uid: ViewReader::STREAM,
                hinted,
            };
            let mut session = SimSession::new(cfg, Box::new(workload));
            if hinted {
                // Flat instance order: flux.0, flux.1, dragon.0, prrte.0.
                let events = vec![
                    fault(
                        130,
                        FaultAction::FailNode {
                            partition: 3,
                            node_idx: 1,
                        },
                    ),
                    fault(
                        140,
                        FaultAction::RestoreNode {
                            partition: 3,
                            node_idx: 1,
                        },
                    ),
                    fault(
                        150,
                        FaultAction::FailNode {
                            partition: 2,
                            node_idx: 0,
                        },
                    ),
                    fault(
                        160,
                        FaultAction::RestoreNode {
                            partition: 2,
                            node_idx: 0,
                        },
                    ),
                    fault(170, FaultAction::CrashBackend { partition: 1 }),
                    fault(180, FaultAction::RestartBackend { partition: 1 }),
                ];
                session = session
                    .with_fault_plan(FaultPlan {
                        events,
                        hang_victims: Vec::new(),
                        watchdog: SimDuration::ZERO,
                        policy: RecoveryPolicy::ResubmitElsewhere,
                        max_retries: None,
                    })
                    .submit_at(at(100), dummies(20_000, 30, 20, BackendKind::Prrte))
                    // Flux matches this burst at once and starts about a
                    // job a second: the cancel catches jobs matched and
                    // waiting for the start server.
                    .submit_at(at(120), dummies(30_000, 200, 60, BackendKind::Flux))
                    .cancel_at(at(122), (30_000..30_200).collect())
                    // After the drain and the services' release, a read
                    // that only Flux traffic precedes.
                    .submit_at(at(400), dummies(40_000, 4, 1, BackendKind::Flux));
            } else {
                session = session
                    .submit_at(at(40), dummies(30_000, 400, 60, BackendKind::Srun))
                    .cancel_at(at(45), (30_000..30_400).collect());
            }
            let report = session.run();
            assert!(report.tasks.iter().all(|t| t.state.is_terminal()));
            assert!(report.tasks.iter().any(|t| t.state == TaskState::Canceled));
            let views = views.borrow();
            assert!(views.len() > 1_000, "{} reads", views.len());
            let last = views.last().expect("read");
            assert_eq!(
                (last.free_cores, last.free_gpus),
                (last.total_cores, last.total_gpus),
                "a drained pilot is all free"
            );
        }
    }
}
