//! `rp-telemetry` — streaming observability for in-flight runs.
//!
//! The runtime profile and the metrics registry are *post-mortem*
//! instruments: everything they capture is only consumable after the run
//! drains. At leadership-platform scale the interesting failures —
//! stragglers, dispatcher saturation, utilization collapse — need to be
//! visible *while the campaign runs*. This crate is that layer:
//!
//! 1. A periodic sampler driven by the sim clock (or wall clock on the
//!    threaded rt plane) snapshots queue depths, core/GPU utilization,
//!    task-state populations, and throughput into a ring-buffered
//!    time-series ([`Sample`] rows in a bounded ring).
//! 2. An SLO tracker ([`SloTracker`]) computes running p50/p99/p999
//!    time-to-launch and time-to-completion from the task transition
//!    stream, on the same mergeable log-bucketed histograms the metrics
//!    registry uses.
//! 3. Online detectors (straggler, queue-growth, dispatcher-saturation,
//!    utilization-collapse) emit structured [`Alarm`] records with causal
//!    context (task uid, backend, partition) into a flight-recorder log.
//!
//! Everything is derived from virtual time and deterministic inputs, so
//! the JSONL exports ([`TelemetryData::timeseries_jsonl`],
//! [`TelemetryData::flight_recorder_jsonl`]) are byte-identical for a
//! given seed — they participate in the same golden-test regime as the
//! OpenMetrics snapshots. The cost model matches lineage and metrics: one
//! `Option` branch when detached, no allocation on the per-transition
//! path beyond first-touch map inserts.

#![warn(missing_docs)]

mod detect;
mod json;
mod series;
mod slo;

pub use detect::{Alarm, Severity};
pub use series::{Sample, SampleInput};
pub use slo::{ExemplarSet, SloSnapshot, SloTracker, EXEMPLARS_PER_BUCKET, NO_UID};

use detect::DetectorState;
use rp_metrics::HistData;
use rp_sim::{SimClock, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Number of task lifecycle states tracked (dense indices, matching the
/// agent's `state_index` order).
pub const STATES: usize = 9;

/// Lifecycle state names, indexed like the agent's `state_index`: this
/// order is part of the flight-recorder schema.
pub const STATE_NAMES: [&str; STATES] = [
    "NEW",
    "STAGING_INPUT",
    "SCHEDULING",
    "SUBMITTING",
    "SUBMITTED",
    "EXECUTING",
    "DONE",
    "FAILED",
    "CANCELED",
];

/// Dense state indices with schema meaning (see [`STATE_NAMES`]).
pub const STATE_EXECUTING: usize = 5;
/// Terminal success index.
pub const STATE_DONE: usize = 6;
/// Terminal/retryable failure index.
pub const STATE_FAILED: usize = 7;
/// Terminal cancellation index.
pub const STATE_CANCELED: usize = 8;

/// Number of backend kinds (dense indices matching `BackendKind as usize`).
pub const BACKENDS: usize = 4;

/// Backend kind names, indexed like `BackendKind as usize` in the core
/// crate: srun, flux, dragon, prrte. Part of the flight-recorder schema.
pub const BACKEND_NAMES: [&str; BACKENDS] = ["srun", "flux", "dragon", "prrte"];

/// Detector thresholds and sampler sizing. Defaults are calibrated for
/// the repo's experiment scales; see DESIGN §8.3 for the rationale.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sampling cadence (virtual time between [`Telemetry::on_sample`]
    /// ticks when driven by the engine sampler).
    pub period: SimDuration,
    /// Ring capacity for time-series samples; the oldest rows drop first
    /// and the drop count is reported in the snapshot.
    pub ring_capacity: usize,
    /// Flight-recorder capacity; alarms past this are counted, not kept.
    pub max_alarms: usize,
    /// Straggler rule: dwell in a state > `straggler_factor` × the rolling
    /// median of completed dwells for that state.
    pub straggler_factor: f64,
    /// Straggler rule: the rolling median needs at least this many
    /// completed dwell observations before the detector arms.
    pub straggler_min_samples: u64,
    /// Straggler rule: absolute dwell floor (seconds). Sub-second medians
    /// (null tasks) would otherwise flag every queued task.
    pub straggler_min_seconds: f64,
    /// Queue-growth rule: regression window, in samples.
    pub growth_window: usize,
    /// Queue-growth rule: minimum depth before growth is alarming.
    pub growth_min_depth: f64,
    /// Queue-growth rule: minimum growth rate (tasks/s over the window).
    pub growth_min_rate: f64,
    /// Saturation rule: agent queue depth at or above this for a full
    /// window sustains a dispatcher-saturation alarm.
    pub saturation_depth: f64,
    /// Collapse rule: utilization below this fraction of the rolling peak
    /// (while work is queued) is a collapse.
    pub collapse_fraction: f64,
    /// Collapse rule: rolling peak must reach this floor before the
    /// detector arms (a ramp-up is not a collapse).
    pub collapse_min_peak: f64,
    /// Straggler rule: track one task in `2^straggler_sample_shift` for
    /// dwell/straggler purposes (uids with the low `shift` bits zero —
    /// deterministic, like sampled distributed tracing). Stragglers come
    /// in cohorts at the scales this repo simulates, so a 1-in-16 sample
    /// still surfaces every systemic stall while keeping the
    /// per-transition cost inside the telemetry overhead budget; set to 0
    /// to track every task. SLO percentiles are never sampled.
    pub straggler_sample_shift: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            period: SimDuration::from_secs(1),
            ring_capacity: 1 << 14,
            max_alarms: 1 << 12,
            straggler_factor: 8.0,
            straggler_min_samples: 32,
            straggler_min_seconds: 1.0,
            growth_window: 16,
            growth_min_depth: 256.0,
            growth_min_rate: 16.0,
            saturation_depth: 4096.0,
            collapse_fraction: 0.25,
            collapse_min_peak: 0.2,
            straggler_sample_shift: 4,
        }
    }
}

impl TelemetryConfig {
    /// Default thresholds at the given sampling cadence.
    pub fn with_period(period: SimDuration) -> Self {
        TelemetryConfig {
            period,
            ..TelemetryConfig::default()
        }
    }
}

/// Low-bit mask selecting the straggler-sampled uid cohort.
#[inline]
fn sample_mask(shift: u32) -> u64 {
    (1u64 << shift) - 1
}

/// No-value sentinels for the packed track fields.
pub(crate) const NO_STATE: u8 = u8::MAX;
pub(crate) const NO_BACKEND: u8 = u8::MAX;
pub(crate) const NO_PARTITION: u32 = u32::MAX;

/// One sampled task's causal context for the straggler detector (16
/// bytes; lives in a dense slab indexed by `uid >> sample_shift`).
#[derive(Clone, Copy)]
struct TaskTrack {
    entered: SimTime,
    partition: u32,
    state: u8,
    backend: u8,
}

impl TaskTrack {
    const EMPTY: TaskTrack = TaskTrack {
        entered: SimTime::ZERO,
        partition: NO_PARTITION,
        state: NO_STATE,
        backend: NO_BACKEND,
    };
}

struct Inner {
    cfg: TelemetryConfig,
    clock: SimClock,
    /// Ring-buffered time series (see [`Sample`]).
    samples: std::collections::VecDeque<Sample>,
    samples_dropped: u64,
    alarms: Vec<Alarm>,
    alarms_dropped: u64,
    /// Submit time per task, indexed directly by uid (the agent allocates
    /// uids densely from zero — same contract as `rp_sim::UidMap`). Kept
    /// for every task so the SLO percentiles are exact, and never cleared
    /// (a Failed task's retry must find its original submit time again).
    submitted_at: Vec<SimTime>,
    /// Straggler tracks for the 1-in-`2^shift` uid-sampled tasks, indexed
    /// by `uid >> shift` (`state == NO_STATE` ⇒ finished/untracked).
    tracks: Vec<TaskTrack>,
    sample_shift: u32,
    /// Per-state arrival queues for the straggler detector: `(uid,
    /// entered)` pushed on every state entry of a sampled task. Sim time
    /// is monotonic, so each queue is sorted by entry time and only its
    /// front can have crossed the dwell threshold — the detector never
    /// scans a task table. Entries are validated lazily against `tracks`
    /// on pop (the task may have moved on or finished since).
    arrivals: [std::collections::VecDeque<(u64, SimTime)>; STATES],
    /// Completed dwell observations per state: the rolling medians the
    /// straggler detector compares against.
    dwell: [HistData; STATES],
    slo: SloTracker,
    detect: DetectorState,
    /// Completions at the previous sample tick (throughput delta base).
    last_completed: u64,
    /// Running max of the exact backend queue high-waters.
    backend_queue_peaks: [f64; BACKENDS],
}

/// Lifecycle counters kept in `Cell`s *outside* the `RefCell`d interior:
/// the most common transitions (neither Executing/Done nor in the
/// straggler-sampled cohort) only bump these, touching no `RefCell`
/// borrow flag and no clock. At paper scale that is over half of ~1.8M
/// calls, which is what keeps the hook inside its <3% overhead budget.
struct HotCounters {
    /// Live population per non-terminal state (terminal states stay 0 —
    /// the lifecycle counters carry those).
    populations: [Cell<u32>; STATES],
    submitted: Cell<u64>,
    completed: Cell<u64>,
    failed: Cell<u64>,
    /// Tasks submitted and not yet Done/Canceled.
    in_flight: Cell<u64>,
    /// `sample_mask(cfg.straggler_sample_shift)`, denormalized out of the
    /// config so the fast path can route without borrowing.
    sample_mask: u64,
}

impl HotCounters {
    #[inline]
    fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }
}

/// Cheap-clone handle on the telemetry collector (single-threaded, like
/// the metrics registry).
#[derive(Clone)]
pub struct Telemetry {
    hot: Rc<HotCounters>,
    inner: Rc<RefCell<Inner>>,
}

impl Telemetry {
    /// A collector reading timestamps from `clock`.
    pub fn new(clock: SimClock, cfg: TelemetryConfig) -> Self {
        Telemetry {
            hot: Rc::new(HotCounters {
                populations: std::array::from_fn(|_| Cell::new(0)),
                submitted: Cell::new(0),
                completed: Cell::new(0),
                failed: Cell::new(0),
                in_flight: Cell::new(0),
                sample_mask: sample_mask(cfg.straggler_sample_shift),
            }),
            inner: Rc::new(RefCell::new(Inner {
                clock,
                samples: std::collections::VecDeque::with_capacity(cfg.ring_capacity.min(1024)),
                samples_dropped: 0,
                alarms: Vec::new(),
                alarms_dropped: 0,
                submitted_at: Vec::new(),
                tracks: Vec::new(),
                sample_shift: cfg.straggler_sample_shift,
                arrivals: std::array::from_fn(|_| std::collections::VecDeque::new()),
                dwell: std::array::from_fn(|_| HistData::new()),
                slo: SloTracker::new(),
                detect: DetectorState::new(),
                last_completed: 0,
                backend_queue_peaks: [0.0; BACKENDS],
                cfg,
            })),
        }
    }

    /// The sampling cadence this collector was configured with.
    pub fn period(&self) -> SimDuration {
        self.inner.borrow().cfg.period
    }

    /// Low-bit uid mask of the straggler-sampled cohort: uids with
    /// `uid & mask == 0` carry straggler tracks. Callers on the
    /// transition hot path may skip assembling backend/partition context
    /// for unsampled uids — [`Telemetry::on_transition`] ignores it.
    pub fn straggler_sample_mask(&self) -> u64 {
        self.hot.sample_mask
    }

    /// A task entered the pipeline (NEW → STAGING_INPUT happens in the
    /// same handler, so the track starts in STAGING_INPUT).
    #[inline]
    pub fn on_submitted(&self, uid: u64) {
        let mut i = self.inner.borrow_mut();
        let i = &mut *i;
        let now = i.clock.now();
        let idx = uid as usize;
        if idx >= i.submitted_at.len() {
            i.submitted_at.resize(idx + 1, SimTime::ZERO);
        }
        i.submitted_at[idx] = now;
        let h = &*self.hot;
        h.populations[1].set(h.populations[1].get() + 1);
        HotCounters::bump(&h.submitted);
        HotCounters::bump(&h.in_flight);
        if uid & h.sample_mask == 0 {
            let t = (uid >> i.sample_shift) as usize;
            if t >= i.tracks.len() {
                i.tracks.resize(t + 1, TaskTrack::EMPTY);
            }
            i.tracks[t] = TaskTrack {
                entered: now,
                partition: NO_PARTITION,
                state: 1,
                backend: NO_BACKEND,
            };
            i.arrivals[1].push_back((uid, now));
        }
    }

    /// Record a fault-injection event in the flight recorder. Called by
    /// the chaos plane when a scheduled fault fires (node failure,
    /// backend crash, hang detection) or a task exhausts its retry
    /// budget. `kind` must be a `'static` detector-style label (e.g.
    /// `"fault_node"`, `"fault_crash"`, `"fault_hang"`,
    /// `"fault_give_up"`); `value` carries the fault-specific magnitude
    /// (node index, retry count). Faults-off runs never call this, so
    /// their alarm stream stays byte-identical to a faultless build.
    #[allow(clippy::too_many_arguments)]
    pub fn on_fault(
        &self,
        kind: &'static str,
        severity: Severity,
        uid: Option<u64>,
        backend: Option<u8>,
        partition: Option<u32>,
        value: f64,
        message: String,
    ) {
        let mut i = self.inner.borrow_mut();
        let i = &mut *i;
        let t = i.clock.now();
        detect::push_alarm(
            i,
            Alarm {
                t,
                kind,
                severity,
                value,
                threshold: 0.0,
                uid,
                state: None,
                backend,
                partition,
                message,
            },
        );
    }

    /// Batched [`Telemetry::on_submitted`]: one interior borrow and one
    /// clock read for the whole batch. Workload submissions arrive in
    /// bulk inside a single engine delivery, so every uid in the batch
    /// shares the same timestamp — the resulting stream is byte-identical
    /// to per-task calls while the hot-path cost amortizes to near zero.
    pub fn on_submitted_batch<I: IntoIterator<Item = u64>>(&self, uids: I) {
        let mut i = self.inner.borrow_mut();
        let i = &mut *i;
        let now = i.clock.now();
        let h = &*self.hot;
        for uid in uids {
            let idx = uid as usize;
            if idx >= i.submitted_at.len() {
                i.submitted_at.resize(idx + 1, SimTime::ZERO);
            }
            i.submitted_at[idx] = now;
            h.populations[1].set(h.populations[1].get() + 1);
            HotCounters::bump(&h.submitted);
            HotCounters::bump(&h.in_flight);
            if uid & h.sample_mask == 0 {
                let t = (uid >> i.sample_shift) as usize;
                if t >= i.tracks.len() {
                    i.tracks.resize(t + 1, TaskTrack::EMPTY);
                }
                i.tracks[t] = TaskTrack {
                    entered: now,
                    partition: NO_PARTITION,
                    state: 1,
                    backend: NO_BACKEND,
                };
                i.arrivals[1].push_back((uid, now));
            }
        }
    }

    /// One task state transition. `from`/`to` are dense state indices
    /// ([`STATE_NAMES`] order); `backend` is a dense backend-kind index
    /// ([`BACKEND_NAMES`] order) once the task is routed.
    ///
    /// This is the hot path: at paper scale it runs ~1.8M times per run
    /// against a <3% wall overhead budget. Transitions that need a
    /// timestamp — Executing/Done (SLO observations, recorded for every
    /// task) and anything on a straggler-sampled uid (see
    /// [`TelemetryConfig::straggler_sample_shift`]) — take the tracked
    /// path; everything else bumps `Cell` counters and returns without
    /// borrowing the interior or reading the clock. Callers must report
    /// [`Telemetry::on_submitted`] first (the sim-plane funnel does):
    /// the fast arms fold unseen uids into the aggregate populations.
    #[inline]
    pub fn on_transition(
        &self,
        uid: u64,
        from: usize,
        to: usize,
        backend: Option<usize>,
        partition: Option<u32>,
    ) {
        let from = from.min(STATES - 1);
        let to = to.min(STATES - 1);
        let h = &*self.hot;
        if to == STATE_EXECUTING || to == STATE_DONE || uid & h.sample_mask == 0 {
            self.transition_tracked(uid, from, to, backend, partition);
            return;
        }
        let p = h.populations[from].get();
        if p > 0 {
            h.populations[from].set(p - 1);
        }
        match to {
            STATE_CANCELED => {
                h.in_flight.set(h.in_flight.get().saturating_sub(1));
            }
            STATE_FAILED => {
                // The task stays tracked: a retry re-enters STAGING_INPUT
                // under the same uid and keeps its original submit time.
                HotCounters::bump(&h.failed);
                h.populations[to].set(h.populations[to].get() + 1);
            }
            _ => h.populations[to].set(h.populations[to].get() + 1),
        }
    }

    /// Tracked arm of [`Telemetry::on_transition`]: SLO observations and
    /// the sampled-cohort dwell/track/arrival bookkeeping — the part that
    /// needs the clock and the `RefCell`d slabs.
    fn transition_tracked(
        &self,
        uid: u64,
        from: usize,
        to: usize,
        backend: Option<usize>,
        partition: Option<u32>,
    ) {
        let mut i = self.inner.borrow_mut();
        let i = &mut *i;
        let idx = uid as usize;
        if idx >= i.submitted_at.len() {
            return; // never saw the submission
        }
        let now = i.clock.now();
        let h = &*self.hot;
        let p = h.populations[from].get();
        if p > 0 {
            h.populations[from].set(p - 1);
        }
        match to {
            STATE_EXECUTING => {
                h.populations[to].set(h.populations[to].get() + 1);
                let ttl = now.saturating_since(i.submitted_at[idx]).as_secs_f64();
                i.slo.record_launch(ttl, uid);
            }
            STATE_DONE => {
                HotCounters::bump(&h.completed);
                h.in_flight.set(h.in_flight.get().saturating_sub(1));
                let ttc = now.saturating_since(i.submitted_at[idx]).as_secs_f64();
                i.slo.record_completion(ttc, uid);
            }
            STATE_CANCELED => {
                h.in_flight.set(h.in_flight.get().saturating_sub(1));
            }
            STATE_FAILED => {
                HotCounters::bump(&h.failed);
                h.populations[to].set(h.populations[to].get() + 1);
            }
            _ => h.populations[to].set(h.populations[to].get() + 1),
        }
        if uid & h.sample_mask == 0 {
            let t = (uid >> i.sample_shift) as usize;
            let Some(track) = i.tracks.get_mut(t) else {
                return;
            };
            if track.state == NO_STATE {
                return; // finished earlier (or never submitted)
            }
            let dwell_s = now.saturating_since(track.entered).as_secs_f64();
            i.dwell[from].record_fast(dwell_s);
            track.entered = now;
            if let Some(b) = backend {
                track.backend = b as u8;
            }
            if let Some(p) = partition {
                track.partition = p;
            }
            if to == STATE_DONE || to == STATE_CANCELED {
                track.state = NO_STATE;
            } else {
                track.state = to as u8;
                i.arrivals[to].push_back((uid, now));
            }
        }
    }

    /// Record one finished task from a completion-record stream: its
    /// time-to-launch and time-to-completion land in the SLO tracker and
    /// the lifecycle counters. This is the rt (threaded) plane's feed,
    /// where the collector lives on a sampler thread and sees finished
    /// records rather than live transitions (the sim plane uses
    /// [`Telemetry::on_submitted`]/[`Telemetry::on_transition`] instead).
    pub fn observe_completed(&self, ttl_seconds: f64, ttc_seconds: f64, failed: bool) {
        let h = &*self.hot;
        HotCounters::bump(&h.submitted);
        if failed {
            HotCounters::bump(&h.failed);
        } else {
            let mut i = self.inner.borrow_mut();
            // A completion-record stream carries no task identity, so
            // these observations never become exemplars.
            i.slo.record_launch(ttl_seconds, slo::NO_UID);
            i.slo.record_completion(ttc_seconds, slo::NO_UID);
            HotCounters::bump(&h.completed);
        }
    }

    /// One periodic sample tick: record a time-series row and run every
    /// detector. On the sim plane the agent calls it from `Actor::sample`
    /// (a sampler registered with `rp_sim::Engine::add_sampler`) with the
    /// gauge snapshot it takes at the boundary `now`; on the rt plane a
    /// sampler thread calls it.
    pub fn on_sample(&self, now: SimTime, input: &SampleInput) {
        let mut i = self.inner.borrow_mut();
        let completed = self.hot.completed.get();
        let period_s = i.cfg.period.as_secs_f64().max(1e-9);
        let throughput = (completed - i.last_completed) as f64 / period_s;
        i.last_completed = completed;
        let util = if input.capacity_cores > 0.0 {
            (input.busy_cores / input.capacity_cores).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let sample = Sample {
            t: now,
            queue_depth: input.queue_depth,
            srun_inflight: input.srun_inflight,
            busy_cores: input.busy_cores,
            busy_gpus: input.busy_gpus,
            util,
            backend_queues: input.backend_queues,
            populations: std::array::from_fn(|s| self.hot.populations[s].get()),
            completed,
            throughput,
            ttl_p99: i.slo.launch_quantile(0.99),
            ttc_p99: i.slo.completion_quantile(0.99),
        };
        for (peak, &v) in i
            .backend_queue_peaks
            .iter_mut()
            .zip(&input.backend_queue_peaks)
        {
            *peak = peak.max(v);
        }
        detect::run_detectors(&mut i, &sample);
        if i.samples.len() >= i.cfg.ring_capacity {
            i.samples.pop_front();
            i.samples_dropped += 1;
        }
        i.samples.push_back(sample);
    }

    /// Immutable copy of everything collected so far.
    pub fn snapshot(&self) -> TelemetryData {
        let i = self.inner.borrow();
        TelemetryData {
            period: i.cfg.period,
            samples: i.samples.iter().cloned().collect(),
            samples_dropped: i.samples_dropped,
            alarms: i.alarms.clone(),
            alarms_dropped: i.alarms_dropped,
            slo: i.slo.snapshot(),
            launch_hist: i.slo.launch_hist().clone(),
            completion_hist: i.slo.completion_hist().clone(),
            submitted: self.hot.submitted.get(),
            completed: self.hot.completed.get(),
            failed: self.hot.failed.get(),
            in_flight: self.hot.in_flight.get(),
            backend_queue_peaks: i.backend_queue_peaks,
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let i = self.inner.borrow();
        f.debug_struct("Telemetry")
            .field("samples", &i.samples.len())
            .field("alarms", &i.alarms.len())
            .finish()
    }
}

/// Immutable snapshot of a run's telemetry: the ring contents, the flight
/// recorder, and the SLO digest. Lands in `RunReport::telemetry`.
#[derive(Debug, Clone, Default)]
pub struct TelemetryData {
    /// Sampling cadence the rows were collected at.
    pub period: SimDuration,
    /// Time-series rows, oldest first (ring contents at snapshot).
    pub samples: Vec<Sample>,
    /// Rows evicted because the ring was full.
    pub samples_dropped: u64,
    /// Flight-recorder alarms, in emission order.
    pub alarms: Vec<Alarm>,
    /// Alarms discarded because the recorder hit capacity.
    pub alarms_dropped: u64,
    /// Running SLO percentiles at snapshot time.
    pub slo: SloSnapshot,
    /// Time-to-launch distribution (histogram the SLO percentiles are
    /// derived from; tests cross-check it against exact span percentiles).
    pub launch_hist: HistData,
    /// Time-to-completion distribution.
    pub completion_hist: HistData,
    /// Tasks that entered the pipeline.
    pub submitted: u64,
    /// Tasks that completed successfully.
    pub completed: u64,
    /// Failure events observed (attempts, not unique tasks).
    pub failed: u64,
    /// Tasks still tracked in flight at snapshot.
    pub in_flight: u64,
    /// Exact backend queue high-waters (as of the last sample), indexed
    /// by [`BACKEND_NAMES`].
    pub backend_queue_peaks: [f64; BACKENDS],
}

impl TelemetryData {
    /// Whether anything was sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty() && self.alarms.is_empty()
    }

    /// The time-series rows as JSONL, one object per sample tick. Output
    /// is deterministic: fixed key order, fixed float formatting.
    pub fn timeseries_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 160);
        for s in &self.samples {
            s.write_jsonl(&mut out);
        }
        out
    }

    /// The flight recorder as JSONL, one object per alarm, each carrying
    /// its causal context (uid / state / backend / partition when known).
    pub fn flight_recorder_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.alarms.len() * 160);
        for a in &self.alarms {
            a.write_jsonl(&mut out);
        }
        out
    }

    /// One-paragraph digest for logs and dashboards.
    pub fn summary(&self) -> String {
        format!(
            "telemetry: {} samples ({} dropped), {} alarms ({} dropped), \
             submitted {} completed {} failed {}; \
             ttl p50/p99/p999 {:.3}/{:.3}/{:.3} s, ttc p50/p99/p999 {:.3}/{:.3}/{:.3} s",
            self.samples.len(),
            self.samples_dropped,
            self.alarms.len(),
            self.alarms_dropped,
            self.submitted,
            self.completed,
            self.failed,
            self.slo.launch_p50,
            self.slo.launch_p99,
            self.slo.launch_p999,
            self.slo.completion_p50,
            self.slo.completion_p99,
            self.slo.completion_p999,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(queue: f64, busy: f64) -> SampleInput {
        SampleInput {
            queue_depth: queue,
            srun_inflight: 0.0,
            busy_cores: busy,
            busy_gpus: 0.0,
            capacity_cores: 100.0,
            backend_queues: [0.0, queue, 0.0, 0.0],
            backend_queue_peaks: [0.0, queue, 0.0, 0.0],
        }
    }

    fn at(clock: &SimClock, s: u64) -> SimTime {
        let t = SimTime::from_secs(s);
        clock.set(t);
        t
    }

    #[test]
    fn lifecycle_feeds_slo_and_populations() {
        let clock = SimClock::new();
        let tel = Telemetry::new(clock.clone(), TelemetryConfig::default());
        tel.on_submitted(7);
        at(&clock, 2);
        tel.on_transition(7, 1, 2, None, None); // staging -> scheduling
        at(&clock, 3);
        tel.on_transition(7, 2, 5, Some(1), Some(0)); // -> executing
        at(&clock, 13);
        tel.on_transition(7, 5, 6, None, None); // -> done
        let snap = tel.snapshot();
        assert_eq!(snap.submitted, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.slo.launches, 1);
        assert_eq!(snap.slo.completions, 1);
        // TTL 3 s, TTC 13 s — bucket upper bounds are within one √2 step.
        assert!(snap.slo.launch_p99 >= 3.0 && snap.slo.launch_p99 <= 3.0 * 1.5);
        assert!(snap.slo.completion_p99 >= 13.0 && snap.slo.completion_p99 <= 13.0 * 1.5);
    }

    #[test]
    fn sample_ring_drops_oldest() {
        let clock = SimClock::new();
        let cfg = TelemetryConfig {
            ring_capacity: 4,
            ..TelemetryConfig::default()
        };
        let tel = Telemetry::new(clock.clone(), cfg);
        for s in 0..10u64 {
            let t = at(&clock, s);
            tel.on_sample(t, &input(0.0, 0.0));
        }
        let snap = tel.snapshot();
        assert_eq!(snap.samples.len(), 4);
        assert_eq!(snap.samples_dropped, 6);
        assert_eq!(snap.samples[0].t, SimTime::from_secs(6));
    }

    #[test]
    fn jsonl_is_deterministic_and_parseable_shape() {
        let clock = SimClock::new();
        let tel = Telemetry::new(clock.clone(), TelemetryConfig::default());
        tel.on_submitted(1);
        let t = at(&clock, 1);
        tel.on_sample(t, &input(3.0, 50.0));
        let a = tel.snapshot().timeseries_jsonl();
        let b = tel.snapshot().timeseries_jsonl();
        assert_eq!(a, b);
        let line = a.lines().next().expect("one sample row");
        assert!(line.starts_with("{\"t\":1.000000,"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(line.contains("\"queue_depth\":3.000000"));
        assert!(line.contains("\"util\":0.500000"));
        assert!(line.contains("\"STAGING_INPUT\":1"));
    }

    #[test]
    fn throughput_is_completions_per_period() {
        let clock = SimClock::new();
        let tel = Telemetry::new(clock.clone(), TelemetryConfig::default());
        for uid in 0..5 {
            tel.on_submitted(uid);
            tel.on_transition(uid, 1, 5, Some(1), Some(0));
        }
        at(&clock, 1);
        for uid in 0..3 {
            tel.on_transition(uid, 5, 6, None, None);
        }
        tel.on_sample(SimTime::from_secs(1), &input(0.0, 2.0));
        at(&clock, 2);
        for uid in 3..5 {
            tel.on_transition(uid, 5, 6, None, None);
        }
        tel.on_sample(SimTime::from_secs(2), &input(0.0, 0.0));
        let snap = tel.snapshot();
        assert_eq!(snap.samples[0].throughput, 3.0);
        assert_eq!(snap.samples[1].throughput, 2.0);
        assert_eq!(snap.samples[1].completed, 5);
    }
}
