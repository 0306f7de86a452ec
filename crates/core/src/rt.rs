//! Real-threaded execution plane: a working pilot at laptop scale.
//!
//! The same architecture as the simulated Agent — task-type-aware routing
//! across concurrently deployed backends, a watcher thread consuming
//! serialized Dragon events, an `srun`-like ceiling-limited launcher — but
//! payloads are real: `FnOnce` closures on a Flux-like instance's reused
//! worker threads, registered functions on a Dragon-like worker pool, both
//! over actual OS threads. A panicking payload is logged as a failed task
//! on every backend. The examples and the quickstart run on this plane; it shares
//! the routing and resource-algebra logic with the simulation, so what the
//! experiments characterize is the same system the examples exercise.

use crate::backend::BackendKind;
use crate::router::{RouteError, Router};
use crate::task::TaskId;
use rp_dragonrt::{decode_event, DragonPool, FunctionCall, FunctionRegistry, PipeEvent};
use rp_fluxrt::FluxRt;
use rp_platform::{NodeSpec, ResourcePool, ResourceRequest};
use rp_serving::{
    ServingOutcome, ServingPlan, ServingReport, ServingSpec, ServingState, ServingTaskKind,
};
use rp_slurm::SrunRt;
use rp_telemetry::{SampleInput, Telemetry, TelemetryConfig, TelemetryData};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for a threaded pilot.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Cores managed by the Flux-like scheduler (one virtual node;
    /// 0 disables the Flux backend).
    pub flux_cores: u16,
    /// Dragon worker threads (0 disables the Dragon backend).
    pub dragon_workers: usize,
    /// Dragon shmem queue capacity.
    pub dragon_queue: usize,
    /// srun-like launcher ceiling (0 disables the srun backend).
    pub srun_ceiling: usize,
    /// Per-launch overhead of the srun-like launcher.
    pub srun_overhead: Duration,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            flux_cores: 8,
            dragon_workers: 4,
            dragon_queue: 1024,
            srun_ceiling: 0,
            srun_overhead: Duration::from_millis(2),
        }
    }
}

/// A payload for the threaded pilot.
pub enum RtPayload {
    /// An "executable": an arbitrary closure (routed to Flux or srun).
    Exec(Box<dyn FnOnce() + Send + 'static>),
    /// A registered function call (routed to Dragon).
    Func {
        /// Registered function name.
        name: String,
        /// Opaque argument bytes.
        args: Vec<u8>,
    },
}

/// A task for the threaded pilot.
pub struct RtTask {
    /// Task uid.
    pub uid: u64,
    /// Cores the task occupies (Flux-routed payloads only).
    pub cores: u16,
    /// The payload.
    pub payload: RtPayload,
}

/// One completion record.
#[derive(Debug, Clone)]
pub struct RtRecord {
    /// Task uid.
    pub uid: TaskId,
    /// Backend that executed the task.
    pub backend: BackendKind,
    /// Submit offset from pilot start (for wall-clock time-to-launch /
    /// time-to-completion telemetry).
    pub submitted: Duration,
    /// Start offset from pilot start.
    pub started: Duration,
    /// End offset from pilot start.
    pub ended: Duration,
    /// Whether the payload failed: it panicked, or its Dragon function
    /// errored.
    pub failed: bool,
}

/// Errors from [`RtPilot::submit`].
#[derive(Debug, PartialEq, Eq)]
pub enum RtError {
    /// Router could not place the task.
    Route(RouteError),
    /// Backend rejected the task.
    Backend(String),
}

struct Shared {
    /// Completion log. Its capacity is grown by [`RtPilot::submit`], so
    /// the threads that log completions only push into spare room.
    records: Mutex<Vec<RtRecord>>,
    dragon_pending: AtomicU64,
    // Submit stamps for Dragon tasks: the watcher thread needs them when it
    // writes the completion record (Flux/srun closures capture theirs).
    dragon_submitted: Mutex<std::collections::HashMap<u64, Duration>>,
}

impl Shared {
    /// Run an executable payload and log its record. A panic marks the
    /// task failed instead of unwinding into the backend's thread.
    fn run_exec(
        &self,
        f: Box<dyn FnOnce() + Send>,
        uid: TaskId,
        backend: BackendKind,
        submitted: Duration,
        t0: Instant,
    ) {
        let started = t0.elapsed();
        let failed = panic::catch_unwind(AssertUnwindSafe(f)).is_err();
        self.records
            .lock()
            .expect("records poisoned")
            .push(RtRecord {
                uid,
                backend,
                submitted,
                started,
                ended: t0.elapsed(),
                failed,
            });
    }
}

/// The threaded pilot.
///
/// ```
/// use rp_core::{RtConfig, RtPayload, RtPilot, RtTask};
/// use rp_dragonrt::FunctionRegistry;
///
/// let registry = FunctionRegistry::new();
/// registry.register("double", |args| {
///     let x = args[0];
///     vec![x * 2]
/// });
/// let pilot = RtPilot::start(RtConfig::default(), registry);
/// pilot
///     .submit(RtTask {
///         uid: 0,
///         cores: 1,
///         payload: RtPayload::Func { name: "double".into(), args: vec![21] },
///     })
///     .unwrap();
/// let records = pilot.shutdown();
/// assert_eq!(records.len(), 1);
/// assert!(!records[0].failed);
/// ```
pub struct RtPilot {
    flux: Option<FluxRt>,
    dragon: Option<DragonPool>,
    srun: Option<SrunRt>,
    srun_handles: Mutex<Vec<JoinHandle<()>>>,
    router: Router,
    shared: Arc<Shared>,
    /// Routed submits so far: an upper bound on the records to come.
    accepted: AtomicUsize,
    watcher: Option<JoinHandle<()>>,
    t0: Instant,
}

impl RtPilot {
    /// Start a pilot with the given backends and function registry.
    pub fn start(cfg: RtConfig, registry: FunctionRegistry) -> Self {
        let shared = Arc::new(Shared {
            records: Mutex::new(Vec::new()),
            dragon_pending: AtomicU64::new(0),
            dragon_submitted: Mutex::new(std::collections::HashMap::new()),
        });
        let t0 = Instant::now();
        let mut deployed = Vec::new();

        let flux = if cfg.flux_cores > 0 {
            deployed.push(BackendKind::Flux);
            let spec = NodeSpec {
                cores: cfg.flux_cores,
                gpus: 0,
                mem_gb: 64,
            };
            Some(FluxRt::start(ResourcePool::over_range(spec, 0, 1)))
        } else {
            None
        };

        let (dragon, watcher) = if cfg.dragon_workers > 0 {
            deployed.push(BackendKind::Dragon);
            let pool = DragonPool::start(cfg.dragon_workers, cfg.dragon_queue, registry);
            // The RP watcher thread (Fig. 3 ③): decode event frames and
            // update the task registry.
            let events = pool.events().clone();
            let shared2 = shared.clone();
            let watcher = std::thread::Builder::new()
                .name("rp-watcher".into())
                .spawn(move || {
                    let mut starts: std::collections::HashMap<u64, Duration> =
                        std::collections::HashMap::new();
                    while let Ok(frame) = events.recv() {
                        let (id, failed) = match decode_event(&frame) {
                            Ok(PipeEvent::Started { id }) => {
                                starts.insert(id, t0.elapsed());
                                continue;
                            }
                            Ok(PipeEvent::Completed { id, .. }) => (id, false),
                            Ok(PipeEvent::Failed { id, .. }) => (id, true),
                            Err(_) => continue,
                        };
                        let started = starts.remove(&id).unwrap_or_else(|| t0.elapsed());
                        let submitted = shared2
                            .dragon_submitted
                            .lock()
                            .expect("submits poisoned")
                            .remove(&id)
                            .unwrap_or(started);
                        shared2
                            .records
                            .lock()
                            .expect("records poisoned")
                            .push(RtRecord {
                                uid: TaskId(id),
                                backend: BackendKind::Dragon,
                                submitted,
                                started,
                                ended: t0.elapsed(),
                                failed,
                            });
                        shared2.dragon_pending.fetch_sub(1, Ordering::AcqRel);
                    }
                })
                .expect("spawn watcher");
            (Some(pool), Some(watcher))
        } else {
            (None, None)
        };

        let srun = if cfg.srun_ceiling > 0 {
            deployed.push(BackendKind::Srun);
            Some(SrunRt::new(cfg.srun_ceiling, cfg.srun_overhead))
        } else {
            None
        };

        RtPilot {
            flux,
            dragon,
            srun,
            srun_handles: Mutex::new(Vec::new()),
            router: Router::new(deployed),
            shared,
            accepted: AtomicUsize::new(0),
            watcher,
            t0,
        }
    }

    /// Submit a task; it is routed by payload kind exactly as on the
    /// simulated plane.
    pub fn submit(&self, task: RtTask) -> Result<BackendKind, RtError> {
        let kind = self.route(&task.payload).map_err(RtError::Route)?;
        self.reserve_record();
        let submitted = self.t0.elapsed();
        match (kind, task.payload) {
            (BackendKind::Dragon, RtPayload::Func { name, args }) => {
                self.shared.dragon_pending.fetch_add(1, Ordering::AcqRel);
                self.shared
                    .dragon_submitted
                    .lock()
                    .expect("submits poisoned")
                    .insert(task.uid, submitted);
                let call = FunctionCall {
                    id: task.uid,
                    name,
                    args,
                };
                let pool = self.dragon.as_ref().expect("dragon deployed");
                // Bounded queue: spin on backpressure, like the sim plane's
                // flow-control window.
                loop {
                    match pool.submit(&call) {
                        Ok(()) => break,
                        Err(rp_dragonrt::PoolError::QueueFull) => std::thread::yield_now(),
                        Err(e) => {
                            self.shared.dragon_pending.fetch_sub(1, Ordering::AcqRel);
                            self.shared
                                .dragon_submitted
                                .lock()
                                .expect("submits poisoned")
                                .remove(&call.id);
                            return Err(RtError::Backend(format!("{e:?}")));
                        }
                    }
                }
                Ok(BackendKind::Dragon)
            }
            (BackendKind::Flux, payload) => {
                let f = match payload {
                    RtPayload::Exec(f) => f,
                    // Flux runs functions through a wrapper process in the
                    // paper's setup; the threaded plane routes them to
                    // Dragon whenever it is deployed, so this arm only
                    // fires in flux-only pilots.
                    RtPayload::Func { .. } => Box::new(|| {}),
                };
                let shared = self.shared.clone();
                let t0 = self.t0;
                let uid = TaskId(task.uid);
                let req = ResourceRequest::single(task.cores.max(1), 0);
                self.flux
                    .as_ref()
                    .expect("flux deployed")
                    .submit(task.uid, req, move || {
                        shared.run_exec(f, uid, BackendKind::Flux, submitted, t0)
                    })
                    .map_err(|e| RtError::Backend(format!("{e:?}")))?;
                Ok(BackendKind::Flux)
            }
            (BackendKind::Srun, payload) => {
                let f = match payload {
                    RtPayload::Exec(f) => f,
                    RtPayload::Func { .. } => unreachable!("router rejects functions on srun"),
                };
                let shared = self.shared.clone();
                let t0 = self.t0;
                let uid = TaskId(task.uid);
                let handle = self
                    .srun
                    .as_ref()
                    .expect("srun deployed")
                    .launch(move || shared.run_exec(f, uid, BackendKind::Srun, submitted, t0));
                self.srun_handles
                    .lock()
                    .expect("handles poisoned")
                    .push(handle);
                Ok(BackendKind::Srun)
            }
            (kind, _) => Err(RtError::Backend(format!(
                "payload/backend mismatch for {kind}"
            ))),
        }
    }

    /// The backend [`Router::route`] picks for an unhinted task of this
    /// payload's kind, without building a task description.
    fn route(&self, payload: &RtPayload) -> Result<BackendKind, RouteError> {
        self.router
            .route_kind(matches!(payload, RtPayload::Func { .. }))
    }

    /// Grow the record log on the submitting thread, under its lock, to
    /// hold a record for every accepted task; the worker and watcher
    /// threads then never reallocate it.
    fn reserve_record(&self) {
        let mut records = self.shared.records.lock().expect("records poisoned");
        let accepted = self.accepted.fetch_add(1, Ordering::Relaxed) + 1;
        let len = records.len();
        records.reserve(accepted - len);
    }

    /// Block until every submitted task has completed.
    pub fn wait_idle(&self) {
        if let Some(flux) = &self.flux {
            flux.wait_idle();
        }
        while self.shared.dragon_pending.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        let handles: Vec<_> = self
            .srun_handles
            .lock()
            .expect("handles poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Completion records so far (cloned snapshot).
    pub fn records(&self) -> Vec<RtRecord> {
        self.shared
            .records
            .lock()
            .expect("records poisoned")
            .clone()
    }

    /// Elapsed wall time since pilot start.
    pub fn elapsed(&self) -> Duration {
        self.t0.elapsed()
    }

    /// Start a wall-clock telemetry sampler for this pilot.
    ///
    /// The sampler thread owns its own [`Telemetry`] collector (the
    /// collector is single-threaded by design) and, every `period`, stamps
    /// its virtual clock from the pilot's wall clock, folds any newly
    /// finished completion records into the SLO tracker, and snapshots the
    /// Dragon backlog as the queue-depth gauge. Stop it with
    /// [`RtTelemetry::stop`] before [`RtPilot::shutdown`] to collect the
    /// [`TelemetryData`]. Wall-clock timestamps mean rt-plane output is
    /// not byte-deterministic — that guarantee holds on the sim plane.
    pub fn telemetry(&self, period: Duration) -> RtTelemetry {
        let shared = self.shared.clone();
        let t0 = self.t0;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("rp-rt-telemetry".into())
            .spawn(move || {
                let clock = rp_sim::SimClock::new();
                let cfg = TelemetryConfig::with_period(rp_sim::SimDuration::from_micros(
                    period.as_micros().max(1) as u64,
                ));
                let tel = Telemetry::new(clock.clone(), cfg);
                let mut seen = 0usize;
                loop {
                    let last = stop2.load(Ordering::Acquire);
                    let now = rp_sim::SimTime::from_micros(t0.elapsed().as_micros() as u64);
                    clock.set(now);
                    {
                        let records = shared.records.lock().expect("records poisoned");
                        for r in &records[seen..] {
                            let ttl = r
                                .started
                                .checked_sub(r.submitted)
                                .unwrap_or_default()
                                .as_secs_f64();
                            let ttc = r
                                .ended
                                .checked_sub(r.submitted)
                                .unwrap_or_default()
                                .as_secs_f64();
                            tel.observe_completed(ttl, ttc, r.failed);
                        }
                        seen = records.len();
                    }
                    let pending = shared.dragon_pending.load(Ordering::Acquire) as f64;
                    let mut backend_queues = [0.0; rp_telemetry::BACKENDS];
                    backend_queues[BackendKind::Dragon as usize] = pending;
                    tel.on_sample(
                        now,
                        &SampleInput {
                            queue_depth: pending,
                            backend_queues,
                            backend_queue_peaks: backend_queues,
                            ..SampleInput::default()
                        },
                    );
                    if last {
                        break;
                    }
                    std::thread::sleep(period);
                }
                tel.snapshot()
            })
            .expect("spawn rt telemetry sampler");
        RtTelemetry { stop, handle }
    }

    /// Drive an open-loop serving session against this pilot on the wall
    /// clock — the threaded twin of `SimSession::with_serving`.
    ///
    /// The arrival schedule is realized up front from `spec` and `seed`
    /// (byte-identical to the DES plane's plan for the same inputs) and
    /// replayed at `speed`× real time: a batch planned at `t` sim seconds
    /// arrives at `t / speed` wall seconds. Admission runs through the
    /// same [`rp_serving::ServingState`] — bounded weighted-fair queues,
    /// shedding, in-flight window — and the books in the returned report
    /// are exact. Latencies are reported in *plan* seconds (wall time ×
    /// `speed`), so knees line up across speeds; like [`Self::telemetry`],
    /// the wall-clock timestamps make them non-deterministic — the
    /// byte-identical guarantee holds on the sim plane only.
    ///
    /// Payload mapping: `null`/`dummy` become closures (sleeping
    /// `dur / speed` wall seconds), `function` calls the registered
    /// function named `"serve"` with empty args (register one, or the
    /// calls are reported failed). Tasks the router cannot place are
    /// accounted as failed terminals so conservation still closes.
    pub fn serve(&self, spec: &ServingSpec, seed: u64, speed: f64) -> ServingReport {
        let speed = if speed > 0.0 { speed } else { 1.0 };
        let plan = ServingPlan::generate(spec, seed);
        let mut state = ServingState::new(spec.clone(), plan);
        let t0 = Instant::now();
        let mut seen = 0usize;
        let batches = state.plan().batches.len() as u32;
        for b in 0..batches {
            let at = state.plan().batches[b as usize].at.as_secs_f64() / speed;
            let at_wall = Duration::from_secs_f64(at);
            loop {
                let now = t0.elapsed();
                if now >= at_wall {
                    break;
                }
                if self.serve_poll(&mut state, &mut seen, speed) {
                    self.serve_pump(&mut state, t0, speed);
                }
                std::thread::sleep((at_wall - now).min(Duration::from_micros(500)));
            }
            state.on_batch(b);
            self.serve_pump(&mut state, t0, speed);
        }
        // Arrivals done: drain the queues and the in-flight window.
        loop {
            if self.serve_poll(&mut state, &mut seen, speed) {
                self.serve_pump(&mut state, t0, speed);
            }
            let r = state.report();
            if state.drained() && r.admitted == r.done + r.failed + r.canceled {
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        state.report()
    }

    /// Fold newly finished completion records into the serving state.
    /// Returns whether any serving task reached a terminal (a freed
    /// window slot means the pump may admit more).
    fn serve_poll(&self, state: &mut ServingState, seen: &mut usize, speed: f64) -> bool {
        let records = self.shared.records.lock().expect("records poisoned");
        let mut freed = false;
        for r in &records[*seen..] {
            if state.index_of(r.uid.0).is_none() {
                continue;
            }
            state.on_launch(r.uid.0, r.started.as_secs_f64() * speed);
            let outcome = if r.failed {
                ServingOutcome::Failed
            } else {
                ServingOutcome::Done
            };
            freed |= state.on_terminal(r.uid.0, r.ended.as_secs_f64() * speed, outcome);
        }
        *seen = records.len();
        freed
    }

    /// Admit what the window allows and submit the mapped payloads.
    fn serve_pump(&self, state: &mut ServingState, t0: Instant, speed: f64) {
        loop {
            let mut released: Vec<u32> = Vec::new();
            state.pump_into(&mut released);
            if released.is_empty() {
                return;
            }
            let dur = Duration::from_secs_f64(state.spec().dur_s / speed);
            for idx in released {
                let uid = state.uid_for(idx);
                let kind = state.plan().tasks[idx as usize].kind;
                let payload = match kind {
                    ServingTaskKind::Null => RtPayload::Exec(Box::new(|| {})),
                    ServingTaskKind::Dummy => RtPayload::Exec(Box::new(move || {
                        std::thread::sleep(dur);
                    })),
                    ServingTaskKind::Function => RtPayload::Func {
                        name: "serve".into(),
                        args: Vec::new(),
                    },
                };
                if self
                    .submit(RtTask {
                        uid,
                        cores: 1,
                        payload,
                    })
                    .is_err()
                {
                    // Unroutable: close the books as a failed terminal.
                    state.on_terminal(
                        uid,
                        t0.elapsed().as_secs_f64() * speed,
                        ServingOutcome::Failed,
                    );
                }
            }
        }
    }

    /// Drain everything, stop all backends, and return the records.
    pub fn shutdown(mut self) -> Vec<RtRecord> {
        self.wait_idle();
        if let Some(f) = self.flux.take() {
            f.shutdown();
        }
        if let Some(d) = self.dragon.take() {
            d.shutdown(); // drops the event sender → watcher exits
        }
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
        let records = std::mem::take(&mut *self.shared.records.lock().expect("records poisoned"));
        records
    }
}

/// Handle to a running rt-plane telemetry sampler (see
/// [`RtPilot::telemetry`]).
pub struct RtTelemetry {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<TelemetryData>,
}

impl RtTelemetry {
    /// Signal the sampler thread to take one final sample and exit, then
    /// join it and return the collected telemetry.
    pub fn stop(self) -> TelemetryData {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("rt telemetry sampler panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn registry() -> FunctionRegistry {
        let reg = FunctionRegistry::new();
        reg.register("square", |args| {
            let x = u64::from_le_bytes(args.try_into().expect("8 bytes"));
            (x * x).to_le_bytes().to_vec()
        });
        reg
    }

    #[test]
    fn hybrid_pilot_routes_and_completes() {
        let pilot = RtPilot::start(RtConfig::default(), registry());
        let counter = Arc::new(AtomicUsize::new(0));
        for uid in 0..20 {
            let c = counter.clone();
            let backend = pilot
                .submit(RtTask {
                    uid,
                    cores: 1,
                    payload: RtPayload::Exec(Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })),
                })
                .unwrap();
            assert_eq!(backend, BackendKind::Flux);
        }
        for uid in 20..40 {
            let backend = pilot
                .submit(RtTask {
                    uid,
                    cores: 1,
                    payload: RtPayload::Func {
                        name: "square".into(),
                        args: 7u64.to_le_bytes().to_vec(),
                    },
                })
                .unwrap();
            assert_eq!(backend, BackendKind::Dragon);
        }
        let records = pilot.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 20);
        assert_eq!(records.len(), 40);
        let dragon = records
            .iter()
            .filter(|r| r.backend == BackendKind::Dragon)
            .count();
        assert_eq!(dragon, 20);
        assert!(records.iter().all(|r| !r.failed));
        assert!(records.iter().all(|r| r.ended >= r.started));
    }

    #[test]
    fn srun_only_pilot_rejects_functions() {
        let cfg = RtConfig {
            flux_cores: 0,
            dragon_workers: 0,
            srun_ceiling: 2,
            ..RtConfig::default()
        };
        let pilot = RtPilot::start(cfg, FunctionRegistry::new());
        let err = pilot.submit(RtTask {
            uid: 0,
            cores: 1,
            payload: RtPayload::Func {
                name: "f".into(),
                args: vec![],
            },
        });
        assert!(matches!(err, Err(RtError::Route(RouteError::NoBackend))));
        let ok = pilot.submit(RtTask {
            uid: 1,
            cores: 1,
            payload: RtPayload::Exec(Box::new(|| {})),
        });
        assert_eq!(ok, Ok(BackendKind::Srun));
        pilot.wait_idle();
        assert_eq!(pilot.records().len(), 1);
    }

    #[test]
    fn rt_telemetry_collects_slo_and_samples() {
        let pilot = RtPilot::start(RtConfig::default(), registry());
        let tel = pilot.telemetry(Duration::from_millis(5));
        for uid in 0..8 {
            pilot
                .submit(RtTask {
                    uid,
                    cores: 1,
                    payload: RtPayload::Func {
                        name: "square".into(),
                        args: 3u64.to_le_bytes().to_vec(),
                    },
                })
                .unwrap();
        }
        pilot.wait_idle();
        let data = tel.stop();
        let records = pilot.shutdown();
        assert_eq!(records.len(), 8);
        assert!(records.iter().all(|r| r.started >= r.submitted));
        // The final sample (taken at stop) folds in every record.
        assert_eq!(data.slo.completions, 8);
        assert_eq!(data.completed, 8);
        assert!(!data.samples.is_empty());
        assert!(data.slo.completion_p99 >= data.slo.launch_p50);
    }

    #[test]
    fn rt_serve_drains_open_loop_traffic_with_exact_books() {
        let reg = FunctionRegistry::new();
        reg.register("serve", |_args| Vec::new());
        let pilot = RtPilot::start(RtConfig::default(), reg);
        // 2 plan-seconds of 200/s mixed traffic at 20× speed ≈ 0.1 s wall.
        let spec = ServingSpec::parse("rate=200,horizon=2,clients=2,kind=mixed,dur=0.01")
            .expect("spec parses");
        let report = pilot.serve(&spec, 42, 20.0);
        assert!(report.offered > 0, "horizon must produce arrivals");
        assert_eq!(
            report.offered,
            report.admitted + report.shed + report.queued,
            "conservation"
        );
        assert_eq!(report.queued, 0, "serve() drains before returning");
        assert_eq!(
            report.admitted,
            report.done + report.failed + report.canceled,
            "every admitted task reached a terminal"
        );
        assert_eq!(report.failed, 0, "registered function must not fail");
        assert_eq!(report.slo.completions, report.done);
        // The plan itself is the deterministic half: same spec + seed
        // yields the same arrival schedule the DES plane uses.
        assert_eq!(
            ServingPlan::generate(&spec, 42),
            ServingPlan::generate(&spec, 42)
        );
        pilot.shutdown();
    }

    /// Run `f` on its own thread and fail if it does not return within
    /// `secs`, so a hung pilot fails the test instead of stalling it.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(secs))
            .expect("pilot hung past its deadline, or the test body panicked")
    }

    #[test]
    fn panicking_payloads_are_failed_records_not_hangs() {
        let records = within(20, || {
            let reg = registry();
            reg.register("boom", |_| panic!("function panic"));
            let cfg = RtConfig {
                flux_cores: 1,
                dragon_workers: 1,
                ..RtConfig::default()
            };
            let pilot = RtPilot::start(cfg, reg);
            let exec = |uid, boom: bool| RtTask {
                uid,
                cores: 1,
                payload: RtPayload::Exec(Box::new(move || assert!(!boom, "closure panic"))),
            };
            let func = |uid, name: &str| RtTask {
                uid,
                cores: 1,
                payload: RtPayload::Func {
                    name: name.into(),
                    args: 2u64.to_le_bytes().to_vec(),
                },
            };
            pilot.submit(exec(0, true)).unwrap();
            pilot.submit(func(1, "boom")).unwrap();
            // The same single Flux worker and Dragon worker run these.
            pilot.submit(exec(2, false)).unwrap();
            pilot.submit(func(3, "square")).unwrap();
            pilot.wait_idle();
            pilot.shutdown()
        });
        let mut outcome: Vec<_> = records.iter().map(|r| (r.uid.0, r.failed)).collect();
        outcome.sort_unstable();
        assert_eq!(outcome, vec![(0, true), (1, true), (2, false), (3, false)]);
    }

    #[test]
    fn submit_routes_exactly_as_the_router_over_every_deployed_set() {
        for mask in 0..8u32 {
            let on = |bit: u32| mask & (1 << bit) != 0;
            let cfg = RtConfig {
                flux_cores: if on(0) { 1 } else { 0 },
                dragon_workers: if on(1) { 1 } else { 0 },
                srun_ceiling: if on(2) { 1 } else { 0 },
                ..RtConfig::default()
            };
            let deployed: Vec<_> = [BackendKind::Flux, BackendKind::Dragon, BackendKind::Srun]
                .into_iter()
                .enumerate()
                .filter(|(bit, _)| on(*bit as u32))
                .map(|(_, k)| k)
                .collect();
            let router = Router::new(deployed.clone());
            let pilot = RtPilot::start(cfg, registry());
            let exec = RtPayload::Exec(Box::new(|| {}));
            let func = RtPayload::Func {
                name: "square".into(),
                args: Vec::new(),
            };
            let desc = |f: bool| {
                if f {
                    crate::task::TaskDescription::function(0, "square", rp_sim::SimDuration::ZERO)
                } else {
                    crate::task::TaskDescription::dummy(0, rp_sim::SimDuration::ZERO)
                }
            };
            assert_eq!(
                pilot.route(&exec),
                router.route(&desc(false)),
                "{deployed:?}"
            );
            assert_eq!(
                pilot.route(&func),
                router.route(&desc(true)),
                "{deployed:?}"
            );
            pilot.shutdown();
        }
    }

    #[test]
    fn failed_function_reported() {
        let pilot = RtPilot::start(
            RtConfig {
                flux_cores: 0,
                ..RtConfig::default()
            },
            FunctionRegistry::new(), // empty: every call fails
        );
        pilot
            .submit(RtTask {
                uid: 5,
                cores: 1,
                payload: RtPayload::Func {
                    name: "missing".into(),
                    args: vec![],
                },
            })
            .unwrap();
        let records = pilot.shutdown();
        assert_eq!(records.len(), 1);
        assert!(records[0].failed);
    }
}
