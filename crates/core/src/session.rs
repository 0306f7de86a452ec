//! Sessions: the top-level API for running a pilot + workload to completion
//! on the simulated platform.

use crate::agent::{AgentMsg, SimAgent};
use crate::backend::BackendKind;
use crate::config::PilotConfig;
use crate::report::RunReport;
use crate::task::TaskDescription;
use crate::workload::{StaticWorkload, WorkloadSource};
use rp_sim::{Actor, Engine, SimDuration, SimTime};

/// Event budget for one run: reaching it means the simulation never
/// quiesces (a model bug), and the engine panics with the offending count.
const MAX_EVENTS: u64 = 2_000_000_000;

/// The deployment shape a fault plan is realized against: one partition
/// per runtime instance, counted in the agent's instance-table order, or
/// the whole allocation as one partition on a srun-only pilot.
fn plan_shape(cfg: &PilotConfig, task_hint: u64) -> rp_chaos::PlanShape {
    let non_srun: u32 = cfg
        .backends
        .iter()
        .filter(|b| b.kind() != BackendKind::Srun)
        .map(|b| b.partitions())
        .sum();
    let instance_structured = non_srun > 0;
    let partitions = if instance_structured { non_srun } else { 1 };
    rp_chaos::PlanShape {
        partitions,
        nodes_per_partition: (cfg.nodes / partitions).max(1),
        instance_structured,
        task_hint,
    }
}

/// Builder/runner for one simulated pilot session.
///
/// ```
/// use rp_core::{PilotConfig, SimSession, TaskDescription};
/// use rp_sim::SimDuration;
///
/// // 4 simulated Frontier nodes under one Flux instance; 100 sleep tasks.
/// let tasks: Vec<TaskDescription> = (0..100)
///     .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(30)))
///     .collect();
/// let report = SimSession::with_tasks(PilotConfig::flux(4, 1), tasks).run();
/// assert_eq!(report.done_tasks().count(), 100);
/// assert!(report.makespan().unwrap() > 30.0);
/// ```
pub struct SimSession {
    cfg: PilotConfig,
    workload: Box<dyn WorkloadSource>,
    cancellations: Vec<(SimTime, Vec<crate::task::TaskId>)>,
    timed_submissions: Vec<(SimTime, Vec<TaskDescription>)>,
    profile_every: Option<SimDuration>,
    metrics_every: Option<SimDuration>,
    telemetry_every: Option<SimDuration>,
    lineage: bool,
    faults: Option<rp_chaos::FaultPlan>,
    serving: Option<(rp_serving::ServingSpec, u64)>,
}

impl SimSession {
    /// A session over `cfg` fed by `workload`.
    pub fn new(cfg: PilotConfig, workload: Box<dyn WorkloadSource>) -> Self {
        SimSession {
            cfg,
            workload,
            cancellations: Vec::new(),
            timed_submissions: Vec::new(),
            profile_every: None,
            metrics_every: None,
            telemetry_every: None,
            lineage: false,
            faults: None,
            serving: None,
        }
    }

    /// Convenience: run a fixed batch of tasks.
    pub fn with_tasks(cfg: PilotConfig, tasks: Vec<TaskDescription>) -> Self {
        Self::new(cfg, Box::new(StaticWorkload::new(tasks)))
    }

    /// Schedule a task batch for submission at virtual time `at` (on top
    /// of whatever the workload source emits) — the trace-replay path.
    pub fn submit_at(mut self, at: SimTime, tasks: Vec<TaskDescription>) -> Self {
        self.timed_submissions.push((at, tasks));
        self
    }

    /// Schedule a best-effort cancellation of `uids` at virtual time `at`.
    pub fn cancel_at(mut self, at: SimTime, uids: Vec<u64>) -> Self {
        self.cancellations
            .push((at, uids.into_iter().map(crate::task::TaskId).collect()));
        self
    }

    /// Enable runtime profiling: utilization gauges sampled every `period`
    /// of virtual time, plus every task-state transition and backend event,
    /// rendered from the lineage stream (so this also attaches lineage, and
    /// [`RunReport::lineage`] is filled). The profile lands in
    /// [`RunReport::profile`].
    pub fn with_profiling(mut self, period: SimDuration) -> Self {
        self.profile_every = Some(period);
        self
    }

    /// Enable the metrics subsystem: queue depth / utilization
    /// distributions sampled every `period` of virtual time and the
    /// pipeline servers' sampled costs, observed as they happen, plus the
    /// per-task families (state dwell, lifecycle and routing counters, the
    /// `rp_backend_*` latencies and counts of every deployed backend),
    /// folded at the end of the run from the lineage stream. This also
    /// attaches lineage, so [`RunReport::lineage`] is filled. The snapshot
    /// lands in [`RunReport::metrics`].
    pub fn with_metrics(mut self, period: SimDuration) -> Self {
        self.metrics_every = Some(period);
        self
    }

    /// Enable streaming telemetry: a ring-buffered time-series sampled
    /// every `period` of virtual time, running SLO percentiles over the
    /// task stream, and online anomaly detectors feeding a flight
    /// recorder. The capture lands in [`RunReport::telemetry`].
    pub fn with_telemetry(mut self, period: SimDuration) -> Self {
        self.telemetry_every = Some(period);
        self
    }

    /// Enable causal-lineage recording: every task's full causal chain
    /// (submit → route → queue dwell → placement attempts → launch →
    /// execute → collect) as compact interned events on the sim clock.
    /// The capture lands in [`RunReport::lineage`]; export it with
    /// [`rp_lineage::LineageData::to_jsonl`] for a byte-deterministic
    /// on-disk trace.
    pub fn with_lineage(mut self) -> Self {
        self.lineage = true;
        self
    }

    /// Enable the deterministic fault-injection plane: realize `spec`
    /// against this pilot's deployment shape under `fault_seed` (an RNG
    /// stream separate from the experiment seed, so the workload and
    /// backend draws are untouched) and schedule every resulting fault as
    /// an ordinary engine event. `task_hint` bounds the uid space used to
    /// pick hang victims — pass the workload size (0 disables hangs).
    ///
    /// A fixed `fault_seed` yields a byte-identical fault schedule — and
    /// therefore byte-identical reports — across repeat runs; an inactive
    /// `spec` stores no plan, leaving the run byte-identical to one without
    /// this call.
    pub fn with_faults(
        mut self,
        spec: rp_chaos::FaultSpec,
        fault_seed: u64,
        task_hint: u64,
    ) -> Self {
        self.faults = spec.is_active().then(|| {
            let shape = plan_shape(&self.cfg, task_hint);
            rp_chaos::FaultPlan::generate(&spec, fault_seed, &shape)
        });
        self
    }

    /// Run under a fault plan the caller built. Its partition indices name
    /// the agent's instance table (Flux instances first, then Dragon, then
    /// PRRTE; a srun-only pilot's one partition is its srun allocation),
    /// and its node indices count from 0 within the partition. A partition
    /// index past the table, or a node index past the partition, names
    /// nothing and is ignored: it reaps no task and raises no alarm.
    pub fn with_fault_plan(mut self, plan: rp_chaos::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable the open-loop serving plane: realize `spec`'s arrival
    /// process under `serving_seed` (its own RNG lane, separate from the
    /// experiment and fault seeds, so workload and backend draws are
    /// untouched) and schedule every arrival batch as an ordinary engine
    /// event. The agent admits arrivals through weighted-fair bounded
    /// queues and reports the books in [`RunReport::serving`].
    ///
    /// A fixed `serving_seed` yields a byte-identical arrival schedule —
    /// and therefore byte-identical reports — across repeat runs; an
    /// inactive `spec` leaves the run byte-identical to one without this
    /// call.
    pub fn with_serving(mut self, spec: rp_serving::ServingSpec, serving_seed: u64) -> Self {
        self.serving = Some((spec, serving_seed));
        self
    }

    /// Run to quiescence and report.
    pub fn run(self) -> RunReport {
        let nodes = self.cfg.nodes;
        let spec = rp_platform::frontier().node;
        let mut engine: Engine<AgentMsg, SimAgent> = Engine::new();
        let mut agent = SimAgent::new(self.cfg, self.workload);

        // Profiling: the agent's profile samples write gauge rows; the
        // instants are rendered from lineage after the run.
        let profiled = self.profile_every.is_some();
        if profiled {
            agent.attach_profile();
        }
        // Metrics and telemetry are sampled the same way; sim-clock
        // timestamps keep every stream deterministic per seed.
        let registry = self.metrics_every.map(|_| {
            let reg = rp_metrics::Registry::new();
            let families = agent.attach_metrics(&reg);
            (reg, families)
        });
        let telemetry = self.telemetry_every.map(|period| {
            let tel = rp_telemetry::Telemetry::new(
                engine.clock(),
                rp_telemetry::TelemetryConfig::with_period(period),
            );
            agent.attach_telemetry(tel.clone());
            tel
        });
        // Lineage reads the engine clock directly and schedules nothing,
        // so recording never perturbs the event stream. The profile and
        // the per-task metric families are folded from it after the run.
        let lineage = (self.lineage || profiled || registry.is_some()).then(|| {
            let lin = rp_lineage::Lineage::new(engine.clock());
            agent.attach_lineage(lin.clone());
            lin
        });
        // Hand the plan to the agent (policy + hang victims + counters)
        // and keep the event schedule to feed the engine below.
        let fault_events = self.faults.map(|plan| {
            let events = plan.events.clone();
            agent.enable_faults(plan);
            events
        });
        // Realize the serving plan the same way: an inactive spec yields
        // no state at all, so serving-off runs stay byte-identical to
        // runs that never called `with_serving`.
        let batch_times: Vec<SimTime> = match &self.serving {
            Some((sspec, serving_seed)) if sspec.is_active() => {
                let plan = rp_serving::ServingPlan::generate(sspec, *serving_seed);
                let times = plan.batches.iter().map(|b| b.at).collect();
                agent.enable_serving(rp_serving::ServingState::new(sspec.clone(), plan));
                times
            }
            _ => Vec::new(),
        };
        let id = engine.add_actor(agent);
        // One sampler per attached sink, each a gauge snapshot the agent
        // takes at the sample boundary.
        for (every, sink) in [
            (self.profile_every, SimAgent::SAMPLE_PROFILE),
            (self.metrics_every, SimAgent::SAMPLE_METRICS),
            (self.telemetry_every, SimAgent::SAMPLE_TELEMETRY),
        ] {
            if let Some(period) = every {
                engine.add_sampler(period, sink);
            }
        }
        engine.schedule(SimTime::ZERO, id, AgentMsg::Init);
        for e in fault_events.into_iter().flatten() {
            engine.schedule(e.at, id, AgentMsg::Fault(e.action));
        }
        for (at, uids) in self.cancellations {
            engine.schedule(at, id, AgentMsg::CancelTasks(uids));
        }
        for (at, tasks) in self.timed_submissions {
            engine.schedule(at, id, AgentMsg::Submit(tasks));
        }
        for (b, at) in batch_times.into_iter().enumerate() {
            engine.schedule(at, id, AgentMsg::ServingArrive(b as u32));
        }
        let end = engine.run_until_idle(MAX_EVENTS);
        if registry.is_some() {
            // The exported pipeline gauges hold the end-of-run snapshot.
            engine.actor_mut().sample(end, SimAgent::SAMPLE_END);
        }
        let (delivered, peak_queue_depth) = (engine.delivered(), engine.peak_queue_depth());
        let (mut st, profile, serving) = engine.into_actor().into_parts();

        // Close out the pilot lifecycle if it is still live (quiescence
        // with everything drained = Done).
        if !st.pilot.current().is_terminal()
            && st.pilot.current() == crate::pilot::PilotState::Active
        {
            st.pilot.advance(crate::pilot::PilotState::Done, end);
            if let Some(lin) = &lineage {
                lin.record_ctx(
                    rp_lineage::META_UID,
                    rp_lineage::EV_PILOT,
                    crate::pilot::PilotState::Done as u16,
                    rp_lineage::NO_BACKEND,
                    rp_lineage::NO_PARTITION,
                    rp_lineage::NO_VALUE,
                );
            }
        }
        if let Some(lin) = &lineage {
            // Run-scope closing record: total engine deliveries, so a
            // lineage file alone can certify two runs executed the same
            // event count.
            lin.record_ctx(
                rp_lineage::META_UID,
                rp_lineage::EV_RUN_END,
                rp_lineage::NO_DETAIL,
                rp_lineage::NO_BACKEND,
                rp_lineage::NO_PARTITION,
                delivered,
            );
        }
        let profile = profile.map(|data| {
            let lin = lineage.as_ref().expect("profiling attaches lineage");
            crate::profile::render(lin, data)
        });
        let metrics = registry.map(|(reg, families)| {
            let lin = lineage.as_ref().expect("metrics attach lineage");
            crate::metrics::fold(lin, &st, &families);
            // Engine-level stats go in just before the snapshot so they
            // reflect the whole run.
            reg.counter(
                "rp_engine_events_total",
                &[],
                "Discrete events the engine delivered",
            )
            .add(delivered);
            reg.gauge(
                "rp_engine_peak_queue_depth",
                &[],
                "Peak length of the engine's pending-event queue",
            )
            .set(peak_queue_depth as f64);
            reg.snapshot()
        });
        let tasks = st.take_tasks();
        RunReport {
            nodes,
            total_cores: nodes as u64 * spec.cores as u64,
            total_gpus: nodes as u64 * spec.gpus as u64,
            tasks,
            instances: std::mem::take(&mut st.instances),
            services: std::mem::take(&mut st.services),
            pilot: std::mem::take(&mut st.pilot),
            agent_ready: st.agent_ready,
            end,
            profile,
            metrics,
            telemetry: telemetry.map(|tel| tel.snapshot()),
            lineage: lineage.map(|lin| lin.snapshot()),
            serving: serving.map(|state| state.report()),
        }
    }
}

/// Monotonic uid generator for workload builders.
#[derive(Debug, Default)]
pub struct UidGen(u64);

impl UidGen {
    /// Start at zero.
    pub fn new() -> Self {
        UidGen(0)
    }

    /// Next unique id.
    pub fn next_id(&mut self) -> u64 {
        let id = self.0;
        self.0 += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskDescription, TaskState};
    use rp_chaos::{FaultAction, FaultEvent, FaultPlan, RecoveryPolicy};
    use rp_sim::SimDuration;

    /// Crash entry `partition` of the instance table at `secs` with no
    /// restart; its victims re-stage at once, steered elsewhere.
    fn crash_plan(secs: u64, partition: u32) -> FaultPlan {
        FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::from_secs(secs),
                action: FaultAction::CrashBackend { partition },
            }],
            hang_victims: Vec::new(),
            watchdog: SimDuration::ZERO,
            policy: RecoveryPolicy::ResubmitElsewhere,
            max_retries: None,
        }
    }

    /// The tasks a crash at `secs` took down are the ones that failed at
    /// that instant; each carries exactly one `FAULT_CRASH` fault event,
    /// and no other task carries one.
    fn assert_crash_victims_carry_fault(report: &RunReport, secs: u64) {
        let lin = report.lineage.as_ref().expect("lineage attached");
        let at = SimTime::from_secs(secs);
        let mut victims = 0;
        for uid in lin.uids() {
            let events = lin.events_for(uid);
            let crash_faults = events
                .iter()
                .filter(|e| e.kind == rp_lineage::EV_FAULT && e.detail == rp_lineage::FAULT_CRASH)
                .count();
            let taken_down = events
                .iter()
                .any(|e| e.kind == rp_lineage::EV_FAILED && e.t == at);
            assert_eq!(crash_faults, usize::from(taken_down), "task {uid}");
            victims += crash_faults;
        }
        assert!(victims > 0, "the crash took tasks down");
    }

    #[test]
    fn null_batch_on_flux_completes() {
        let tasks: Vec<TaskDescription> = (0..200).map(TaskDescription::null).collect();
        let report = SimSession::with_tasks(PilotConfig::flux(4, 1), tasks).run();
        assert_eq!(report.tasks.len(), 200);
        assert!(report.tasks.iter().all(|t| t.state == TaskState::Done));
        assert_eq!(report.failed_count(), 0);
        // Flux instance bootstrap ≈ 20 s; everything flows after that.
        let overhead = report.instances[0].bootstrap_overhead().unwrap();
        assert!((14.0..27.0).contains(&overhead), "flux overhead {overhead}");
    }

    #[test]
    fn dummy_batch_on_srun_hits_ceiling() {
        // Fig. 4 reproduction in miniature: the running-task concurrency
        // must plateau at the 112-step ceiling.
        let tasks: Vec<TaskDescription> = (0..896)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(180)))
            .collect();
        let report = SimSession::with_tasks(PilotConfig::srun(4), tasks).run();
        assert!(report.tasks.iter().all(|t| t.state == TaskState::Done));
        // Reconstruct peak concurrency from exec spans.
        let mut events: Vec<(u64, i64)> = Vec::new();
        for t in &report.tasks {
            events.push((t.exec_start.unwrap().as_micros(), 1));
            events.push((t.exec_end.unwrap().as_micros(), -1));
        }
        events.sort();
        let mut level = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            level += d;
            peak = peak.max(level);
        }
        assert_eq!(peak, 112, "concurrency must ride the srun ceiling");
    }

    #[test]
    fn hybrid_routes_by_task_kind() {
        let mut tasks = Vec::new();
        for i in 0..50 {
            tasks.push(TaskDescription::dummy(i, SimDuration::ZERO));
        }
        for i in 50..100 {
            tasks.push(TaskDescription::function(i, "f", SimDuration::ZERO));
        }
        let report = SimSession::with_tasks(PilotConfig::flux_dragon(4, 2), tasks).run();
        assert!(report.tasks.iter().all(|t| t.state == TaskState::Done));
        for t in &report.tasks {
            let expect = if t.is_function {
                BackendKind::Dragon
            } else {
                BackendKind::Flux
            };
            assert_eq!(t.backend, Some(expect), "task {}", t.uid);
        }
    }

    #[test]
    fn flux_partitions_share_load() {
        let tasks: Vec<TaskDescription> = (0..400).map(TaskDescription::null).collect();
        let report = SimSession::with_tasks(PilotConfig::flux(4, 4), tasks).run();
        let mut per_part = [0usize; 4];
        for t in &report.tasks {
            per_part[t.partition.unwrap() as usize] += 1;
        }
        assert_eq!(per_part.iter().sum::<usize>(), 400);
        for (i, &n) in per_part.iter().enumerate() {
            assert_eq!(n, 100, "partition {i} should get an equal share");
        }
    }

    #[test]
    fn instance_failure_triggers_failover() {
        let tasks: Vec<TaskDescription> = (0..300)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(60)))
            .collect();
        let report = SimSession::with_tasks(PilotConfig::flux(4, 2), tasks)
            .with_fault_plan(crash_plan(40, 0))
            .with_lineage()
            .run();
        let killed = report.instances.iter().filter(|i| i.killed).count();
        assert_eq!(killed, 1);
        assert_crash_victims_carry_fault(&report, 40);
        // Everything still finishes: lost tasks retried on the survivor.
        let done = report
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Done)
            .count();
        assert_eq!(done, 300, "all tasks must finish via failover");
        let retried = report.tasks.iter().filter(|t| t.retries > 0).count();
        assert!(retried > 0, "some tasks must have been retried");
        // Retried tasks end on the surviving partition.
        for t in report.tasks.iter().filter(|t| t.retries > 0) {
            assert_eq!(t.partition, Some(1), "retries land on the survivor");
        }
    }

    #[test]
    fn crash_past_the_instance_table_kills_nothing() {
        // flux(4, 2) deploys two instances: partition 2 names none.
        let tasks: Vec<TaskDescription> = (0..100)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(60)))
            .collect();
        let report = SimSession::with_tasks(PilotConfig::flux(4, 2), tasks)
            .with_fault_plan(crash_plan(40, 2))
            .run();
        assert!(report.instances.iter().all(|i| !i.killed));
        assert_eq!(report.done_tasks().count(), 100);
        assert!(report.tasks.iter().all(|t| t.retries == 0));
    }

    #[test]
    fn function_on_srun_only_pilot_fails_permanently() {
        let tasks = vec![TaskDescription::function(0, "f", SimDuration::ZERO)];
        let report = SimSession::with_tasks(PilotConfig::srun(2), tasks).run();
        assert_eq!(report.failed_count(), 1);
        assert_eq!(report.tasks[0].state, TaskState::Failed);
    }

    #[test]
    fn services_span_the_workload() {
        use crate::service::ServiceDescription;
        use crate::workload::{ResourceView, WorkloadSource};

        struct RlLoop {
            tasks: Vec<TaskDescription>,
        }
        impl WorkloadSource for RlLoop {
            fn services(&mut self) -> Vec<ServiceDescription> {
                vec![
                    ServiceDescription::new(0, "learner", 16, 4),
                    ServiceDescription::new(1, "replay-buffer", 8, 0),
                    // Impossible footprint: must be reported as failed.
                    ServiceDescription::new(2, "too-big", 16, 16),
                ]
            }
            fn initial(&mut self, _view: &ResourceView) -> Vec<TaskDescription> {
                std::mem::take(&mut self.tasks)
            }
        }

        let tasks: Vec<TaskDescription> = (10..40)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(30)))
            .collect();
        let report = SimSession::new(PilotConfig::flux(4, 1), Box::new(RlLoop { tasks })).run();
        assert_eq!(report.services.len(), 3);
        let learner = &report.services[0];
        assert!(!learner.failed);
        assert_eq!(learner.backend, Some(BackendKind::Flux));
        let uptime = learner.uptime_s().expect("ran");
        assert!(uptime >= 30.0, "service must span the workload: {uptime}");
        let too_big = report
            .services
            .iter()
            .find(|s| s.name == "too-big")
            .unwrap();
        assert!(too_big.failed, "16 gpus/node never fits");
        // Tasks all completed around the held resources.
        assert_eq!(report.done_tasks().count(), 30);
        // Service stop happens at the last task's terminal event.
        let last_end = report.last_end().unwrap();
        assert_eq!(learner.stopped, Some(last_end));
    }

    #[test]
    fn crash_ends_the_service_holds_of_its_instance() {
        use crate::service::ServiceDescription;
        use crate::workload::{ResourceView, WorkloadSource};

        /// One node-sized service beside 224 one-core 100 s tasks.
        struct Held;
        impl WorkloadSource for Held {
            fn services(&mut self) -> Vec<ServiceDescription> {
                vec![ServiceDescription::new(0, "learner", 56, 8)]
            }
            fn initial(&mut self, _view: &ResourceView) -> Vec<TaskDescription> {
                (0..224)
                    .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(100)))
                    .collect()
            }
        }

        let mut plan = crash_plan(60, 0);
        plan.events.push(FaultEvent {
            at: SimTime::from_secs(70),
            action: FaultAction::RestartBackend { partition: 0 },
        });
        for cfg in [
            PilotConfig::flux(2, 1),
            PilotConfig::dragon(2),
            PilotConfig::prrte(2),
        ] {
            let kind = cfg.backends[0].kind();
            let report = SimSession::new(cfg, Box::new(Held))
                .with_fault_plan(plan.clone())
                .run();
            assert_eq!(report.done_tasks().count(), 224, "{kind}");
            let service = &report.services[0];
            assert!(!service.failed && service.started.is_some(), "{kind}");
            // A Flux broker or a Dragon runtime takes its reservations
            // down with it; RP's PRRTE pool outlives the DVM, so that
            // service runs until the workload drains.
            let stopped = if kind == BackendKind::Prrte {
                report.last_end()
            } else {
                Some(SimTime::from_secs(60))
            };
            assert_eq!(service.stopped, stopped, "{kind}");
        }
    }

    #[test]
    fn least_loaded_routing_spreads_executables() {
        use crate::router::RoutingPolicy;
        // All-executable workload on a hybrid pilot: TypeAware sends
        // everything to Flux; LeastLoaded spills onto Dragon's spawn mode.
        let tasks = || -> Vec<TaskDescription> {
            (0..400)
                .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(30)))
                .collect()
        };
        let static_run = SimSession::with_tasks(PilotConfig::flux_dragon(4, 1), tasks()).run();
        assert!(static_run
            .tasks
            .iter()
            .all(|t| t.backend == Some(BackendKind::Flux)));

        let dynamic_run = SimSession::with_tasks(
            PilotConfig::flux_dragon(4, 1).with_routing(RoutingPolicy::LeastLoaded),
            tasks(),
        )
        .run();
        let on_dragon = dynamic_run
            .tasks
            .iter()
            .filter(|t| t.backend == Some(BackendKind::Dragon))
            .count();
        let on_flux = dynamic_run
            .tasks
            .iter()
            .filter(|t| t.backend == Some(BackendKind::Flux))
            .count();
        assert!(on_dragon > 20, "dragon must absorb load: {on_dragon}");
        assert!(on_flux > 50, "flux must keep load: {on_flux}");
        assert!(dynamic_run.tasks.iter().all(|t| t.state == TaskState::Done));
    }

    #[test]
    fn cancellation_is_best_effort() {
        // 2 nodes = 112 cores; 400 single-core 100 s tasks => the first
        // wave of ~112 launches, the rest queue. Cancel everything at
        // t=60 s: queued tasks cancel, the running wave completes.
        let tasks: Vec<TaskDescription> = (0..400)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(100)))
            .collect();
        let report = SimSession::with_tasks(PilotConfig::flux(2, 1).with_seed(2), tasks)
            .cancel_at(SimTime::from_secs(60), (0..400).collect())
            .run();
        let done = report
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Done)
            .count();
        let canceled = report
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Canceled)
            .count();
        assert_eq!(done + canceled, 400);
        assert!(done >= 100, "the running wave completes: done={done}");
        assert!(canceled >= 200, "the backlog cancels: canceled={canceled}");
        // Canceled tasks never started.
        assert!(report
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Canceled)
            .all(|t| t.exec_start.is_none()));
        // Makespan ends with the running wave, far before 400 tasks' worth.
        assert!(report.makespan().unwrap() < 400.0);
    }

    #[test]
    fn cancel_unknown_or_finished_is_harmless() {
        let tasks: Vec<TaskDescription> = (0..10).map(TaskDescription::null).collect();
        let report = SimSession::with_tasks(PilotConfig::flux(1, 1), tasks)
            .cancel_at(SimTime::from_secs(500), vec![3, 999])
            .run();
        assert_eq!(report.done_tasks().count(), 10);
    }

    #[test]
    fn prrte_backend_runs_executables() {
        let tasks: Vec<TaskDescription> = (0..300).map(TaskDescription::null).collect();
        let report = SimSession::with_tasks(PilotConfig::prrte(4), tasks).run();
        assert!(report.tasks.iter().all(|t| t.state == TaskState::Done));
        assert!(report
            .tasks
            .iter()
            .all(|t| t.backend == Some(BackendKind::Prrte)));
        // DVM bootstrap is faster than Flux's (paper §5: minimalist design).
        let overhead = report.instances[0].bootstrap_overhead().unwrap();
        assert!((2.0..8.0).contains(&overhead), "dvm overhead {overhead}");
    }

    #[test]
    fn prrte_places_like_rp_should() {
        // Multi-node MPI tasks must be placed by RP before launch: with 4
        // nodes and 2-node tasks, at most 2 run concurrently.
        let tasks: Vec<TaskDescription> = (0..8)
            .map(|i| TaskDescription {
                uid: crate::task::TaskId(i),
                kind: crate::task::TaskKind::Executable { name: "mpi".into() },
                req: rp_platform::ResourceRequest::mpi(2, 56, 0),
                duration: SimDuration::from_secs(50),
                backend_hint: None,
                label: crate::task::Name::EMPTY,
            })
            .collect();
        let report = SimSession::with_tasks(PilotConfig::prrte(4), tasks).run();
        assert!(report.tasks.iter().all(|t| t.state == TaskState::Done));
        // Peak concurrency bounded by placement (2 × 2 nodes = 4 nodes).
        let mut events: Vec<(u64, i64)> = Vec::new();
        for t in &report.tasks {
            events.push((t.exec_start.unwrap().as_micros(), 1));
            events.push((t.exec_end.unwrap().as_micros(), -1));
        }
        events.sort();
        let mut level = 0;
        let mut peak = 0;
        for (_, d) in events {
            level += d;
            peak = peak.max(level);
        }
        assert!(peak <= 2, "placement must cap concurrency at 2, got {peak}");
    }

    #[test]
    fn prrte_dvm_crash_fails_over_to_survivor() {
        let tasks: Vec<TaskDescription> = (0..200)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(60)))
            .collect();
        let report = SimSession::with_tasks(
            PilotConfig::new(
                8,
                vec![crate::backend::BackendSpec::Prrte { partitions: 2 }],
            ),
            tasks,
        )
        .with_fault_plan(crash_plan(30, 0))
        .with_lineage()
        .run();
        let done = report
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Done)
            .count();
        assert_eq!(done, 200, "failover recovers all PRRTE tasks");
        assert!(report.tasks.iter().any(|t| t.retries > 0));
        assert_crash_victims_carry_fault(&report, 30);
    }

    #[test]
    fn three_backend_pilot_routes_each_kind() {
        use crate::backend::BackendSpec;
        // Flux + Dragon + PRRTE in one pilot; hints steer executables to
        // PRRTE, functions go to Dragon, unhinted executables to Flux.
        let cfg = PilotConfig::new(
            12,
            vec![
                BackendSpec::Flux {
                    partitions: 2,
                    backfill: true,
                },
                BackendSpec::Dragon { partitions: 1 },
                BackendSpec::Prrte { partitions: 1 },
            ],
        );
        let mut tasks = Vec::new();
        for i in 0..30 {
            tasks.push(TaskDescription::dummy(i, SimDuration::from_secs(5)));
        }
        for i in 30..60 {
            tasks.push(TaskDescription::function(i, "f", SimDuration::from_secs(5)));
        }
        for i in 60..90 {
            let mut t = TaskDescription::dummy(i, SimDuration::from_secs(5));
            t.backend_hint = Some(BackendKind::Prrte);
            tasks.push(t);
        }
        let report = SimSession::with_tasks(cfg, tasks).run();
        assert!(report.tasks.iter().all(|t| t.state == TaskState::Done));
        let by = |k: BackendKind| report.tasks.iter().filter(|t| t.backend == Some(k)).count();
        assert_eq!(by(BackendKind::Flux), 30);
        assert_eq!(by(BackendKind::Dragon), 30);
        assert_eq!(by(BackendKind::Prrte), 30);
        // All four instance reports exist and booted.
        assert_eq!(report.instances.len(), 4);
        assert!(report.instances.iter().all(|i| i.ready.is_some()));
    }

    #[test]
    fn workload_sees_correct_resource_view() {
        use crate::workload::{ResourceView, WorkloadSource};
        use std::cell::Cell;
        use std::rc::Rc;

        struct Probe {
            seen: Rc<Cell<Option<ResourceView>>>,
        }
        impl WorkloadSource for Probe {
            fn initial(&mut self, view: &ResourceView) -> Vec<TaskDescription> {
                self.seen.set(Some(*view));
                vec![TaskDescription::null(0)]
            }
        }
        let seen = Rc::new(Cell::new(None));
        let report = SimSession::new(
            PilotConfig::flux_dragon(8, 2),
            Box::new(Probe { seen: seen.clone() }),
        )
        .run();
        assert_eq!(report.done_tasks().count(), 1);
        let view = seen.get().expect("initial called");
        // 8 Frontier nodes: 448 cores / 64 gpus, everything free at start.
        assert_eq!(view.total_cores, 448);
        assert_eq!(view.total_gpus, 64);
        assert_eq!(view.free_cores, 448);
        assert_eq!(view.nodes, 8);
    }

    #[test]
    fn prrte_cancel_at_the_dvm_returns_the_placement() {
        // One 56-core node: 56 one-core tasks fill it and a node-wide task
        // waits for every core. Uid 55 is canceled while it sits in the
        // DVM queue (placed, not yet launched); its core must return to
        // the pool, or the node-wide task never fits.
        let tasks = || {
            let mut tasks: Vec<TaskDescription> = (0..56)
                .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(100)))
                .collect();
            tasks.push(TaskDescription {
                req: rp_platform::ResourceRequest::single(56, 0),
                ..TaskDescription::dummy(56, SimDuration::from_secs(100))
            });
            tasks
        };
        let probe = SimSession::with_tasks(PilotConfig::prrte(1), tasks())
            .with_lineage()
            .run();
        let lineage = probe.lineage.expect("lineage attached");
        let at = |kind| {
            lineage
                .events_for(55)
                .iter()
                .find(|e| e.kind == kind)
                .expect("uid 55 event")
                .t
                .as_micros()
        };
        let (queued, launched) = (
            at(rp_lineage::EV_BACKEND_QUEUE),
            at(rp_lineage::EV_LAUNCH_START),
        );
        assert!(queued + 1 < launched, "uid 55 waits at the DVM");
        let cancel = SimTime::from_micros((queued + launched) / 2);
        let report = SimSession::with_tasks(PilotConfig::prrte(1), tasks())
            .cancel_at(cancel, vec![55])
            .run();
        let state = |uid: u64| report.tasks.iter().find(|t| t.uid.0 == uid).unwrap().state;
        assert_eq!(state(55), TaskState::Canceled);
        assert_eq!(state(56), TaskState::Done, "the node-wide task runs");
        assert_eq!(report.done_tasks().count(), 56);
    }

    #[test]
    fn prrte_crash_returns_the_lost_placements() {
        // One 56-core node: 56 one-core tasks fill it and a node-wide task
        // waits for every core. The DVM crashes at 50 s with the 56
        // running; after the restart the retried tasks and then the
        // node-wide one fit only if the crash gave their cores back.
        let mut tasks: Vec<TaskDescription> = (0..56)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(100)))
            .collect();
        tasks.push(TaskDescription {
            req: rp_platform::ResourceRequest::single(56, 0),
            ..TaskDescription::dummy(56, SimDuration::from_secs(100))
        });
        let spec =
            rp_chaos::FaultSpec::parse("crashes=1,window=50..51,restart=15,retries=5").unwrap();
        let report = SimSession::with_tasks(PilotConfig::prrte(1), tasks)
            .with_faults(spec, 1, 57)
            .run();
        assert!(report.tasks.iter().any(|t| t.retries > 0), "the crash hit");
        assert_eq!(report.done_tasks().count(), 57);
    }

    #[test]
    fn chaos_partitions_index_the_instance_table_in_kind_order() {
        use crate::backend::BackendSpec;
        // The spec lists Dragon before Flux, so the report (spec order)
        // differs from the instance table (flux, dragon, prrte).
        let cfg = PilotConfig::new(
            10,
            vec![
                BackendSpec::Dragon { partitions: 2 },
                BackendSpec::Flux {
                    partitions: 2,
                    backfill: false,
                },
                BackendSpec::Prrte { partitions: 1 },
            ],
        );
        let table = [
            (BackendKind::Flux, 0),
            (BackendKind::Flux, 1),
            (BackendKind::Dragon, 0),
            (BackendKind::Dragon, 1),
            (BackendKind::Prrte, 0),
        ];
        let spec = rp_chaos::FaultSpec::parse("crashes=1,window=100..101,restart=never").unwrap();
        let mut reordered = 0;
        for fault_seed in 0..4 {
            let plan = rp_chaos::FaultPlan::generate(&spec, fault_seed, &plan_shape(&cfg, 60));
            let partition = plan
                .events
                .iter()
                .find_map(|e| match e.action {
                    rp_chaos::FaultAction::CrashBackend { partition } => Some(partition),
                    _ => None,
                })
                .expect("one crash");
            let victim = table[partition as usize % table.len()];
            let tasks: Vec<TaskDescription> = (0..60)
                .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(200)))
                .collect();
            let report = SimSession::with_tasks(cfg.clone(), tasks)
                .with_faults(spec.clone(), fault_seed, 60)
                .run();
            let killed: Vec<(BackendKind, u32)> = report
                .instances
                .iter()
                .filter(|i| i.killed)
                .map(|i| (i.kind, i.partition))
                .collect();
            assert_eq!(killed, vec![victim], "fault seed {fault_seed}");
            let slot = report
                .instances
                .iter()
                .position(|i| (i.kind, i.partition) == victim)
                .unwrap();
            reordered += usize::from(slot != partition as usize % table.len());
        }
        assert!(reordered > 0, "some crash lands where the orders differ");
    }

    #[test]
    fn agent_messages_stay_32_bytes() {
        assert_eq!(std::mem::size_of::<AgentMsg>(), 32);
    }

    #[test]
    fn pilot_trajectory_recorded() {
        use crate::pilot::PilotState;
        let tasks: Vec<TaskDescription> = (0..20).map(TaskDescription::null).collect();
        let report = SimSession::with_tasks(PilotConfig::flux_dragon(4, 1), tasks).run();
        let pilot = &report.pilot;
        assert_eq!(pilot.current(), PilotState::Done);
        let launch = pilot.entered_at(PilotState::Launching).unwrap();
        let boot = pilot.entered_at(PilotState::Bootstrapping).unwrap();
        let active = pilot.entered_at(PilotState::Active).unwrap();
        assert!(launch <= boot && boot <= active);
        // Bootstrap overhead = agent (~5 s) + slowest instance (flux ~20 s
        // behind a ~1 s srun carrier).
        let ov = pilot.bootstrap_overhead_s().unwrap();
        assert!((18.0..35.0).contains(&ov), "pilot bootstrap {ov}");
        // Tasks only start after the pilot went ACTIVE.
        for t in &report.tasks {
            assert!(t.exec_start.unwrap() >= active);
        }
    }

    #[test]
    fn sub_agents_parallelize_the_pipeline() {
        // flux_n-style config: 16 nodes, 8 instances, null tasks. With one
        // global agent scheduler the decision server serializes; with
        // per-partition sub-agents the pipelines run in parallel. The
        // makespan stays flux-throughput-bound either way, so the effect
        // shows in the staged→backend-accepted latency, not the end time.
        let tasks = || -> Vec<TaskDescription> { (0..4000).map(TaskDescription::null).collect() };
        let run = |sub: bool| {
            let report = SimSession::with_tasks(
                PilotConfig::flux(16, 8).with_sub_agents(sub).with_seed(4),
                tasks(),
            )
            .run();
            assert_eq!(report.done_tasks().count(), 4000);
            let (mut total, mut n) = (0.0f64, 0u64);
            for t in &report.tasks {
                let staged = t.staged.expect("done => staged");
                let accepted = t.backend_accepted.expect("done => accepted");
                total += accepted.saturating_since(staged).as_secs_f64();
                n += 1;
            }
            (total / n as f64, report.makespan().expect("ran"))
        };
        let (global_lat, global_mk) = run(false);
        let (sub_lat, sub_mk) = run(true);
        assert!(
            sub_lat < global_lat - 0.5,
            "sub-agents must cut scheduling latency: {sub_lat:.2} vs {global_lat:.2}"
        );
        // And they must not cost anything end to end.
        assert!(
            sub_mk < global_mk * 1.05,
            "sub-agents must not hurt the makespan: {sub_mk:.1} vs {global_mk:.1}"
        );
    }

    #[test]
    fn sub_agents_preserve_correctness_paths() {
        // Hybrid + a backend crash + cancellation, all under sub-agents.
        let tasks: Vec<TaskDescription> = (0..400)
            .map(|i| {
                if i % 2 == 0 {
                    TaskDescription::dummy(i, SimDuration::from_secs(60))
                } else {
                    TaskDescription::function(i, "f", SimDuration::from_secs(60))
                }
            })
            .collect();
        let report = SimSession::with_tasks(
            PilotConfig::flux_dragon(8, 2)
                .with_sub_agents(true)
                .with_seed(9),
            tasks,
        )
        .with_fault_plan(crash_plan(50, 0))
        .cancel_at(SimTime::from_secs(55), vec![399])
        .run();
        let done = report
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Done)
            .count();
        let canceled = report
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Canceled)
            .count();
        assert_eq!(done + canceled, 400, "no task lost under sub-agents");
        assert!(report.tasks.iter().any(|t| t.retries > 0), "failover ran");
    }

    #[test]
    fn metrics_snapshot_covers_lifecycle() {
        let tasks: Vec<TaskDescription> = (0..50)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(10)))
            .collect();
        let report = SimSession::with_tasks(PilotConfig::flux(4, 2), tasks)
            .with_metrics(SimDuration::from_secs(1))
            .run();
        assert_eq!(report.done_tasks().count(), 50);
        let snap = report.metrics.as_ref().expect("metrics enabled");
        assert_eq!(snap.counter("rp_tasks_submitted_total"), Some(50));
        assert_eq!(snap.counter("rp_tasks_completed_total"), Some(50));
        assert_eq!(snap.counter("rp_routed_total{backend=\"flux\"}"), Some(50));
        // Both flux partitions merge into one distribution by dedup.
        let launch = snap
            .histogram("rp_backend_launch_seconds{backend=\"flux\"}")
            .expect("backend kit attached");
        assert_eq!(launch.count(), 50);
        let dwell = snap
            .histogram("rp_task_state_seconds{state=\"EXECUTING\"}")
            .expect("dwell histograms attached");
        assert_eq!(dwell.count(), 50);
        // Dwell is measured between watcher-mediated transitions, so it
        // tracks the 10 s payload to within the watcher latencies.
        assert!(dwell.min() > 9.5, "payload runs 10 s: {}", dwell.min());
        assert!(snap.counter("rp_engine_events_total").unwrap() > 0);
    }

    /// Check a metrics run's per-task families against counts taken
    /// independently: terminal states from the task records, and retries,
    /// routing failures and state exits from the per-uid lineage chains
    /// (the fold walks the stream in time order instead).
    fn assert_fold_matches_records(report: &RunReport) {
        let snap = report.metrics.as_ref().expect("metrics attached");
        let lin = report.lineage.as_ref().expect("metrics attach lineage");
        let entered = |ev: &str| {
            Some(match ev {
                "submit" | "retry" => "STAGING_INPUT",
                "stage_done" => "SCHEDULING",
                "sched_done" => "SUBMITTING",
                "handoff" => "SUBMITTED",
                "exec" => "EXECUTING",
                "done" => "DONE",
                "failed" => "FAILED",
                "canceled" => "CANCELED",
                _ => return None,
            })
        };
        let mut chains: std::collections::BTreeMap<u64, Vec<&str>> = Default::default();
        for e in &lin.events {
            let ev = rp_lineage::EVENT_NAMES[e.kind as usize];
            if e.uid != rp_lineage::META_UID && entered(ev).is_some() {
                chains.entry(e.uid).or_default().push(ev);
            }
        }
        let counter = |name: &str| snap.counter(name).unwrap_or_else(|| panic!("{name}"));
        let records = |s: TaskState| report.tasks.iter().filter(|t| t.state == s).count() as u64;
        assert_eq!(
            counter("rp_tasks_submitted_total"),
            report.tasks.len() as u64
        );
        assert_eq!(
            counter("rp_tasks_completed_total"),
            records(TaskState::Done)
        );
        assert_eq!(
            counter("rp_tasks_canceled_total"),
            records(TaskState::Canceled)
        );
        assert_eq!(counter("rp_tasks_failed_total"), records(TaskState::Failed));
        // Re-staging a parked task is a retry that `rec.retries` does not
        // count, so the retry total comes from the chains.
        let retries = chains
            .values()
            .flatten()
            .filter(|&&ev| ev == "retry")
            .count() as u64;
        assert!(retries >= report.tasks.iter().map(|t| u64::from(t.retries)).sum());
        assert_eq!(counter("rp_task_retries_total"), retries);
        let routing_failed = chains
            .values()
            .filter(|c| c.ends_with(&["stage_done", "failed"]))
            .count() as u64;
        assert_eq!(counter("rp_routing_failed_total"), routing_failed);
        let mut exits: std::collections::BTreeMap<&str, u64> = Default::default();
        for pair in chains.values().flat_map(|c| c.windows(2)) {
            *exits.entry(entered(pair[0]).unwrap()).or_default() += 1;
        }
        for state in [
            TaskState::New,
            TaskState::StagingInput,
            TaskState::Scheduling,
            TaskState::Submitting,
            TaskState::Submitted,
            TaskState::Executing,
            TaskState::Done,
            TaskState::Failed,
            TaskState::Canceled,
        ] {
            let name = crate::agent::state_event_name(state);
            let dwell = snap
                .histogram(&format!("rp_task_state_seconds{{state=\"{name}\"}}"))
                .expect("dwell family registered");
            assert_eq!(
                dwell.count(),
                exits.get(name).copied().unwrap_or(0),
                "{name} exits"
            );
        }
    }

    #[test]
    fn metrics_fold_matches_records_under_faults_retries_cancels_and_routing_failure() {
        use rp_chaos::FaultSpec;
        // One Flux partition crashes at ~60 s and restarts 30 s later:
        // its victims retry after a backoff, find no live partition while
        // the restart is pending and park until it lands (re-staged
        // without a `rec.retries` bump). The backlog still queued at
        // 130 s is canceled.
        let tasks: Vec<TaskDescription> = (0..600)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(60)))
            .collect();
        let spec = FaultSpec::parse("crashes=1,window=60..61,restart=30,retries=4").unwrap();
        let report = SimSession::with_tasks(PilotConfig::flux(4, 1), tasks)
            .with_metrics(SimDuration::from_secs(10))
            .with_faults(spec, 5, 600)
            .cancel_at(SimTime::from_secs(130), (300..600).collect())
            .run();
        let count = |s: TaskState| report.tasks.iter().filter(|t| t.state == s).count();
        assert!(count(TaskState::Canceled) > 0, "the backlog cancels");
        assert!(count(TaskState::Done) > 0);
        let lin = report.lineage.as_ref().unwrap();
        let retries = lin
            .events
            .iter()
            .filter(|e| e.kind == rp_lineage::EV_RETRY)
            .count();
        let rec_retries: u32 = report.tasks.iter().map(|t| u32::from(t.retries)).sum();
        assert!(
            retries > rec_retries as usize,
            "parked tasks re-stage: {retries} retries vs {rec_retries} counted on records"
        );
        assert_fold_matches_records(&report);

        // Function tasks on an srun-only pilot: no backend can host them
        // and no recovery is pending, so routing fails them for good.
        let mut tasks: Vec<TaskDescription> = (0..20)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(5)))
            .collect();
        tasks.extend((20..23).map(|i| TaskDescription::function(i, "f", SimDuration::ZERO)));
        let report = SimSession::with_tasks(PilotConfig::srun(2), tasks)
            .with_metrics(SimDuration::from_secs(10))
            .run();
        let snap = report.metrics.as_ref().unwrap();
        assert_eq!(snap.counter("rp_routing_failed_total"), Some(3));
        assert_eq!(snap.counter("rp_tasks_failed_total"), Some(3));
        assert_fold_matches_records(&report);
    }

    #[test]
    fn chaos_node_failures_recover_and_replay_identically() {
        use rp_chaos::FaultSpec;
        let tasks = || -> Vec<TaskDescription> {
            (0..300)
                .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(60)))
                .collect()
        };
        // retries=4: overlapping faults can kill the same task more than
        // once (crash victims resubmitted onto a partition that then loses
        // a node), so the default budget of 1 would abandon the overlap.
        let spec = FaultSpec::parse("nodes=2,crashes=1,window=40..200,retries=4").unwrap();
        let run = || {
            SimSession::with_tasks(PilotConfig::flux(4, 2), tasks())
                .with_faults(spec.clone(), 7, 300)
                .run()
        };
        let a = run();
        // Every task recovers under the default backoff policy.
        assert_eq!(a.done_tasks().count(), 300, "all tasks recover");
        assert!(
            a.tasks.iter().any(|t| t.retries > 0),
            "faults forced retries"
        );
        // Fixed fault seed => identical replay, field for field.
        let b = run();
        let key = |r: &RunReport| -> Vec<_> {
            r.tasks
                .iter()
                .map(|t| {
                    (
                        t.uid,
                        t.state,
                        t.retries,
                        t.backend,
                        t.partition,
                        t.exec_end,
                    )
                })
                .collect()
        };
        assert_eq!(key(&a), key(&b), "same fault seed must replay exactly");
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn chaos_give_up_policy_abandons_victims() {
        use rp_chaos::FaultSpec;
        let tasks: Vec<TaskDescription> = (0..200)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(120)))
            .collect();
        let spec = FaultSpec::parse("nodes=2,window=60..180,policy=giveup").unwrap();
        let report = SimSession::with_tasks(PilotConfig::flux(4, 1), tasks)
            .with_faults(spec, 11, 200)
            .run();
        let done = report.done_tasks().count();
        let failed = report.failed_count();
        assert_eq!(done + failed, 200, "task conservation under give-up");
        assert!(failed > 0, "a 120 s wave must straddle the fault window");
        assert!(
            report.tasks.iter().all(|t| t.retries == 0),
            "give-up never retries"
        );
    }

    #[test]
    fn chaos_hangs_detected_and_recovered_by_watchdog() {
        use rp_chaos::FaultSpec;
        let tasks: Vec<TaskDescription> = (0..100)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(20)))
            .collect();
        let spec = FaultSpec::parse("hangs=5,watchdog=45").unwrap();
        let report = SimSession::with_tasks(PilotConfig::flux(4, 1), tasks)
            .with_faults(spec, 3, 100)
            .run();
        assert_eq!(report.done_tasks().count(), 100, "watchdog recovers hangs");
        let retried = report.tasks.iter().filter(|t| t.retries > 0).count();
        assert!(retried >= 1, "hang victims must have retried");
    }

    #[test]
    fn chaos_resubmit_elsewhere_avoids_the_faulted_partition() {
        use rp_chaos::FaultSpec;
        let tasks: Vec<TaskDescription> = (0..300)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(90)))
            .collect();
        let spec =
            FaultSpec::parse("crashes=1,window=60..61,restart=never,policy=elsewhere").unwrap();
        let report = SimSession::with_tasks(PilotConfig::flux(4, 2), tasks)
            .with_faults(spec, 5, 300)
            .run();
        assert_eq!(report.done_tasks().count(), 300);
        let crashed: Vec<u32> = report
            .instances
            .iter()
            .enumerate()
            .filter(|(_, i)| i.killed)
            .map(|(idx, _)| idx as u32)
            .collect();
        assert_eq!(crashed.len(), 1, "exactly one instance crashes");
        // Every fault-retried task must land away from the dead partition.
        for t in report.tasks.iter().filter(|t| t.retries > 0) {
            assert_ne!(
                t.partition,
                Some(crashed[0]),
                "task {} resubmitted onto the crashed partition",
                t.uid
            );
        }
    }

    #[test]
    fn faults_off_is_byte_identical_to_no_faults_call() {
        use rp_chaos::FaultSpec;
        let tasks = || -> Vec<TaskDescription> { (0..200).map(TaskDescription::null).collect() };
        let plain = SimSession::with_tasks(PilotConfig::flux(4, 2), tasks()).run();
        let gated = SimSession::with_tasks(PilotConfig::flux(4, 2), tasks())
            .with_faults(FaultSpec::default(), 99, 200)
            .run();
        let key = |r: &RunReport| -> Vec<_> {
            r.tasks
                .iter()
                .map(|t| (t.uid, t.state, t.partition, t.exec_start, t.exec_end))
                .collect()
        };
        assert_eq!(key(&plain), key(&gated), "inactive spec must be invisible");
        assert_eq!(plain.end, gated.end);
    }

    #[test]
    fn serving_off_is_byte_identical_to_no_serving_call() {
        let tasks = || -> Vec<TaskDescription> { (0..200).map(TaskDescription::null).collect() };
        let plain = SimSession::with_tasks(PilotConfig::flux(4, 2), tasks()).run();
        let gated = SimSession::with_tasks(PilotConfig::flux(4, 2), tasks())
            .with_serving(rp_serving::ServingSpec::default(), 99)
            .run();
        let key = |r: &RunReport| -> Vec<_> {
            r.tasks
                .iter()
                .map(|t| (t.uid, t.state, t.partition, t.exec_start, t.exec_end))
                .collect()
        };
        assert_eq!(key(&plain), key(&gated), "inactive spec must be invisible");
        assert_eq!(plain.end, gated.end);
        assert!(gated.serving.is_none(), "inactive spec yields no report");
    }

    #[test]
    fn serving_session_drains_with_exact_books() {
        let spec = rp_serving::ServingSpec::parse("rate=50,horizon=30,clients=2,weights=2:1")
            .expect("spec parses");
        let base = spec.base;
        let tasks: Vec<TaskDescription> = (0..20).map(TaskDescription::null).collect();
        let report = SimSession::with_tasks(PilotConfig::flux(4, 1), tasks)
            .with_serving(spec, 11)
            .run();
        let s = report.serving.expect("serving report present");
        assert!(s.offered > 0, "horizon must produce arrivals");
        assert_eq!(s.offered, s.admitted + s.shed + s.queued, "conservation");
        assert_eq!(s.queued, 0, "session must drain the admission queues");
        assert_eq!(s.shed, 0, "default queue depth must not shed at 50/s");
        assert_eq!(s.done, s.admitted, "every admitted task completes");
        assert_eq!(s.failed + s.canceled, 0);
        assert_eq!(s.slo.launches, s.admitted);
        assert_eq!(s.slo.completions, s.done);
        assert!(s.slo.launch_p50 > 0.0, "launch latency is observable");
        // Serving tasks coexist with the batch workload in the task table,
        // on their own uid plane.
        let serving_done = report
            .tasks
            .iter()
            .filter(|t| t.uid.0 >= base && t.state == TaskState::Done)
            .count() as u64;
        assert_eq!(serving_done, s.done);
        let batch_done = report
            .tasks
            .iter()
            .filter(|t| t.uid.0 < base && t.state == TaskState::Done)
            .count();
        assert_eq!(batch_done, 20, "batch workload still completes");
    }

    #[test]
    fn serving_shed_policy_drops_under_overload() {
        // 2000 t/s of 5 s tasks into 4 nodes with a 16-deep queue and a
        // small window: admission control must shed rather than grow.
        let spec = rp_serving::ServingSpec::parse(
            "rate=2000,horizon=5,queue=16,window=32,batch=8,kind=dummy,dur=5",
        )
        .expect("spec parses");
        let report = SimSession::with_tasks(PilotConfig::flux(4, 1), vec![])
            .with_serving(spec, 7)
            .run();
        let s = report.serving.expect("serving report present");
        assert_eq!(s.offered, s.admitted + s.shed + s.queued, "conservation");
        assert!(s.shed > 0, "overload must shed");
        assert!(s.peak_queue <= 16, "queue bound holds");
        assert!(s.peak_inflight <= 32, "window bound holds");
        assert_eq!(s.queued, 0, "drains after the horizon");
        assert_eq!(s.done + s.failed + s.canceled, s.admitted);
    }

    #[test]
    fn reentrant_retry_during_staging_keeps_scratch_buffers_sound() {
        // Regression: a backend crash fired while the stager pipeline is
        // saturated re-enters `fail_task_fault` -> `pump_stagers` beneath a
        // scratch-buffer drain; the restore must keep the larger buffer
        // and the debug assertion must see it fully drained. Crash just
        // after pilot activation (t=40 s: the 500-task staging burst is
        // still in flight) so retries overlap staging.
        let tasks: Vec<TaskDescription> = (0..500)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(30)))
            .collect();
        let report = SimSession::with_tasks(PilotConfig::flux(4, 2).with_seed(3), tasks)
            .with_fault_plan(crash_plan(40, 1))
            .run();
        let done = report
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Done)
            .count();
        assert_eq!(done, 500, "no task lost to the reentrant retry path");
        assert!(report.tasks.iter().any(|t| t.retries > 0));
    }

    #[test]
    fn report_tasks_are_one_record_per_uid_in_first_submission_order() {
        use crate::task::TaskRecord;
        use crate::workload::ResourceView;

        /// Initial batch, then one follow-up per terminal task (the
        /// first `left` of them).
        struct FollowUps {
            initial: Vec<TaskDescription>,
            next_uid: u64,
            left: usize,
        }
        impl WorkloadSource for FollowUps {
            fn initial(&mut self, _view: &ResourceView) -> Vec<TaskDescription> {
                std::mem::take(&mut self.initial)
            }
            fn on_task_done(
                &mut self,
                _done: &TaskRecord,
                _view: &ResourceView,
            ) -> Vec<TaskDescription> {
                if self.left == 0 {
                    return Vec::new();
                }
                self.left -= 1;
                self.next_uid += 1;
                vec![TaskDescription::dummy(
                    self.next_uid,
                    SimDuration::from_secs(5),
                )]
            }
        }

        // Three sources of tasks, with uids deliberately out of submission
        // order: an initial batch (100..160), a timed batch (0..20) and
        // follow-ups (1001..=1010). Killing flux partition 0 mid-run makes
        // its tasks retry, which must not add records.
        let initial: Vec<TaskDescription> = (100..160)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(60)))
            .collect();
        let timed: Vec<TaskDescription> = (0..20)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(10)))
            .collect();
        let wl = FollowUps {
            initial,
            next_uid: 1000,
            left: 10,
        };
        let mut cfg = PilotConfig::flux(4, 2);
        cfg.max_retries = 2;
        let report = SimSession::new(cfg, Box::new(wl))
            .submit_at(SimTime::from_secs(50), timed)
            .with_fault_plan(crash_plan(40, 0))
            .run();
        assert_eq!(report.tasks.len(), 90);
        assert_eq!(report.tasks.capacity(), report.tasks.len());
        assert!(report.tasks.iter().any(|t| t.retries > 0), "some retry");
        assert!(report.tasks.iter().all(|t| t.state == TaskState::Done));
        let uids: Vec<u64> = report.tasks.iter().map(|t| t.uid.0).collect();
        // The initial batch comes first, in batch order.
        assert_eq!(uids[..60], (100..160).collect::<Vec<_>>()[..]);
        // Each later source keeps its own order, and every uid is there
        // exactly once.
        let timed: Vec<u64> = uids.iter().copied().filter(|&u| u < 100).collect();
        assert_eq!(timed, (0..20).collect::<Vec<_>>());
        let follow: Vec<u64> = uids.iter().copied().filter(|&u| u > 1000).collect();
        assert_eq!(follow, (1001..=1010).collect::<Vec<_>>());
        // Records sit in the order they were first submitted.
        assert!(report
            .tasks
            .windows(2)
            .all(|w| w[0].submitted <= w[1].submitted));
    }

    #[test]
    #[should_panic(expected = "duplicate task uid")]
    fn resubmitting_a_uid_in_a_later_batch_panics() {
        let tasks: Vec<TaskDescription> = (0..10).map(TaskDescription::null).collect();
        SimSession::with_tasks(PilotConfig::flux(2, 1), tasks)
            .submit_at(
                SimTime::from_secs(30),
                vec![TaskDescription::null(20), TaskDescription::null(5)],
            )
            .run();
    }

    #[test]
    fn uidgen_is_monotonic() {
        let mut g = UidGen::new();
        assert_eq!(g.next_id(), 0);
        assert_eq!(g.next_id(), 1);
    }
}
