//! The simulated Flux instance: a reactive pipeline over a resource pool.
//!
//! Structure mirrors the real system at the granularity the paper measures
//! (Fig. 2). Three serial servers form the job path:
//!
//! 1. **ingest** — the rank-0 RPC that accepts a jobspec (its ≈1.3 ms
//!    service bounds single-instance throughput near the paper's 744 t/s
//!    peak);
//! 2. **match** — the scheduler's resource-graph traversal; its cost grows
//!    with instance size, which is why a single 1,024-node instance
//!    averages only ~160 t/s in the `flux_n` experiment;
//! 3. **start** — aggregate per-node broker exec-start; brokers work in
//!    parallel across nodes, so the aggregate service time *shrinks* with
//!    node count (`rate = base · n^0.35`), giving the rising `flux_1`
//!    throughput curve.
//!
//! Placement itself is real: jobs hold cores/GPUs in a
//! [`rp_platform::ResourcePool`], matched by a pluggable [`SchedPolicy`]
//! (FCFS or EASY backfill), and utilization numbers in the experiments are
//! integrals over these holdings — not modeled constants.
//!
//! The instance is reactive: each call appends [`rp_sim::Action`]s to a
//! caller-provided buffer, and its timers carry all five [`Token`]s
//! (`Booted`, `Ingested`, then `Matched`/`Launched`/`Done` per job). A
//! job's start and finish are `Started`/`Completed`, and an exception is
//! `Failed`, retryable only when the instance was lost.

use crate::job::{JobId, JobSpec};
use crate::policy::{RunningJob, SchedPolicy};
use rp_lineage::Lineage;
use rp_platform::{Allocation, Calibration, Placement, ResourcePool};
use rp_sim::{Action, Dist, FxHashMap, RngStream, SimTime, StaleTokens, Token};
use std::collections::VecDeque;

/// Lineage backend code for flux (`BackendKind::Flux as u8`).
const LIN_BACKEND_FLUX: u8 = 1;

/// The simulated instance.
pub struct FluxInstanceSim {
    alloc: Allocation,
    pool: ResourcePool,
    policy: Box<dyn SchedPolicy>,
    rng: RngStream,

    // Calibrated costs for this instance size.
    ingest_cost: Dist,
    match_cost: Dist,
    start_cost: Dist,
    bootstrap_cost: Dist,

    ready: bool,
    /// Jobs waiting for the ingest server.
    pending_ingest: VecDeque<JobSpec>,
    ingest_busy: bool,
    /// Ingested jobs waiting for the scheduler.
    queue: VecDeque<JobSpec>,
    match_busy: bool,
    /// Matched (resources held) jobs waiting for the start server.
    start_queue: VecDeque<(JobSpec, Placement)>,
    start_busy: bool,
    /// Matched-but-not-yet-started placements, keyed by job.
    matched: FxHashMap<JobId, (JobSpec, Placement)>,
    /// Running jobs: placement + expected end (for backfill).
    running: FxHashMap<JobId, RunningJob>,
    /// Completed job count (diagnostics).
    completed: u64,
    /// Deepest the ingest + sched backlog has ever been.
    queued_peak: usize,
    /// False once killed by failure injection.
    alive: bool,
    /// The job the start server currently holds (set by `pump_start`,
    /// cleared when its `Started` token arrives); lets fault injection tell
    /// a stale `Started` from a stale `Done` for a reaped running job.
    starting: Option<JobId>,
    /// Timer tokens orphaned by fault injection (a reaped job's
    /// `Matched` / `Launched` / `Done`, a crash's in-flight `Ingested` and
    /// `Booted`); exactly one arrival per marker is swallowed instead of
    /// panicking. Genuinely unknown ids still panic.
    stale: StaleTokens<Token>,
    /// A `Booted` token is in flight (set by `boot`, cleared on arrival).
    booting: bool,
    /// Lineage recorder plus this instance's partition index.
    lineage: Option<(Lineage, u32)>,
    /// Last `(head job, reason)` a placement reject was recorded for, so a
    /// blocked queue head produces one lineage event per cause, not one
    /// per pump.
    last_reject: Option<(JobId, u16)>,
}

impl FluxInstanceSim {
    /// Build an instance over `alloc` with the given policy. Call
    /// [`FluxInstanceSim::boot`] to begin the bootstrap.
    pub fn new(
        alloc: Allocation,
        cal: &Calibration,
        policy: Box<dyn SchedPolicy>,
        seed: u64,
    ) -> Self {
        let nodes = alloc.count;
        FluxInstanceSim {
            pool: alloc.pool(),
            alloc,
            policy,
            rng: RngStream::derive(seed, "flux-instance"),
            ingest_cost: cal.flux_ingest.clone(),
            match_cost: cal.flux_match_cost(nodes),
            start_cost: cal.flux_start_cost(nodes),
            bootstrap_cost: cal.flux_bootstrap.clone(),
            ready: false,
            pending_ingest: VecDeque::new(),
            ingest_busy: false,
            queue: VecDeque::new(),
            match_busy: false,
            start_queue: VecDeque::new(),
            start_busy: false,
            matched: FxHashMap::default(),
            running: FxHashMap::default(),
            completed: 0,
            queued_peak: 0,
            alive: true,
            starting: None,
            stale: StaleTokens::default(),
            booting: false,
            lineage: None,
            last_reject: None,
        }
    }

    /// Attach a lineage recorder for this instance (`partition` is the
    /// instance's index within the flux deployment). Backend-queue entry,
    /// the broker ingest hop, placement rejects with their reason, grants,
    /// and start-server launches are recorded from here on.
    pub fn attach_lineage(&mut self, lin: Lineage, partition: u32) {
        self.lineage = Some((lin, partition));
    }

    /// The allocation this instance manages.
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// Cores currently held by matched/running jobs.
    pub fn busy_cores(&self) -> u64 {
        self.pool.busy_cores()
    }

    /// GPUs currently held by matched/running jobs.
    pub fn busy_gpus(&self) -> u64 {
        self.pool.busy_gpus()
    }

    /// Jobs currently executing.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Jobs waiting (ingest + sched queues).
    pub fn queued_count(&self) -> usize {
        self.pending_ingest.len() + self.queue.len()
    }

    /// Deepest the ingest + sched backlog has ever been (exact: updated
    /// at every enqueue, so it can't miss spikes between samples).
    pub fn queued_peak(&self) -> usize {
        self.queued_peak
    }

    /// Jobs completed so far.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Whether the whole pipeline is drained.
    pub fn is_idle(&self) -> bool {
        self.pending_ingest.is_empty()
            && self.queue.is_empty()
            && self.start_queue.is_empty()
            && self.matched.is_empty()
            && self.running.is_empty()
    }

    /// Whether the instance is alive (not killed by failure injection).
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Simulate an instance crash (broker death): every job anywhere in the
    /// pipeline is lost and returned so the caller can fail/retry it. After
    /// this the instance ignores stale timer tokens and fails submits as
    /// retryable.
    pub fn kill(&mut self) -> Vec<JobId> {
        self.alive = false;
        // Record exactly which timer tokens are orphaned so their arrival
        // (while dead, or after a restart) is swallowed: the match server's
        // job, the start server's job, and every other running job's Done.
        if self.match_busy {
            self.stale
                .extend(self.matched.keys().map(|id| Token::Matched(id.0)));
        }
        let starting = self.starting.take();
        if self.start_busy {
            self.stale.extend(starting.map(|id| Token::Launched(id.0)));
        }
        self.stale.extend(
            self.running
                .keys()
                .filter(|id| Some(**id) != starting)
                .map(|id| Token::Done(id.0)),
        );
        if self.ingest_busy {
            self.stale.mark(Token::Ingested);
        }
        if self.booting {
            self.stale.mark(Token::Booted);
            self.booting = false;
        }
        let mut lost: Vec<JobId> = Vec::new();
        lost.extend(self.pending_ingest.drain(..).map(|j| j.id));
        lost.extend(self.queue.drain(..).map(|j| j.id));
        lost.extend(self.matched.drain().map(|(id, _)| id));
        lost.extend(self.start_queue.drain(..).map(|(j, _)| j.id));
        lost.extend(self.running.drain().map(|(id, _)| id));
        // Pool state is irrelevant now — the partition's nodes are gone.
        // (A later `restart` rebuilds the pool from the allocation.)
        self.ingest_busy = false;
        self.match_busy = false;
        self.start_busy = false;
        lost.sort_unstable();
        lost
    }

    /// Restart a crashed instance: fresh pool over the same allocation,
    /// then a full bootstrap (the paper's restart-latency model — the
    /// caller schedules this after the configured restart delay). Jobs
    /// lost in the crash were already returned by
    /// [`FluxInstanceSim::kill`]; stale timer tokens from before the crash
    /// are swallowed. The RNG stream continues, keeping the run
    /// deterministic.
    pub fn restart(&mut self, out: &mut Vec<Action>) {
        assert!(!self.alive, "restart of a live instance");
        self.alive = true;
        self.ready = false;
        self.pool = self.alloc.pool();
        self.last_reject = None;
        self.boot(out);
    }

    /// Fail node `node_idx` (pool-local index) inside this instance: its
    /// free capacity leaves the pool and every matched/starting/running job
    /// with a rank on it is reaped — resources freed (parking the dead
    /// node's share), ids returned sorted so the caller can fail/retry
    /// them. Stale timer tokens for reaped jobs are tolerated. Returns
    /// `None` when nothing changed: the instance is dead or the node was
    /// already down.
    pub fn fail_node(
        &mut self,
        now: SimTime,
        node_idx: u32,
        out: &mut Vec<Action>,
    ) -> Option<Vec<JobId>> {
        if !self.alive || !self.pool.node_down(node_idx as usize) {
            return None;
        }
        let touches = |p: &Placement| p.ranks.iter().any(|r| r.node_idx == node_idx);
        let mut victims: Vec<(JobId, Placement)> = Vec::new();
        let matched_hit: Vec<JobId> = self
            .matched
            .iter()
            .filter(|(_, (_, pl))| touches(pl))
            .map(|(id, _)| *id)
            .collect();
        for id in matched_hit {
            let (_, pl) = self.matched.remove(&id).expect("collected above");
            // A matched entry always has its `Matched` token in flight.
            self.stale.mark(Token::Matched(id.0));
            victims.push((id, pl));
        }
        let mut i = 0;
        while i < self.start_queue.len() {
            if touches(&self.start_queue[i].1) {
                let (j, pl) = self.start_queue.remove(i).expect("index valid");
                victims.push((j.id, pl));
            } else {
                i += 1;
            }
        }
        let running_hit: Vec<JobId> = self
            .running
            .iter()
            .filter(|(_, r)| touches(&r.placement))
            .map(|(id, _)| *id)
            .collect();
        for id in running_hit {
            let r = self.running.remove(&id).expect("collected above");
            // The victim's orphaned timer: `Launched` if the start server
            // still holds it, `Done` once launched.
            if self.starting == Some(id) {
                self.starting = None;
                self.stale.mark(Token::Launched(id.0));
            } else {
                self.stale.mark(Token::Done(id.0));
            }
            victims.push((id, r.placement));
        }
        victims.sort_unstable_by_key(|(id, _)| *id);
        let mut lost = Vec::with_capacity(victims.len());
        for (id, pl) in &victims {
            self.pool.free(pl);
            lost.push(*id);
        }
        // Reaping multi-node jobs returns their surviving ranks to the
        // pool, which can unblock a queued head with nothing else in
        // flight to trigger the next match.
        self.pump_match(now, out);
        Some(lost)
    }

    /// Restore a failed node: its capacity (including resources parked by
    /// frees during the outage) rejoins the pool and the scheduler is
    /// re-pumped. Returns whether the node came back: false while dead or
    /// when the node is not down.
    pub fn node_up(&mut self, now: SimTime, node_idx: u32, out: &mut Vec<Action>) -> bool {
        let up = self.alive && self.pool.node_up(node_idx as usize);
        if up {
            self.pump_match(now, out);
        }
        up
    }

    /// Best-effort cancellation: removes the job if it has not yet reached
    /// the launch path. Jobs already being matched (RPC in flight),
    /// starting, or running are not cancelable — mirroring the asynchronous
    /// cancel semantics of the real system. Returns whether the job was
    /// removed; resources held by a matched-but-unstarted job are freed.
    pub fn cancel(&mut self, id: JobId) -> bool {
        if !self.alive {
            return false;
        }
        // Waiting for ingest (skip the head while the RPC server holds it).
        let skip_head = usize::from(self.ingest_busy);
        if let Some(pos) = self
            .pending_ingest
            .iter()
            .enumerate()
            .skip(skip_head)
            .find_map(|(i, j)| (j.id == id).then_some(i))
        {
            self.pending_ingest.remove(pos);
            return true;
        }
        // Waiting for the scheduler.
        if let Some(pos) = self.queue.iter().position(|j| j.id == id) {
            self.queue.remove(pos);
            return true;
        }
        // Matched and waiting for the start server: free its resources.
        if let Some(pos) = self.start_queue.iter().position(|(j, _)| j.id == id) {
            let (_, placement) = self.start_queue.remove(pos).expect("position valid");
            self.pool.free(&placement);
            return true;
        }
        false
    }

    /// Reserve resources for a persistent service, bypassing the job queue
    /// (an administrative allocation, like `flux alloc` for a long-running
    /// service). Returns the placement to pass to
    /// [`FluxInstanceSim::release_reservation`], or `None` if it does not
    /// fit right now.
    pub fn reserve(&mut self, req: &rp_platform::ResourceRequest) -> Option<Placement> {
        if !self.alive {
            return None;
        }
        self.pool.try_alloc(req)
    }

    /// Release a service reservation made with [`FluxInstanceSim::reserve`].
    pub fn release_reservation(&mut self, placement: &Placement) {
        if self.alive {
            self.pool.free(placement);
        }
    }

    /// Begin bootstrap (broker tree + modules; ≈20 s on Frontier).
    /// Actions are appended to `out` — callers reuse one buffer across
    /// every call so the per-event hot path stays allocation-free.
    pub fn boot(&mut self, out: &mut Vec<Action>) {
        let cost = self.bootstrap_cost.sample(&mut self.rng);
        self.booting = true;
        out.push(Action::Timer {
            after: cost,
            token: Token::Booted,
        });
    }

    /// Submit a jobspec (RP Flux executor, Fig. 2 ②). Infeasible requests
    /// fail immediately, not retryable, rather than wedging the queue; a
    /// dead instance fails every submit as retryable.
    pub fn submit(&mut self, job: JobSpec, out: &mut Vec<Action>) {
        if !self.alive || !self.pool.can_ever_fit(&job.req) {
            out.push(Action::Failed {
                id: job.id.0,
                retryable: !self.alive,
            });
            return;
        }
        let uid = job.id.0;
        self.pending_ingest.push_back(job);
        // Ingest→sched moves jobs between the two queues without changing
        // the total, so submit is the only site where the peak can move.
        self.queued_peak = self
            .queued_peak
            .max(self.pending_ingest.len() + self.queue.len());
        if let Some((l, part)) = &self.lineage {
            l.record_ctx(
                uid,
                rp_lineage::EV_BACKEND_QUEUE,
                rp_lineage::NO_DETAIL,
                LIN_BACKEND_FLUX,
                *part,
                (self.pending_ingest.len() + self.queue.len()) as u64,
            );
        }
        self.pump_ingest(out);
    }

    /// Deliver a timer token. Actions are appended to `out`.
    pub fn on_token(&mut self, now: SimTime, token: Token, out: &mut Vec<Action>) {
        if !self.alive {
            // Stale timers from before the crash: consume the marker so it
            // can't swallow a fresh token after a restart.
            self.stale.consume(&token);
            return;
        }
        if self.stale.consume(&token) {
            // The job was reaped by fault injection (or the token outlived
            // a crash) while a server held it: free that server and move
            // on. A reaped running job's resources were already freed (or
            // parked on the dead node) at reap time.
            match token {
                Token::Matched(_) => {
                    self.match_busy = false;
                    self.pump_match(now, out);
                }
                Token::Launched(_) => {
                    self.start_busy = false;
                    self.pump_start(now, out);
                }
                Token::Done(_) => self.pump_match(now, out),
                Token::Booted | Token::Ingested => {}
            }
            return;
        }
        match token {
            Token::Booted => {
                self.booting = false;
                self.ready = true;
                out.push(Action::Ready);
                self.pump_ingest(out);
            }
            Token::Ingested => {
                self.ingest_busy = false;
                let job = self
                    .pending_ingest
                    .pop_front()
                    .expect("ingest completed with empty queue");
                if let Some((l, part)) = &self.lineage {
                    l.record_ctx(
                        job.id.0,
                        rp_lineage::EV_BROKER_HOP,
                        rp_lineage::NO_DETAIL,
                        LIN_BACKEND_FLUX,
                        *part,
                        (self.queue.len() + 1) as u64,
                    );
                }
                self.queue.push_back(job);
                self.pump_ingest(out);
                self.pump_match(now, out);
            }
            Token::Matched(id) => {
                self.match_busy = false;
                let (job, placement) = self
                    .matched
                    .remove(&JobId(id))
                    .expect("match token for unknown job");
                self.start_queue.push_back((job, placement));
                self.pump_start(now, out);
                self.pump_match(now, out);
            }
            Token::Launched(id) => {
                self.start_busy = false;
                self.starting = None;
                // expected_end was fixed when the start timer was created
                // (start completion time + payload duration), so the
                // remaining span from `now` is exactly the payload duration.
                let run = self
                    .running
                    .get(&JobId(id))
                    .expect("started job must be registered");
                let duration = run.expected_end.saturating_since(now);
                out.push(Action::Started(id));
                out.push(Action::Timer {
                    after: duration,
                    token: Token::Done(id),
                });
                self.pump_start(now, out);
            }
            Token::Done(id) => {
                let run = self
                    .running
                    .remove(&JobId(id))
                    .expect("done token for unknown job");
                self.pool.free(&run.placement);
                self.completed += 1;
                out.push(Action::Completed(id));
                self.pump_match(now, out);
            }
        }
    }

    /// Keep the ingest server busy while jobs are pending.
    fn pump_ingest(&mut self, out: &mut Vec<Action>) {
        if !self.ready || self.ingest_busy || self.pending_ingest.is_empty() {
            return;
        }
        self.ingest_busy = true;
        let cost = self.ingest_cost.sample(&mut self.rng);
        out.push(Action::Timer {
            after: cost,
            token: Token::Ingested,
        });
    }

    /// Ask the policy for the next match while the match server is free.
    fn pump_match(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if !self.ready || self.match_busy || self.queue.is_empty() {
            return;
        }
        let Some(idx) = self
            .policy
            .select(now, &self.queue, &self.pool, &self.running)
        else {
            // The head can't be placed right now. Classify why for the
            // head's lineage, once per distinct (head, reason).
            if let Some((l, part)) = &self.lineage {
                let head = self.queue.front().expect("non-empty queue");
                let reason = if head.req.total_cores() > self.pool.free_cores() {
                    rp_lineage::REJ_INSUFFICIENT_CORES
                } else if head.req.total_gpus() > self.pool.free_gpus() {
                    rp_lineage::REJ_INSUFFICIENT_GPUS
                } else {
                    rp_lineage::REJ_FRAGMENTATION
                };
                if self.last_reject != Some((head.id, reason)) {
                    self.last_reject = Some((head.id, reason));
                    l.record_ctx(
                        head.id.0,
                        rp_lineage::EV_PLACE_REJECT,
                        reason,
                        LIN_BACKEND_FLUX,
                        *part,
                        self.queue.len() as u64,
                    );
                }
            }
            return; // wait for a completion to free resources
        };
        let job = self.queue.remove(idx).expect("policy returned valid index");
        let placement = self
            .pool
            .try_alloc(&job.req)
            .expect("policy selected a job that fits");
        if let Some((l, part)) = &self.lineage {
            if self.last_reject.map(|(id, _)| id) == Some(job.id) {
                self.last_reject = None;
            }
            l.record_ctx(
                job.id.0,
                rp_lineage::EV_PLACE_OK,
                rp_lineage::NO_DETAIL,
                LIN_BACKEND_FLUX,
                *part,
                self.pool.busy_cores(),
            );
        }
        self.matched.insert(job.id, (job, placement));
        self.match_busy = true;
        let cost = self.match_cost.sample(&mut self.rng);
        out.push(Action::Timer {
            after: cost,
            token: Token::Matched(job.id.0),
        });
    }

    /// Keep the start server busy while matched jobs wait.
    fn pump_start(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if self.start_busy || self.start_queue.is_empty() {
            return;
        }
        let (job, placement) = self.start_queue.pop_front().expect("non-empty");
        self.start_busy = true;
        self.starting = Some(job.id);
        if let Some((l, part)) = &self.lineage {
            l.record_ctx(
                job.id.0,
                rp_lineage::EV_LAUNCH_START,
                rp_lineage::NO_DETAIL,
                LIN_BACKEND_FLUX,
                *part,
                self.start_queue.len() as u64,
            );
        }
        let cost = self.start_cost.sample(&mut self.rng);
        // Register as running with its final expected end (start-server
        // completion + payload duration) so backfill sees it immediately.
        self.running.insert(
            job.id,
            RunningJob {
                expected_end: now + cost + job.duration,
                placement,
            },
        );
        out.push(Action::Timer {
            after: cost,
            token: Token::Launched(job.id.0),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::policy::{EasyBackfill, Fcfs};
    use rp_platform::{frontier, ResourceRequest};
    use rp_sim::SimDuration;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn alloc(nodes: u32) -> Allocation {
        Allocation {
            spec: frontier().node,
            first: 0,
            count: nodes,
        }
    }

    fn instance(nodes: u32, backfill: bool) -> FluxInstanceSim {
        let policy: Box<dyn SchedPolicy> = if backfill {
            Box::new(EasyBackfill::default())
        } else {
            Box::new(Fcfs)
        };
        FluxInstanceSim::new(alloc(nodes), &Calibration::frontier(), policy, 7)
    }

    /// Mini event loop: boots the instance, submits all jobs at t=0, runs to
    /// quiescence. Returns timestamped job events (seconds).
    fn drive(mut inst: FluxInstanceSim, jobs: Vec<JobSpec>) -> Vec<(f64, Action)> {
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut events = Vec::new();
        let apply = |acts: Vec<Action>,
                     now: u64,
                     heap: &mut BinaryHeap<Reverse<(u64, u64, Token)>>,
                     seq: &mut u64,
                     events: &mut Vec<(f64, Action)>| {
            for a in acts {
                match a {
                    Action::Timer { after, token } => {
                        heap.push(Reverse((now + after.as_micros(), *seq, token)));
                        *seq += 1;
                    }
                    Action::Ready => {}
                    e => events.push((now as f64 / 1e6, e)),
                }
            }
        };
        let mut acts = Vec::new();
        inst.boot(&mut acts);
        apply(
            std::mem::take(&mut acts),
            0,
            &mut heap,
            &mut seq,
            &mut events,
        );
        for j in jobs {
            inst.submit(j, &mut acts);
            apply(
                std::mem::take(&mut acts),
                0,
                &mut heap,
                &mut seq,
                &mut events,
            );
        }
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            inst.on_token(SimTime::from_micros(t), tok, &mut acts);
            apply(
                std::mem::take(&mut acts),
                t,
                &mut heap,
                &mut seq,
                &mut events,
            );
        }
        assert!(inst.is_idle(), "pipeline must drain");
        events
    }

    fn starts(events: &[(f64, Action)]) -> Vec<f64> {
        events
            .iter()
            .filter(|(_, e)| matches!(e, Action::Started(_)))
            .map(|(t, _)| *t)
            .collect()
    }

    fn null_jobs(n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                id: JobId(i),
                req: ResourceRequest::single(1, 0),
                duration: SimDuration::ZERO,
            })
            .collect()
    }

    #[test]
    fn boot_then_ready_after_about_20s() {
        let events = drive(instance(4, false), vec![]);
        assert!(events.is_empty());
        // Ready action is internal; verify via a job started after ~20 s.
        let events = drive(instance(4, false), null_jobs(1));
        let s = starts(&events);
        assert_eq!(s.len(), 1);
        assert!((15.0..25.0).contains(&s[0]), "start at {}", s[0]);
    }

    #[test]
    fn single_node_null_rate_near_28() {
        let events = drive(instance(1, false), null_jobs(1500));
        let s = starts(&events);
        assert_eq!(s.len(), 1500);
        let rate = (s.len() - 1) as f64 / (s.last().unwrap() - s.first().unwrap());
        assert!((22.0..36.0).contains(&rate), "1-node rate {rate}");
    }

    #[test]
    fn throughput_scales_with_nodes() {
        let rate = |nodes: u32| {
            let events = drive(instance(nodes, false), null_jobs(2000));
            let s = starts(&events);
            (s.len() - 1) as f64 / (s.last().unwrap() - s.first().unwrap())
        };
        let r1 = rate(1);
        let r16 = rate(16);
        let r64 = rate(64);
        assert!(r16 > 2.0 * r1, "16-node {r16} vs 1-node {r1}");
        assert!(r64 > r16, "64-node {r64} vs 16-node {r16}");
        assert!((60.0..170.0).contains(&r64), "64-node rate {r64}");
    }

    #[test]
    fn dummy_tasks_fill_all_cores() {
        // 2 nodes, 112 cores; 224 tasks of 100 s => two full waves,
        // concurrency must reach every core (unlike srun's ceiling).
        let jobs: Vec<JobSpec> = (0..224)
            .map(|i| JobSpec {
                id: JobId(i),
                req: ResourceRequest::single(1, 0),
                duration: SimDuration::from_secs(100),
            })
            .collect();
        let mut inst = instance(2, false);
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut peak_busy = 0u64;
        let mut acts = Vec::new();
        inst.boot(&mut acts);
        for a in acts.drain(..) {
            if let Action::Timer { after, token } = a {
                heap.push(Reverse((after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        for j in jobs {
            inst.submit(j, &mut acts);
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((after.as_micros(), seq, token)));
                    seq += 1;
                }
            }
        }
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            inst.on_token(SimTime::from_micros(t), tok, &mut acts);
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((t + after.as_micros(), seq, token)));
                    seq += 1;
                }
            }
            peak_busy = peak_busy.max(inst.busy_cores());
        }
        assert_eq!(peak_busy, 112, "all cores must be reachable");
        assert_eq!(inst.completed_count(), 224);
    }

    /// Drain the token heap, applying actions, until quiescence. Calls
    /// `hook(t, &mut inst, &mut out)` after every token so tests can inject
    /// faults mid-run; timers the hook pushes are honored.
    fn drain_with_hook(
        inst: &mut FluxInstanceSim,
        heap: &mut BinaryHeap<Reverse<(u64, u64, Token)>>,
        seq: &mut u64,
        mut hook: impl FnMut(u64, &mut FluxInstanceSim, &mut Vec<Action>),
    ) {
        let mut acts = Vec::new();
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            inst.on_token(SimTime::from_micros(t), tok, &mut acts);
            hook(t, inst, &mut acts);
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((t + after.as_micros(), *seq, token)));
                    *seq += 1;
                }
            }
        }
    }

    fn submit_all(
        inst: &mut FluxInstanceSim,
        jobs: Vec<JobSpec>,
        heap: &mut BinaryHeap<Reverse<(u64, u64, Token)>>,
        seq: &mut u64,
        at: u64,
    ) {
        let mut acts = Vec::new();
        for j in jobs {
            inst.submit(j, &mut acts);
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((at + after.as_micros(), *seq, token)));
                    *seq += 1;
                }
            }
        }
    }

    fn timed_jobs(n: u64, secs: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                id: JobId(i),
                req: ResourceRequest::single(1, 0),
                duration: SimDuration::from_secs(secs),
            })
            .collect()
    }

    #[test]
    fn node_failure_reaps_residents_and_node_up_recovers() {
        let mut inst = instance(2, false);
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut acts = Vec::new();
        inst.boot(&mut acts);
        for a in acts.drain(..) {
            if let Action::Timer { after, token } = a {
                heap.push(Reverse((after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        submit_all(&mut inst, timed_jobs(150, 30), &mut heap, &mut seq, 0);
        let mut lost: Vec<JobId> = Vec::new();
        let mut injected = false;
        drain_with_hook(&mut inst, &mut heap, &mut seq, |t, inst, out| {
            if !injected && inst.running_count() > 10 {
                injected = true;
                lost = inst
                    .fail_node(SimTime::from_micros(t), 0, out)
                    .expect("node 0 was up");
            }
        });
        assert!(injected, "fault must have fired");
        assert!(!lost.is_empty(), "node 0 had residents");
        assert!(inst.is_idle(), "survivors must drain past the fault");
        assert_eq!(inst.completed_count() + lost.len() as u64, 150);
        // Node restored: the lost jobs resubmit and the pool is whole.
        let mut acts = Vec::new();
        assert!(inst.node_up(SimTime::from_micros(0), 0, &mut acts));
        let resubmits: Vec<JobSpec> = lost
            .iter()
            .map(|id| JobSpec {
                id: *id,
                req: ResourceRequest::single(1, 0),
                duration: SimDuration::from_secs(30),
            })
            .collect();
        let n = resubmits.len() as u64;
        submit_all(&mut inst, resubmits, &mut heap, &mut seq, 0);
        drain_with_hook(&mut inst, &mut heap, &mut seq, |_, _, _| {});
        assert!(inst.is_idle());
        assert_eq!(inst.completed_count(), 150 - n + n);
        assert_eq!(inst.busy_cores(), 0);
    }

    #[test]
    fn crash_then_restart_drains_resubmissions() {
        let mut inst = instance(2, false);
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut acts = Vec::new();
        inst.boot(&mut acts);
        for a in acts.drain(..) {
            if let Action::Timer { after, token } = a {
                heap.push(Reverse((after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        submit_all(&mut inst, timed_jobs(100, 20), &mut heap, &mut seq, 0);
        let mut lost: Vec<JobId> = Vec::new();
        let mut crash_t = 0u64;
        let mut crashed = false;
        drain_with_hook(&mut inst, &mut heap, &mut seq, |t, inst, _| {
            if !crashed && inst.running_count() > 5 {
                crashed = true;
                crash_t = t;
                lost = inst.kill();
            }
        });
        assert!(crashed);
        assert!(!inst.is_alive());
        assert!(!lost.is_empty());
        // Restart after a 30 s outage, then resubmit everything lost.
        let t0 = crash_t + 30_000_000;
        inst.restart(&mut acts);
        assert!(inst.is_alive());
        for a in acts.drain(..) {
            if let Action::Timer { after, token } = a {
                heap.push(Reverse((t0 + after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        let resubmits: Vec<JobSpec> = lost
            .iter()
            .map(|id| JobSpec {
                id: *id,
                req: ResourceRequest::single(1, 0),
                duration: SimDuration::from_secs(20),
            })
            .collect();
        submit_all(&mut inst, resubmits, &mut heap, &mut seq, t0);
        drain_with_hook(&mut inst, &mut heap, &mut seq, |_, _, _| {});
        assert!(inst.is_idle(), "restarted instance must drain");
        assert_eq!(inst.completed_count(), 100);
        assert_eq!(inst.busy_cores(), 0);
    }

    #[test]
    fn unsatisfiable_job_raises_exception() {
        let mut inst = instance(1, false);
        let mut acts = Vec::new();
        inst.submit(
            JobSpec {
                id: JobId(99),
                req: ResourceRequest::mpi(2, 1, 0), // needs 2 nodes, has 1
                duration: SimDuration::ZERO,
            },
            &mut acts,
        );
        assert!(matches!(
            acts.as_slice(),
            [Action::Failed {
                id: 99,
                retryable: false
            }]
        ));
        assert!(inst.is_idle());
    }

    #[test]
    fn backfill_beats_fcfs_on_mixed_width() {
        // One node (56 cores). Stream: wide(30c, 100s), full(56c, 100s),
        // then 5 narrow(5c, 50s). The full-width job blocks at the head
        // while the wide runs. FCFS holds the narrows behind it, so they
        // only run after the full job drains (~250 s total). EASY reserves
        // the full job at t=100 and backfills the narrows beside the wide
        // (they finish by t=50, before the shadow), ending at ~200 s.
        let mk = |backfill: bool| {
            let mut jobs = vec![
                JobSpec {
                    id: JobId(0),
                    req: ResourceRequest::single(30, 0),
                    duration: SimDuration::from_secs(100),
                },
                JobSpec {
                    id: JobId(1),
                    req: ResourceRequest::single(56, 0),
                    duration: SimDuration::from_secs(100),
                },
            ];
            for i in 0..5 {
                jobs.push(JobSpec {
                    id: JobId(10 + i),
                    req: ResourceRequest::single(5, 0),
                    duration: SimDuration::from_secs(50),
                });
            }
            let events = drive(instance(1, backfill), jobs);
            events
                .iter()
                .filter(|(_, e)| matches!(e, Action::Completed(_)))
                .map(|(t, _)| *t)
                .fold(0.0f64, f64::max)
        };
        let fcfs_makespan = mk(false);
        let bf_makespan = mk(true);
        assert!(
            bf_makespan < fcfs_makespan,
            "backfill {bf_makespan} must beat fcfs {fcfs_makespan}"
        );
    }
}
