//! The simulated Dragon runtime: one centralized dispatcher over a pooled
//! set of workers.
//!
//! Dragon's design point (Fig. 3, §3.2.2): no internal scheduler, no
//! partitioning — a single dispatcher pushes tasks to pooled workers as
//! fast as it can serialize them. That buys the highest small-scale launch
//! rates in the paper, and it is also exactly why throughput *declines*
//! at 64 nodes: remote spawns stretch the one dispatcher's service time
//! (`× (1 + 0.012·(n−1))`), and there is no second dispatcher to hide it.
//!
//! Resource management is implicit, as in the real system: one worker per
//! usable core, no placement bookkeeping, FIFO dispatch with worker-pool
//! backpressure.
//!
//! The runtime is reactive: each call appends [`rp_sim::Action`]s to a
//! caller-provided buffer. Its timers carry `Booted`, `Launched` (the
//! dispatcher shipped a task to a worker) and `Done` [`Token`]s.

use rp_lineage::Lineage;
use rp_platform::{Allocation, Calibration};
use rp_sim::{Action, Dist, FxHashMap, RngStream, SimDuration, SimTime, StaleTokens, Token};
use std::collections::VecDeque;

/// Lineage backend code for dragon (`BackendKind::Dragon as u8`).
const LIN_BACKEND_DRAGON: u8 = 2;

/// A task submitted to the Dragon runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DragonTask {
    /// Task uid.
    pub id: u64,
    /// Workers (≈ cores) the task occupies.
    pub workers: u32,
    /// Payload runtime.
    pub duration: SimDuration,
    /// Function task (in-memory dispatch) vs executable (process spawn).
    pub is_function: bool,
}

/// The simulated runtime.
#[derive(Debug)]
pub struct DragonSim {
    worker_capacity: u64,
    /// `worker_capacity` plus every node's `removed`: the in-service
    /// shape, which node faults only move between the two terms.
    full_capacity: u64,
    free_workers: u64,
    /// Worker count of one node (capacity removed/restored per node fault).
    cores_per_node: u64,
    /// Nodes in the allocation: in-flight task `uid` lives on node
    /// `uid % nodes`.
    nodes: u64,
    /// `(node, workers)` per down node: what the owner's mask cannot say,
    /// the workers its failure took out (short of `cores_per_node` when
    /// survivors held the rest), which `node_up` returns verbatim. Sized
    /// for every node at `new`, so a node fault never allocates.
    removed: Vec<(u32, u64)>,
    ready: bool,
    dispatch_busy: bool,
    queue: VecDeque<DragonTask>,
    exec_cost: Dist,
    func_cost: Dist,
    boot_cost: Dist,
    rng: RngStream,
    in_flight: FxHashMap<u64, DragonTask>,
    completed: u64,
    /// Deepest the dispatch queue has ever been.
    queued_peak: usize,
    alive: bool,
    /// The task the dispatcher currently holds (its `Launched` token is
    /// in flight); lets fault injection type the orphaned timer correctly.
    dispatching: Option<u64>,
    /// Timer tokens orphaned by fault injection (a reaped task's
    /// `Launched` / `Done`, a crash's in-flight `Booted`); one arrival per
    /// marker is swallowed. Genuinely unknown ids still panic.
    stale: StaleTokens<Token>,
    /// A `Booted` token is in flight.
    booting: bool,
    /// Lineage recorder plus this runtime's partition index.
    lineage: Option<(Lineage, u32)>,
    /// Last queue head a worker-backpressure reject was recorded for.
    last_reject: Option<u64>,
}

impl DragonSim {
    /// A runtime spanning `alloc` (one worker per usable core), calibrated
    /// by `cal`.
    pub fn new(alloc: &Allocation, cal: &Calibration, seed: u64) -> Self {
        DragonSim {
            worker_capacity: alloc.total_cores(),
            full_capacity: alloc.total_cores(),
            free_workers: alloc.total_cores(),
            cores_per_node: alloc.total_cores() / alloc.count.max(1) as u64,
            nodes: u64::from(alloc.count),
            removed: Vec::with_capacity(alloc.count as usize),
            ready: false,
            dispatch_busy: false,
            queue: VecDeque::new(),
            exec_cost: cal.dragon_dispatch_cost(alloc.count, false),
            func_cost: cal.dragon_dispatch_cost(alloc.count, true),
            boot_cost: cal.dragon_bootstrap.clone(),
            rng: RngStream::derive(seed, "dragon"),
            in_flight: FxHashMap::default(),
            completed: 0,
            queued_peak: 0,
            alive: true,
            dispatching: None,
            stale: StaleTokens::default(),
            booting: false,
            lineage: None,
            last_reject: None,
        }
    }

    /// Attach a lineage recorder for this runtime (`partition` is its
    /// index within the dragon deployment). Dispatcher-queue entry,
    /// worker-pool backpressure rejects, grants, and dispatch starts are
    /// recorded from here on.
    pub fn attach_lineage(&mut self, lin: Lineage, partition: u32) {
        self.lineage = Some((lin, partition));
    }

    /// Total workers in the pool.
    pub fn worker_capacity(&self) -> u64 {
        self.worker_capacity
    }

    /// Workers currently busy.
    pub fn busy_workers(&self) -> u64 {
        self.worker_capacity - self.free_workers
    }

    /// Tasks waiting for dispatch.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Deepest the dispatch queue has ever been (exact: updated at every
    /// enqueue, so it can't miss spikes between samples).
    pub fn queued_peak(&self) -> usize {
        self.queued_peak
    }

    /// Tasks completed.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Whether the runtime has drained.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    /// Whether the runtime is alive (not killed by failure injection).
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Simulate a runtime crash: every queued/in-flight task is lost and
    /// returned for the caller's failover logic (the paper's §3.2.2 error
    /// handling: "if the runtime crashes, RP triggers failover and moves
    /// affected tasks to error states").
    pub fn kill(&mut self) -> Vec<u64> {
        self.alive = false;
        // Type the orphaned timers so their arrival (while dead, or after a
        // restart) is swallowed instead of panicking.
        let dispatching = self.dispatching.take();
        self.stale.extend(dispatching.map(Token::Launched));
        self.stale.extend(
            self.in_flight
                .keys()
                .filter(|id| Some(**id) != dispatching)
                .map(|&id| Token::Done(id)),
        );
        if self.booting {
            self.stale.mark(Token::Booted);
            self.booting = false;
        }
        let mut lost: Vec<u64> = Vec::new();
        lost.extend(self.queue.drain(..).map(|t| t.id));
        lost.extend(self.in_flight.drain().map(|(id, _)| id));
        self.dispatch_busy = false;
        self.free_workers = self.worker_capacity;
        self.ready = false;
        self.last_reject = None;
        lost.sort_unstable();
        lost
    }

    /// Fail one node's worth of workers of this live runtime. Dragon keeps
    /// no placement map, so residency is modeled deterministically:
    /// in-flight task `uid` lives on node `uid % alloc_nodes`. Victims are
    /// reaped (ids returned sorted), the node's workers leave the pool, and
    /// stale timers for the victims are tolerated. Node health is the
    /// caller's: it says only when the node really goes down.
    pub fn fail_node(&mut self, node_idx: u32, out: &mut Vec<Action>) -> Vec<u64> {
        let nodes = self.nodes;
        let mut lost: Vec<u64> = self
            .in_flight
            .keys()
            .copied()
            .filter(|id| id % nodes == node_idx as u64)
            .collect();
        lost.sort_unstable();
        let mut victim_workers = 0u64;
        for id in &lost {
            let task = self.in_flight.remove(id).expect("collected above");
            victim_workers += task.workers as u64;
            if self.dispatching == Some(*id) {
                self.dispatching = None;
                self.stale.mark(Token::Launched(*id));
            } else {
                self.stale.mark(Token::Done(*id));
            }
        }
        // The node takes its workers with it; victims' workers return to
        // the model first, so the removal never eats into surviving tasks.
        let avail = self.free_workers + victim_workers;
        let removed = self.cores_per_node.min(avail);
        self.free_workers = avail - removed;
        self.worker_capacity -= removed;
        self.removed.push((node_idx, removed));
        self.pump(out);
        lost
    }

    /// Restore a failed node of this live runtime: exactly the workers
    /// removed at failure time rejoin the pool.
    pub fn node_up(&mut self, node_idx: u32, out: &mut Vec<Action>) {
        let pos = self.removed.iter().position(|&(n, _)| n == node_idx);
        let (_, removed) = self
            .removed
            .swap_remove(pos.expect("node_up of an up node"));
        self.worker_capacity += removed;
        self.free_workers += removed;
        self.pump(out);
    }

    /// Best-effort cancellation: removes the task if it is still queued for
    /// dispatch. Dispatched/running tasks are not cancelable.
    pub fn cancel(&mut self, id: u64) -> bool {
        if !self.alive {
            return false;
        }
        if let Some(pos) = self.queue.iter().position(|t| t.id == id) {
            self.queue.remove(pos);
            return true;
        }
        false
    }

    /// Reserve `n` workers for a persistent service (e.g. a learner or a
    /// replay buffer held for the pilot's lifetime). Returns false when not
    /// enough workers are free.
    pub fn reserve_workers(&mut self, n: u64) -> bool {
        if !self.alive || n > self.free_workers {
            return false;
        }
        self.free_workers -= n;
        true
    }

    /// Release workers reserved with [`DragonSim::reserve_workers`].
    pub fn release_workers(&mut self, n: u64) {
        if self.alive {
            self.free_workers = (self.free_workers + n).min(self.worker_capacity);
        }
    }

    /// Begin bootstrap (≈9 s on Frontier), the first time or after a
    /// [`DragonSim::kill`], over the allocation's workers minus the nodes
    /// the owner's mask `down` marks (empty: none). The RNG stream
    /// continues across restarts, keeping the run deterministic. Actions
    /// are appended to `out` — callers reuse one buffer so the hot path
    /// stays allocation-free.
    pub fn boot(&mut self, down: &[bool], out: &mut Vec<Action>) {
        self.alive = true;
        self.removed.clear();
        let down = (0..).zip(down).filter(|(_, d)| **d);
        self.removed
            .extend(down.map(|(node, _)| (node, self.cores_per_node)));
        self.worker_capacity = self.full_capacity - self.cores_per_node * self.removed.len() as u64;
        self.free_workers = self.worker_capacity;
        let cost = self.boot_cost.sample(&mut self.rng);
        self.booting = true;
        out.push(Action::Timer {
            after: cost,
            token: Token::Booted,
        });
    }

    /// Submit a task (FIFO). Actions are appended to `out`.
    pub fn submit(&mut self, task: DragonTask, out: &mut Vec<Action>) {
        // Bound against the full in-service shape, not the outage-reduced
        // pool: a task wider than a temporarily degraded pool waits in the
        // queue until `node_up` instead of panicking.
        assert!(
            task.workers as u64 <= self.full_capacity,
            "task {} wants {} workers, pool has {}",
            task.id,
            task.workers,
            self.full_capacity
        );
        self.queue.push_back(task);
        self.queued_peak = self.queued_peak.max(self.queue.len());
        if let Some((l, part)) = &self.lineage {
            l.record_ctx(
                task.id,
                rp_lineage::EV_BACKEND_QUEUE,
                rp_lineage::NO_DETAIL,
                LIN_BACKEND_DRAGON,
                *part,
                self.queue.len() as u64,
            );
        }
        self.pump(out);
    }

    /// Deliver a timer token. Actions are appended to `out`.
    pub fn on_token(&mut self, _now: SimTime, token: Token, out: &mut Vec<Action>) {
        if !self.alive {
            // Stale timers from before the crash: consume the marker so it
            // can't swallow a fresh token after a restart.
            self.stale.consume(&token);
            return;
        }
        if self.stale.consume(&token) {
            // Reaped by fault injection while the dispatcher held it (free
            // the dispatcher) or while running (its workers were re-pooled,
            // or removed with the node, at reap time): move on.
            match token {
                Token::Launched(_) => {
                    self.dispatch_busy = false;
                    self.pump(out);
                }
                Token::Done(_) => self.pump(out),
                _ => {}
            }
            return;
        }
        match token {
            Token::Booted => {
                self.booting = false;
                self.ready = true;
                out.push(Action::Ready);
                self.pump(out);
            }
            Token::Launched(id) => {
                self.dispatch_busy = false;
                self.dispatching = None;
                let task = self.in_flight.get(&id).expect("dispatched unknown task");
                out.push(Action::Started(id));
                out.push(Action::Timer {
                    after: task.duration,
                    token: Token::Done(id),
                });
                self.pump(out);
            }
            Token::Done(id) => {
                let task = self.in_flight.remove(&id).expect("done unknown task");
                self.free_workers += task.workers as u64;
                self.completed += 1;
                out.push(Action::Completed(id));
                self.pump(out);
            }
            Token::Ingested | Token::Matched(_) => {
                unreachable!("dragon schedules no {token:?} token")
            }
        }
    }

    /// Dispatch the head task if the dispatcher and enough workers are free.
    fn pump(&mut self, out: &mut Vec<Action>) {
        if !self.ready || self.dispatch_busy {
            return;
        }
        let Some(head) = self.queue.front() else {
            return;
        };
        if head.workers as u64 > self.free_workers {
            // Worker-pool backpressure: one lineage reject per distinct
            // blocked head, not one per pump.
            if let Some((l, part)) = &self.lineage {
                if self.last_reject != Some(head.id) {
                    self.last_reject = Some(head.id);
                    l.record_ctx(
                        head.id,
                        rp_lineage::EV_PLACE_REJECT,
                        rp_lineage::REJ_WORKERS_BUSY,
                        LIN_BACKEND_DRAGON,
                        *part,
                        self.queue.len() as u64,
                    );
                }
            }
            return; // pool backpressure; wait for a Done
        }
        let task = self.queue.pop_front().expect("non-empty");
        self.free_workers -= task.workers as u64;
        self.dispatch_busy = true;
        if let Some((l, part)) = &self.lineage {
            self.last_reject = None;
            l.record_ctx(
                task.id,
                rp_lineage::EV_PLACE_OK,
                rp_lineage::NO_DETAIL,
                LIN_BACKEND_DRAGON,
                *part,
                self.busy_workers(),
            );
            l.record_ctx(
                task.id,
                rp_lineage::EV_LAUNCH_START,
                rp_lineage::NO_DETAIL,
                LIN_BACKEND_DRAGON,
                *part,
                self.queue.len() as u64,
            );
        }
        self.dispatching = Some(task.id);
        let cost = if task.is_function {
            self.func_cost.sample(&mut self.rng)
        } else {
            self.exec_cost.sample(&mut self.rng)
        };
        self.in_flight.insert(task.id, task);
        out.push(Action::Timer {
            after: cost,
            token: Token::Launched(task.id),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_platform::frontier;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn alloc(nodes: u32) -> Allocation {
        Allocation {
            spec: frontier().node,
            first: 0,
            count: nodes,
        }
    }

    fn runtime(nodes: u32) -> DragonSim {
        DragonSim::new(&alloc(nodes), &Calibration::frontier(), 11)
    }

    /// Boot, submit everything at t=0, run to idle; returns start times (s).
    fn drive(mut sim: DragonSim, tasks: Vec<DragonTask>) -> (Vec<f64>, u64, DragonSim) {
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut starts = Vec::new();
        let mut peak_busy = 0u64;
        let sink = |acts: Vec<Action>,
                    now: u64,
                    heap: &mut BinaryHeap<Reverse<(u64, u64, Token)>>,
                    seq: &mut u64,
                    starts: &mut Vec<f64>| {
            for a in acts {
                match a {
                    Action::Timer { after, token } => {
                        heap.push(Reverse((now + after.as_micros(), *seq, token)));
                        *seq += 1;
                    }
                    Action::Started(_) => starts.push(now as f64 / 1e6),
                    _ => {}
                }
            }
        };
        let mut acts = Vec::new();
        sim.boot(&[], &mut acts);
        sink(
            std::mem::take(&mut acts),
            0,
            &mut heap,
            &mut seq,
            &mut starts,
        );
        for t in tasks {
            sim.submit(t, &mut acts);
            sink(
                std::mem::take(&mut acts),
                0,
                &mut heap,
                &mut seq,
                &mut starts,
            );
        }
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            sim.on_token(SimTime::from_micros(t), tok, &mut acts);
            sink(
                std::mem::take(&mut acts),
                t,
                &mut heap,
                &mut seq,
                &mut starts,
            );
            peak_busy = peak_busy.max(sim.busy_workers());
        }
        assert!(sim.is_idle());
        (starts, peak_busy, sim)
    }

    fn null_tasks(n: u64) -> Vec<DragonTask> {
        (0..n)
            .map(|id| DragonTask {
                id,
                workers: 1,
                duration: SimDuration::ZERO,
                is_function: false,
            })
            .collect()
    }

    #[test]
    fn boots_in_about_9s() {
        let (starts, _, _) = drive(runtime(4), null_tasks(1));
        assert!(
            (6.0..12.0).contains(&starts[0]),
            "first start {}",
            starts[0]
        );
    }

    #[test]
    fn exec_throughput_flat_then_declining() {
        let rate = |nodes: u32| {
            let (starts, _, _) = drive(runtime(nodes), null_tasks(3000));
            (starts.len() - 1) as f64 / (starts.last().unwrap() - starts.first().unwrap())
        };
        let r4 = rate(4);
        let r16 = rate(16);
        let r64 = rate(64);
        assert!((320.0..430.0).contains(&r4), "4-node rate {r4}");
        assert!((280.0..390.0).contains(&r16), "16-node rate {r16}");
        assert!((170.0..260.0).contains(&r64), "64-node rate {r64}");
        assert!(r64 < r16, "centralized dispatch must degrade at 64 nodes");
    }

    #[test]
    fn function_dispatch_is_faster() {
        let tasks: Vec<DragonTask> = (0..2000)
            .map(|id| DragonTask {
                id,
                workers: 1,
                duration: SimDuration::ZERO,
                is_function: true,
            })
            .collect();
        let (f_starts, _, _) = drive(runtime(4), tasks);
        let f_rate =
            (f_starts.len() - 1) as f64 / (f_starts.last().unwrap() - f_starts.first().unwrap());
        assert!(f_rate > 550.0, "function rate {f_rate}");
    }

    #[test]
    fn worker_pool_backpressure() {
        // 1 node = 56 workers; 224 tasks of 10 s: exactly 4 waves, peak 56.
        let tasks: Vec<DragonTask> = (0..224)
            .map(|id| DragonTask {
                id,
                workers: 1,
                duration: SimDuration::from_secs(10),
                is_function: false,
            })
            .collect();
        let (starts, peak, sim) = drive(runtime(1), tasks);
        assert_eq!(starts.len(), 224);
        assert_eq!(peak, 56, "all workers busy at peak");
        assert_eq!(sim.completed_count(), 224);
    }

    #[test]
    #[should_panic(expected = "wants")]
    fn oversized_task_rejected() {
        let mut sim = runtime(1);
        sim.submit(
            DragonTask {
                id: 0,
                workers: 57,
                duration: SimDuration::ZERO,
                is_function: false,
            },
            &mut Vec::new(),
        );
    }

    /// `submit`'s bound is the in-service shape stored at `new`: node
    /// faults only move workers between the pool and the outages, and a
    /// restart rebuilds the pool from the owner's mask, so the bound always
    /// equals the sum it replaced.
    #[test]
    fn full_capacity_holds_across_faults_and_restart() {
        let mut sim = runtime(2);
        let mut acts = Vec::new();
        let check = |sim: &DragonSim| {
            let outage: u64 = sim.removed.iter().map(|(_, w)| w).sum();
            assert_eq!(sim.worker_capacity + outage, sim.full_capacity);
            assert_eq!(sim.full_capacity, 112);
        };
        check(&sim);
        sim.boot(&[], &mut acts);
        sim.fail_node(0, &mut acts);
        assert_eq!(sim.worker_capacity(), 56);
        check(&sim);
        // As wide as the in-service shape: queues until node_up.
        let wide = DragonTask {
            id: 0,
            workers: 112,
            duration: SimDuration::from_secs(1),
            is_function: false,
        };
        sim.submit(wide, &mut acts);
        assert_eq!(sim.kill(), vec![0]);
        check(&sim);
        // Node 0 is still down in the owner's mask: the restart keeps it out.
        sim.boot(&[true, false], &mut acts);
        assert_eq!(sim.worker_capacity(), 56);
        check(&sim);
        sim.fail_node(1, &mut acts);
        assert_eq!(sim.worker_capacity(), 0);
        check(&sim);
        sim.node_up(0, &mut acts);
        sim.node_up(1, &mut acts);
        assert_eq!(sim.worker_capacity(), 112);
        check(&sim);
        sim.submit(wide, &mut acts);
        assert_eq!(sim.queued(), 1);
    }

    #[test]
    fn node_failure_reaps_by_uid_and_node_up_restores() {
        // 2 nodes = 112 workers; long tasks so plenty are resident when the
        // node dies.
        let tasks: Vec<DragonTask> = (0..112)
            .map(|id| DragonTask {
                id,
                workers: 1,
                duration: SimDuration::from_secs(60),
                is_function: false,
            })
            .collect();
        let mut sim = runtime(2);
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut acts = Vec::new();
        sim.boot(&[], &mut acts);
        for t in tasks {
            sim.submit(t, &mut acts);
        }
        for a in acts.drain(..) {
            if let Action::Timer { after, token } = a {
                heap.push(Reverse((after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        let mut lost: Vec<u64> = Vec::new();
        let mut injected = false;
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            sim.on_token(SimTime::from_micros(t), tok, &mut acts);
            if !injected && sim.busy_workers() > 20 {
                injected = true;
                lost = sim.fail_node(0, &mut acts);
                assert!(!lost.is_empty());
                assert!(lost.iter().all(|id| id % 2 == 0), "node 0 residents");
                assert_eq!(sim.worker_capacity(), 56, "one node's workers gone");
            }
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((t + after.as_micros(), seq, token)));
                    seq += 1;
                }
            }
        }
        assert!(injected);
        assert!(sim.is_idle(), "survivors drain past the fault");
        assert_eq!(sim.completed_count() + lost.len() as u64, 112);
        sim.node_up(0, &mut acts);
        assert_eq!(sim.worker_capacity(), 112);
        // The reaped tasks resubmit and complete on the restored pool.
        for id in &lost {
            sim.submit(
                DragonTask {
                    id: *id,
                    workers: 1,
                    duration: SimDuration::from_secs(60),
                    is_function: false,
                },
                &mut acts,
            );
        }
        for a in acts.drain(..) {
            if let Action::Timer { after, token } = a {
                heap.push(Reverse((after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            sim.on_token(SimTime::from_micros(t), tok, &mut acts);
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((t + after.as_micros(), seq, token)));
                    seq += 1;
                }
            }
        }
        assert!(sim.is_idle());
        assert_eq!(sim.completed_count(), 112);
        assert_eq!(sim.busy_workers(), 0);
    }

    #[test]
    fn crash_then_restart_runs_again() {
        let mut sim = runtime(1);
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut acts = Vec::new();
        sim.boot(&[], &mut acts);
        for t in null_tasks(50) {
            sim.submit(t, &mut acts);
        }
        for a in acts.drain(..) {
            if let Action::Timer { after, token } = a {
                heap.push(Reverse((after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        let mut lost: Vec<u64> = Vec::new();
        let mut crash_t = 0u64;
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            sim.on_token(SimTime::from_micros(t), tok, &mut acts);
            if lost.is_empty() && sim.completed_count() > 5 {
                crash_t = t;
                lost = sim.kill();
                assert!(!lost.is_empty());
            }
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((t + after.as_micros(), seq, token)));
                    seq += 1;
                }
            }
        }
        assert!(!sim.is_alive());
        let t0 = crash_t + 10_000_000;
        sim.boot(&[], &mut acts);
        assert!(sim.is_alive());
        for id in &lost {
            sim.submit(
                DragonTask {
                    id: *id,
                    workers: 1,
                    duration: SimDuration::ZERO,
                    is_function: false,
                },
                &mut acts,
            );
        }
        for a in acts.drain(..) {
            if let Action::Timer { after, token } = a {
                heap.push(Reverse((t0 + after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            sim.on_token(SimTime::from_micros(t), tok, &mut acts);
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((t + after.as_micros(), seq, token)));
                    seq += 1;
                }
            }
        }
        assert!(sim.is_idle(), "restarted runtime must drain");
        assert_eq!(sim.completed_count(), 50);
    }

    #[test]
    fn fifo_no_reordering() {
        // Unlike Flux there is no scheduler: a wide head task blocks
        // narrower ones even if they'd fit (documented Dragon behavior).
        let mut sim = runtime(1);
        let mut acts = Vec::new();
        sim.boot(&[], &mut acts);
        for (id, workers, secs) in [(0, 56, 100), (1, 56, 100), (2, 1, 0)] {
            sim.submit(
                DragonTask {
                    id,
                    workers,
                    duration: SimDuration::from_secs(secs),
                    is_function: false,
                },
                &mut acts,
            );
        }
        // After boot+dispatch of task 0, the queue must still be [1, 2].
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0;
        for a in acts {
            if let Action::Timer { after, token } = a {
                heap.push(Reverse((after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        // Process boot + first dispatch only.
        let mut step_acts = Vec::new();
        for _ in 0..2 {
            if let Some(Reverse((t, _, tok))) = heap.pop() {
                sim.on_token(SimTime::from_micros(t), tok, &mut step_acts);
                for a in step_acts.drain(..) {
                    if let Action::Timer { after, token } = a {
                        heap.push(Reverse((t + after.as_micros(), seq, token)));
                        seq += 1;
                    }
                }
            }
        }
        assert_eq!(sim.queued(), 2, "tasks 1 and 2 both wait behind the head");
    }
}
