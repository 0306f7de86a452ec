//! The simulated `srun` launcher: a reactive, time-agnostic state machine.
//!
//! The machine owns the two mechanisms the paper identifies behind srun's
//! poor scaling:
//!
//! 1. the **site concurrency ceiling** — every step (application task or
//!    runtime-instance bootstrap) holds one of the 112 slots from invocation
//!    until exit, capping task concurrency irrespective of node count;
//! 2. **central-controller contention** — per-step overhead grows with the
//!    allocation's node count (`n^0.66`, fitted to the measured
//!    152 → 61 t/s drop from 1 to 4 nodes).
//!
//! Being reactive (methods push [`SrunAction`]s into a caller-provided
//! buffer instead of touching a clock), the machine is driven by the DES
//! engine in experiments and by plain unit tests without any engine at
//! all. The out-parameter style lets the driver reuse one buffer across
//! every call, keeping the per-event hot path allocation-free.

use crate::step::{StepId, StepRequest};
use rp_lineage::Lineage;
use rp_platform::{Calibration, SrunSlots};
use rp_sim::{FxHashMap, FxHashSet, RngStream, SimDuration, StaleTokens};
use std::collections::VecDeque;

/// Lineage backend code for srun (`BackendKind::Srun as u8`).
const LIN_BACKEND_SRUN: u8 = 0;

/// Timer tokens the driver must deliver back via [`SrunSim::on_token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SrunToken {
    /// Launch overhead elapsed; the payload starts now.
    Launched(StepId),
    /// Payload finished; the step exits and its slot frees.
    Exited(StepId),
}

/// Effects requested by the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrunAction {
    /// Deliver `token` back after `after`.
    Timer {
        /// Delay until delivery.
        after: SimDuration,
        /// Token to deliver.
        token: SrunToken,
    },
    /// The step's payload began executing (the paper's "execution start"
    /// event — throughput counts these).
    Started(StepId),
    /// The step completed and released its slot.
    Completed(StepId),
}

/// The simulated launcher.
#[derive(Debug)]
pub struct SrunSim {
    alloc_nodes: u32,
    slots: SrunSlots,
    cal: Calibration,
    rng: RngStream,
    queue: VecDeque<StepRequest>,
    /// Longest the pending queue has ever been (exact: updated at every
    /// enqueue, so it can't miss spikes between telemetry samples).
    queued_peak: usize,
    /// Steps past slot-acquisition, keyed by id: payload duration (None for
    /// persistent holds, which release only via `release_persistent`).
    in_flight: FxHashMap<StepId, Option<SimDuration>>,
    lineage: Option<Lineage>,
    /// Last queue head a capacity reject was recorded for, so a blocked
    /// head produces one lineage event, not one per pump.
    last_reject: Option<StepId>,
    /// Steps whose `Launched` token is still in flight (slot acquired,
    /// payload not started). Needed to type orphaned timers when a node
    /// failure reaps a step: a launching victim owes a `Launched`, a
    /// running one an `Exited`.
    launching: FxHashSet<StepId>,
    /// Orphaned `Launched` tokens of reaped steps, swallowed on arrival.
    stale_launched: StaleTokens<StepId>,
    /// Orphaned `Exited` tokens of reaped steps, same discipline. Typed
    /// sets (not one) because a reaped uid can be resubmitted: the orphan
    /// of the first attempt always precedes the same-kind token of the
    /// retry, so first-arrival consumption is safe per kind.
    stale_exited: StaleTokens<StepId>,
}

impl SrunSim {
    /// A launcher for an allocation of `alloc_nodes` nodes, with the
    /// ceiling and cost model taken from `cal`.
    pub fn new(alloc_nodes: u32, cal: Calibration, seed: u64) -> Self {
        SrunSim {
            alloc_nodes,
            slots: SrunSlots::new(cal.srun_concurrency_ceiling),
            rng: RngStream::derive(seed, "srun"),
            cal,
            queue: VecDeque::new(),
            queued_peak: 0,
            in_flight: FxHashMap::default(),
            lineage: None,
            last_reject: None,
            launching: FxHashSet::default(),
            stale_launched: StaleTokens::default(),
            stale_exited: StaleTokens::default(),
        }
    }

    /// Attach a lineage recorder; step queueing, slot-capacity rejects,
    /// and launch starts are recorded against the srun backend from here
    /// on. Persistent instance-bootstrap holds are infrastructure and stay
    /// unrecorded.
    pub fn attach_lineage(&mut self, lin: Lineage) {
        self.lineage = Some(lin);
    }

    /// Steps waiting for a slot.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Deepest the pending-step queue has ever been.
    pub fn queued_peak(&self) -> usize {
        self.queued_peak
    }

    /// Slots currently held.
    pub fn slots_in_use(&self) -> usize {
        self.slots.in_use()
    }

    /// Highest concurrent slot occupancy observed.
    pub fn slots_high_water(&self) -> usize {
        self.slots.high_water()
    }

    /// The site concurrency ceiling this launcher enforces.
    pub fn ceiling(&self) -> usize {
        self.cal.srun_concurrency_ceiling
    }

    /// Submit a step; it launches immediately if a slot is free, otherwise
    /// it queues FIFO. Actions are appended to `out`.
    pub fn submit(&mut self, step: StepRequest, out: &mut Vec<SrunAction>) {
        let step_uid = step.id.0;
        self.queue.push_back(step);
        self.queued_peak = self.queued_peak.max(self.queue.len());
        if let Some(l) = &self.lineage {
            l.record_ctx(
                step_uid,
                rp_lineage::EV_BACKEND_QUEUE,
                rp_lineage::NO_DETAIL,
                LIN_BACKEND_SRUN,
                0,
                self.queue.len() as u64,
            );
        }
        self.pump(out);
    }

    /// Acquire a slot held indefinitely (used for the `srun`s that carry
    /// Flux/Dragon instance bootstraps). Queues like any other step; the
    /// driver gets `Started` when the slot is live.
    pub fn submit_persistent(&mut self, id: StepId, step_nodes: u32, out: &mut Vec<SrunAction>) {
        self.queue.push_back(StepRequest {
            id,
            step_nodes,
            duration: SimDuration::ZERO,
        });
        self.queued_peak = self.queued_peak.max(self.queue.len());
        // Mark as persistent before the pump can see it launch.
        self.in_flight.insert(id, None);
        self.pump(out);
    }

    /// Release a persistent slot (instance teardown).
    pub fn release_persistent(&mut self, id: StepId, out: &mut Vec<SrunAction>) {
        match self.in_flight.remove(&id) {
            Some(None) => {
                self.slots.release();
                self.pump(out);
            }
            other => panic!("release_persistent({id:?}) on non-persistent entry {other:?}"),
        }
    }

    /// Best-effort cancellation (`scancel` on a pending step): removes the
    /// step if it is still waiting for a slot. Launched steps run to
    /// completion.
    pub fn cancel(&mut self, id: StepId) -> bool {
        if let Some(pos) = self.queue.iter().position(|s| s.id == id) {
            self.queue.remove(pos);
            true
        } else {
            false
        }
    }

    /// Fail one node of the allocation: every launched, non-persistent step
    /// resident there (uid mod `alloc_nodes` — srun steps carry no placement
    /// map) is reaped and its slot released. Returns the lost uids, sorted.
    /// The concurrency ceiling is unaffected — it is a site-wide RPC limit,
    /// not node capacity — so there is no `node_up` counterpart here;
    /// queued steps are not resident anywhere and survive.
    pub fn fail_node(&mut self, node_idx: u32, out: &mut Vec<SrunAction>) -> Vec<u64> {
        let nodes = self.alloc_nodes.max(1) as u64;
        let mut lost: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(id, dur)| dur.is_some() && id.0 % nodes == node_idx as u64)
            .map(|(id, _)| id.0)
            .collect();
        lost.sort_unstable();
        for uid in &lost {
            let id = StepId(*uid);
            self.in_flight.remove(&id);
            if self.launching.remove(&id) {
                self.stale_launched.mark(id);
            } else {
                self.stale_exited.mark(id);
            }
            self.slots.release();
        }
        if !lost.is_empty() {
            self.pump(out);
        }
        lost
    }

    /// Deliver a timer token. Actions are appended to `out`.
    pub fn on_token(&mut self, token: SrunToken, out: &mut Vec<SrunAction>) {
        match token {
            SrunToken::Launched(id) if self.stale_launched.consume(&id) => {
                // Orphan of a reaped attempt — swallowed. (If the uid was
                // resubmitted, the orphan is consumed by whichever arrival
                // comes first; exactly one real `Launched` remains.)
            }
            SrunToken::Exited(id) if self.stale_exited.consume(&id) => {
                // Orphan of a reaped attempt: its first-attempt exit always
                // precedes the retry's (the retry restarts the payload from
                // zero later), so first-arrival consumption is safe.
            }
            SrunToken::Launched(id) => match self.in_flight.get(&id) {
                Some(Some(duration)) => {
                    self.launching.remove(&id);
                    let d = *duration;
                    out.push(SrunAction::Started(id));
                    out.push(SrunAction::Timer {
                        after: d,
                        token: SrunToken::Exited(id),
                    });
                }
                Some(None) => out.push(SrunAction::Started(id)), // persistent hold
                None => panic!("Launched token for unknown step {id:?}"),
            },
            SrunToken::Exited(id) => {
                let entry = self
                    .in_flight
                    .remove(&id)
                    .unwrap_or_else(|| panic!("Exited token for unknown step {id:?}"));
                assert!(entry.is_some(), "persistent step exited via timer");
                self.slots.release();
                out.push(SrunAction::Completed(id));
                self.pump(out);
            }
        }
    }

    /// Launch queued steps while slots are free.
    fn pump(&mut self, out: &mut Vec<SrunAction>) {
        while let Some(head) = self.queue.front() {
            let head_id = head.id;
            if !self.slots.try_acquire() {
                // The head is blocked on the concurrency ceiling: one
                // lineage reject per distinct blocked head (not per pump),
                // and only for task steps, not persistent infra holds.
                if let Some(l) = &self.lineage {
                    if self.last_reject != Some(head_id)
                        && !matches!(self.in_flight.get(&head_id), Some(None))
                    {
                        self.last_reject = Some(head_id);
                        l.record_ctx(
                            head_id.0,
                            rp_lineage::EV_PLACE_REJECT,
                            rp_lineage::REJ_CAPACITY,
                            LIN_BACKEND_SRUN,
                            0,
                            self.queue.len() as u64,
                        );
                    }
                }
                break;
            }
            let step = self.queue.pop_front().expect("non-empty queue");
            self.last_reject = None;
            if let Some(l) = &self.lineage {
                // Persistent entries were pre-registered with None.
                if !matches!(self.in_flight.get(&step.id), Some(None)) {
                    l.record_ctx(
                        step.id.0,
                        rp_lineage::EV_LAUNCH_START,
                        rp_lineage::NO_DETAIL,
                        LIN_BACKEND_SRUN,
                        0,
                        self.slots.in_use() as u64,
                    );
                }
            }
            let overhead = self
                .cal
                .srun_step_cost(self.alloc_nodes, step.step_nodes)
                .sample(&mut self.rng);
            // Persistent entries were pre-registered with None.
            self.in_flight.entry(step.id).or_insert(Some(step.duration));
            // Persistent holds are infrastructure, never reaped by node
            // failures, so only task steps need launch-phase tracking.
            if !matches!(self.in_flight.get(&step.id), Some(None)) {
                self.launching.insert(step.id);
            }
            out.push(SrunAction::Timer {
                after: overhead,
                token: SrunToken::Launched(step.id),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launcher(nodes: u32) -> SrunSim {
        SrunSim::new(nodes, Calibration::frontier(), 42)
    }

    /// Drive the machine to completion by hand, tracking virtual time, and
    /// return (start_times, completion_times) in seconds.
    fn drive(mut sim: SrunSim, steps: Vec<StepRequest>) -> (Vec<f64>, Vec<f64>, usize) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut heap: BinaryHeap<Reverse<(u64, u64, SrunToken)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut starts = Vec::new();
        let mut ends = Vec::new();
        let mut high_water = 0usize;

        let apply = |actions: Vec<SrunAction>,
                     now: u64,
                     heap: &mut BinaryHeap<Reverse<(u64, u64, SrunToken)>>,
                     seq: &mut u64,
                     starts: &mut Vec<f64>,
                     ends: &mut Vec<f64>| {
            for a in actions {
                match a {
                    SrunAction::Timer { after, token } => {
                        heap.push(Reverse((now + after.as_micros(), *seq, token)));
                        *seq += 1;
                    }
                    SrunAction::Started(_) => starts.push(now as f64 / 1e6),
                    SrunAction::Completed(_) => ends.push(now as f64 / 1e6),
                }
            }
        };

        let mut acts = Vec::new();
        for s in steps {
            sim.submit(s, &mut acts);
            apply(
                std::mem::take(&mut acts),
                now,
                &mut heap,
                &mut seq,
                &mut starts,
                &mut ends,
            );
        }
        while let Some(Reverse((t, _, token))) = heap.pop() {
            now = t;
            high_water = high_water.max(sim.slots_in_use());
            sim.on_token(token, &mut acts);
            apply(
                std::mem::take(&mut acts),
                now,
                &mut heap,
                &mut seq,
                &mut starts,
                &mut ends,
            );
        }
        (starts, ends, high_water.max(sim.slots_high_water()))
    }

    #[test]
    fn ceiling_caps_concurrency_at_112() {
        // Fig. 4 setup: 896 single-core 180 s tasks on 4 nodes.
        let steps: Vec<StepRequest> = (0..896)
            .map(|i| StepRequest::serial(i, SimDuration::from_secs(180)))
            .collect();
        let (starts, ends, high_water) = drive(launcher(4), steps);
        assert_eq!(starts.len(), 896);
        assert_eq!(ends.len(), 896);
        assert_eq!(high_water, 112, "must ride the ceiling exactly");
        // 896 tasks in waves of 112 => ~8 * (180 + overhead) seconds.
        let makespan = ends.last().unwrap() - 0.0;
        assert!(
            (1440.0..1800.0).contains(&makespan),
            "makespan {makespan} outside the 8-wave envelope"
        );
    }

    #[test]
    fn null_task_throughput_declines_with_nodes() {
        let rate = |nodes: u32| {
            let steps: Vec<StepRequest> = (0..2000)
                .map(|i| StepRequest::serial(i, SimDuration::ZERO))
                .collect();
            let (starts, _, _) = drive(launcher(nodes), steps);
            let span = starts.last().unwrap() - starts.first().unwrap();
            (starts.len() - 1) as f64 / span
        };
        let r1 = rate(1);
        let r4 = rate(4);
        let r16 = rate(16);
        assert!((130.0..180.0).contains(&r1), "1-node rate {r1}");
        assert!((50.0..75.0).contains(&r4), "4-node rate {r4}");
        assert!(r16 < r4 && r4 < r1, "rates must decline: {r1} {r4} {r16}");
    }

    #[test]
    fn persistent_slots_reduce_capacity() {
        let mut sim = launcher(4);
        for i in 0..112 {
            let mut acts = Vec::new();
            sim.submit_persistent(StepId(10_000 + i), 1, &mut acts);
            assert!(!acts.is_empty());
        }
        assert_eq!(sim.slots_in_use(), 112);
        // A regular step now queues.
        let mut acts = Vec::new();
        sim.submit(StepRequest::serial(1, SimDuration::ZERO), &mut acts);
        assert!(acts.is_empty(), "no slot -> no timer yet");
        assert_eq!(sim.queued(), 1);
        // Releasing one persistent slot lets it launch.
        sim.release_persistent(StepId(10_000), &mut acts);
        assert!(acts.iter().any(|a| matches!(
            a,
            SrunAction::Timer {
                token: SrunToken::Launched(StepId(1)),
                ..
            }
        )));
    }

    #[test]
    #[should_panic(expected = "non-persistent")]
    fn release_of_regular_step_panics() {
        let mut sim = launcher(1);
        sim.submit(StepRequest::serial(3, SimDuration::ZERO), &mut Vec::new());
        sim.release_persistent(StepId(3), &mut Vec::new());
    }

    #[test]
    fn fail_node_reaps_residents_and_frees_slots() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut sim = launcher(4);
        let mut heap: BinaryHeap<Reverse<(u64, u64, SrunToken)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut acts = Vec::new();
        for i in 0..300 {
            sim.submit(
                StepRequest::serial(i, SimDuration::from_secs(60)),
                &mut acts,
            );
        }
        for a in acts.drain(..) {
            if let SrunAction::Timer { after, token } = a {
                heap.push(Reverse((after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        let mut lost: Vec<u64> = Vec::new();
        let mut completed = 0u64;
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            sim.on_token(tok, &mut acts);
            if lost.is_empty() && sim.slots_in_use() == 112 && sim.launching.is_empty() {
                lost = sim.fail_node(1, &mut acts);
                assert!(!lost.is_empty());
                assert!(lost.iter().all(|uid| uid % 4 == 1), "node-1 residents only");
                // Freed slots refill from the 188-deep queue immediately.
                assert_eq!(sim.slots_in_use(), 112, "freed slots refilled");
            }
            for a in acts.drain(..) {
                match a {
                    SrunAction::Timer { after, token } => {
                        heap.push(Reverse((t + after.as_micros(), seq, token)));
                        seq += 1;
                    }
                    SrunAction::Completed(_) => completed += 1,
                    _ => {}
                }
            }
        }
        assert!(!lost.is_empty(), "fault injected");
        assert_eq!(sim.queued(), 0);
        assert_eq!(sim.slots_in_use(), 0, "everything drained past the fault");
        assert_eq!(completed as usize + lost.len(), 300);
        // Resubmitting the lost uids completes them all.
        for uid in &lost {
            sim.submit(StepRequest::serial(*uid, SimDuration::ZERO), &mut acts);
        }
        for a in acts.drain(..) {
            if let SrunAction::Timer { after, token } = a {
                heap.push(Reverse((after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            sim.on_token(tok, &mut acts);
            for a in acts.drain(..) {
                match a {
                    SrunAction::Timer { after, token } => {
                        heap.push(Reverse((t + after.as_micros(), seq, token)));
                        seq += 1;
                    }
                    SrunAction::Completed(_) => completed += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(completed, 300);
        assert_eq!(sim.slots_in_use(), 0);
    }

    #[test]
    fn fail_node_mid_launch_swallows_orphaned_launched() {
        let mut sim = launcher(4);
        let mut acts = Vec::new();
        // Step 5 lives on node 1 (5 % 4); reap it while its Launched token
        // is still in flight.
        sim.submit(
            StepRequest::serial(5, SimDuration::from_secs(10)),
            &mut acts,
        );
        assert_eq!(sim.slots_in_use(), 1);
        let lost = sim.fail_node(1, &mut acts);
        assert_eq!(lost, vec![5]);
        assert_eq!(sim.slots_in_use(), 0);
        // The orphaned Launched arrives: swallowed, no Started/Exited.
        acts.clear();
        sim.on_token(SrunToken::Launched(StepId(5)), &mut acts);
        assert!(acts.is_empty(), "orphan must be silent, got {acts:?}");
    }

    #[test]
    fn fifo_order_preserved() {
        let mut sim = launcher(1);
        let mut launched = Vec::new();
        let mut acts = Vec::new();
        for i in 0..200 {
            acts.clear();
            sim.submit(StepRequest::serial(i, SimDuration::ZERO), &mut acts);
            for a in acts.drain(..) {
                if let SrunAction::Timer {
                    token: SrunToken::Launched(id),
                    ..
                } = a
                {
                    launched.push(id.0);
                }
            }
        }
        // First 112 launch immediately, in submit order.
        assert_eq!(launched, (0..112).collect::<Vec<u64>>());
        assert_eq!(sim.queued(), 88);
    }
}
