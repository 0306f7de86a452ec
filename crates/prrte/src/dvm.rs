//! The PRRTE distributed virtual machine (DVM), simulated.
//!
//! PRRTE occupies a distinct design point (paper §5): a persistent daemon
//! per node forming a *scheduler-less* launch fabric. Once the DVM is up,
//! `prun` launches are cheap and flat — but PRRTE "delegates coordination
//! and scheduling to external systems", so placement and queueing are the
//! caller's job (RP's agent supplies them, exactly as in the paper's prior
//! RP+PRRTE integration).
//!
//! Consequently this machine is simpler than the Flux instance: a single
//! HNP (head-node process) launch server and a running set. It refuses
//! nothing except what physically cannot run concurrently — the caller is
//! expected to have placed tasks already.
//!
//! The DVM is reactive: each call appends [`rp_sim::Action`]s to a
//! caller-provided buffer. Its timers carry `Booted` (the daemons are up),
//! `Launched` and `Done` [`Token`]s.

use rp_lineage::Lineage;
use rp_platform::{Allocation, Calibration};
use rp_sim::{Action, Dist, FxHashMap, RngStream, SimDuration, SimTime, StaleTokens, Token};
use std::collections::VecDeque;

/// Lineage backend code for prrte (`BackendKind::Prrte as u8`).
const LIN_BACKEND_PRRTE: u8 = 3;

/// A task handed to the DVM (already placed by the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrrteTask {
    /// Task uid.
    pub id: u64,
    /// Payload runtime.
    pub duration: SimDuration,
}

/// The simulated DVM.
#[derive(Debug)]
pub struct PrrteDvm {
    ready: bool,
    hnp_busy: bool,
    queue: VecDeque<PrrteTask>,
    launch_cost: Dist,
    boot_cost: Dist,
    rng: RngStream,
    in_flight: FxHashMap<u64, PrrteTask>,
    completed: u64,
    /// Deepest the HNP queue has ever been.
    queued_peak: usize,
    alive: bool,
    /// Lineage recorder plus this DVM's partition index.
    lineage: Option<(Lineage, u32)>,
    /// Uid currently in the HNP launch server.
    launching: Option<u64>,
    /// Orphaned tokens: reaped/killed tasks' `Launched` and `Done`, and
    /// the `Booted` of boots that died before it landed. Consumed on
    /// arrival so a resubmitted uid's fresh token is not confused with
    /// the orphan.
    stale: StaleTokens<Token>,
    /// A `Booted` is in flight for the current boot.
    booting: bool,
}

impl PrrteDvm {
    /// A DVM spanning `alloc`.
    pub fn new(alloc: &Allocation, cal: &Calibration, seed: u64) -> Self {
        PrrteDvm {
            ready: false,
            hnp_busy: false,
            queue: VecDeque::new(),
            launch_cost: cal.prrte_launch_cost(alloc.count),
            boot_cost: cal.prrte_bootstrap(alloc.count),
            rng: RngStream::derive(seed, "prrte-dvm"),
            in_flight: FxHashMap::default(),
            completed: 0,
            queued_peak: 0,
            alive: true,
            lineage: None,
            launching: None,
            stale: StaleTokens::default(),
            booting: false,
        }
    }

    /// Attach a lineage recorder for this DVM (`partition` is its index
    /// within the prrte deployment). HNP-queue entry and launch starts are
    /// recorded from here on — placement happens in the caller, so rejects
    /// are the agent's to record.
    pub fn attach_lineage(&mut self, lin: Lineage, partition: u32) {
        self.lineage = Some((lin, partition));
    }

    /// Whether the DVM survived so far.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Tasks waiting at the HNP.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Deepest the HNP queue has ever been (exact: updated at every
    /// enqueue, so it can't miss spikes between samples).
    pub fn queued_peak(&self) -> usize {
        self.queued_peak
    }

    /// Tasks launched and still running.
    pub fn running_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Tasks completed.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Whether the DVM drained.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    /// Uids of every resident task — queued at the HNP, or mid-launch or
    /// running (both in `in_flight`) — each once, in ascending uid order
    /// (sorted so fault-plane victim scans are deterministic regardless of
    /// hash-map iteration order).
    pub fn resident_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .queue
            .iter()
            .map(|t| t.id)
            .chain(self.in_flight.keys().copied())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Start the DVM daemons, the first time or after a
    /// [`PrrteDvm::kill`]. The RNG stream continues where it left off, so
    /// a fixed fault seed replays byte-identically. Actions are appended
    /// to `out` — callers reuse one buffer so the hot path stays
    /// allocation-free.
    pub fn boot(&mut self, out: &mut Vec<Action>) {
        self.alive = true;
        let cost = self.boot_cost.sample(&mut self.rng);
        self.booting = true;
        out.push(Action::Timer {
            after: cost,
            token: Token::Booted,
        });
    }

    /// Forcibly fail one task (queued, launching, or running) — the DVM has
    /// no node model, so node-failure victim selection is the caller's job
    /// (the agent owns placement, §5). Returns whether the id was known.
    /// In-flight timer tokens for the reaped task are remembered and
    /// swallowed on arrival.
    pub fn reap(&mut self, id: u64) -> bool {
        if !self.alive {
            return false;
        }
        if let Some(pos) = self.queue.iter().position(|t| t.id == id) {
            self.queue.remove(pos);
            return true;
        }
        if self.in_flight.remove(&id).is_none() {
            return false;
        }
        if self.launching == Some(id) {
            // The HNP stays busy until the orphaned `Launched` arrives; the
            // stale handler frees it and pumps.
            self.launching = None;
            self.stale.mark(Token::Launched(id));
        } else {
            self.stale.mark(Token::Done(id));
        }
        true
    }

    /// Submit a placed task for launch (FIFO through the HNP). Actions
    /// are appended to `out`.
    pub fn submit(&mut self, task: PrrteTask, out: &mut Vec<Action>) {
        self.queue.push_back(task);
        self.queued_peak = self.queued_peak.max(self.queue.len());
        if let Some((l, part)) = &self.lineage {
            l.record_ctx(
                task.id,
                rp_lineage::EV_BACKEND_QUEUE,
                rp_lineage::NO_DETAIL,
                LIN_BACKEND_PRRTE,
                *part,
                self.queue.len() as u64,
            );
        }
        self.pump(out);
    }

    /// Best-effort cancel of a queued (unlaunched) task.
    pub fn cancel(&mut self, id: u64) -> bool {
        if !self.alive {
            return false;
        }
        if let Some(pos) = self.queue.iter().position(|t| t.id == id) {
            self.queue.remove(pos);
            true
        } else {
            false
        }
    }

    /// Simulate a DVM crash; returns all lost task ids (PRRTE supplies no
    /// fault tolerance of its own — recovery is RP's job, §5).
    pub fn kill(&mut self) -> Vec<u64> {
        self.alive = false;
        let mut lost: Vec<u64> = Vec::new();
        lost.extend(self.queue.drain(..).map(|t| t.id));
        // Orphaned timers are typed by where the task was when the DVM died:
        // the launching task owes a `Launched`, the rest owe a `Done`. A
        // resubmission reuses the uid, so the markers are keyed by stage.
        let launching = self.launching.take();
        self.stale.extend(launching.map(Token::Launched));
        self.stale.extend(
            self.in_flight
                .keys()
                .filter(|id| Some(**id) != launching)
                .map(|&id| Token::Done(id)),
        );
        lost.extend(self.in_flight.drain().map(|(id, _)| id));
        if self.booting {
            self.stale.mark(Token::Booted);
            self.booting = false;
        }
        self.hnp_busy = false;
        self.ready = false;
        lost.sort_unstable();
        lost
    }

    /// Deliver a timer token. Actions are appended to `out`.
    pub fn on_token(&mut self, _now: SimTime, token: Token, out: &mut Vec<Action>) {
        if !self.alive {
            // Dead DVMs drop tokens, but must still consume the stale
            // markers — otherwise a fresh post-restart token of the same
            // stage would be wrongly swallowed.
            self.stale.consume(&token);
            return;
        }
        if self.stale.consume(&token) {
            // Orphan of a reaped task: a `Launched` frees the HNP now.
            if let Token::Launched(_) = token {
                self.hnp_busy = false;
                self.pump(out);
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
                self.hnp_busy = false;
                self.launching = None;
                let task = self.in_flight.get(&id).expect("launched unknown task");
                out.push(Action::Started(id));
                out.push(Action::Timer {
                    after: task.duration,
                    token: Token::Done(id),
                });
                self.pump(out);
            }
            Token::Done(id) => {
                self.in_flight.remove(&id).expect("done unknown task");
                self.completed += 1;
                out.push(Action::Completed(id));
            }
            Token::Ingested | Token::Matched(_) => {
                unreachable!("prrte schedules no {token:?} token")
            }
        }
    }

    fn pump(&mut self, out: &mut Vec<Action>) {
        if !self.ready || self.hnp_busy {
            return;
        }
        let Some(task) = self.queue.pop_front() else {
            return;
        };
        self.hnp_busy = true;
        if let Some((l, part)) = &self.lineage {
            l.record_ctx(
                task.id,
                rp_lineage::EV_LAUNCH_START,
                rp_lineage::NO_DETAIL,
                LIN_BACKEND_PRRTE,
                *part,
                self.queue.len() as u64,
            );
        }
        self.launching = Some(task.id);
        let cost = self.launch_cost.sample(&mut self.rng);
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

    fn dvm(nodes: u32) -> PrrteDvm {
        PrrteDvm::new(&alloc(nodes), &Calibration::frontier(), 5)
    }

    fn drive(mut d: PrrteDvm, tasks: Vec<PrrteTask>) -> (Vec<f64>, PrrteDvm) {
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut starts = Vec::new();
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
        d.boot(&mut acts);
        sink(
            std::mem::take(&mut acts),
            0,
            &mut heap,
            &mut seq,
            &mut starts,
        );
        for t in tasks {
            d.submit(t, &mut acts);
            sink(
                std::mem::take(&mut acts),
                0,
                &mut heap,
                &mut seq,
                &mut starts,
            );
        }
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            d.on_token(SimTime::from_micros(t), tok, &mut acts);
            sink(
                std::mem::take(&mut acts),
                t,
                &mut heap,
                &mut seq,
                &mut starts,
            );
        }
        assert!(d.is_idle());
        (starts, d)
    }

    fn nulls(n: u64) -> Vec<PrrteTask> {
        (0..n)
            .map(|id| PrrteTask {
                id,
                duration: SimDuration::ZERO,
            })
            .collect()
    }

    #[test]
    fn dvm_boots_fast_relative_to_flux() {
        let (starts, _) = drive(dvm(16), nulls(1));
        assert!(
            (3.0..7.0).contains(&starts[0]),
            "DVM up in a few seconds, got {}",
            starts[0]
        );
    }

    #[test]
    fn launch_rate_flat_across_scales() {
        let rate = |nodes| {
            let (starts, _) = drive(dvm(nodes), nulls(2000));
            (starts.len() - 1) as f64 / (starts.last().unwrap() - starts.first().unwrap())
        };
        let r1 = rate(1);
        let r64 = rate(64);
        let r1024 = rate(1024);
        assert!((110.0..145.0).contains(&r1), "1-node rate {r1}");
        assert!(r64 > 0.85 * r1, "64-node rate {r64} stays near {r1}");
        // Mild decline at 1024 from HNP contention, far gentler than srun.
        assert!(r1024 > 0.3 * r1, "1024-node rate {r1024}");
        assert!(r1024 < r1);
    }

    #[test]
    fn kill_loses_everything_for_rp_to_recover() {
        let mut d = dvm(4);
        d.boot(&mut Vec::new());
        for t in nulls(5) {
            d.submit(t, &mut Vec::new());
        }
        let lost = d.kill();
        assert_eq!(lost.len(), 5);
        assert!(!d.is_alive());
    }

    /// A mid-launch task is listed once, so a node fault reaps it once.
    #[test]
    fn resident_ids_lists_a_launching_task_once() {
        let mut d = dvm(4);
        let mut acts = Vec::new();
        d.boot(&mut acts);
        d.on_token(SimTime::ZERO, Token::Booted, &mut acts);
        for t in nulls(3) {
            d.submit(t, &mut acts);
        }
        assert_eq!(d.launching, Some(0));
        assert_eq!(d.resident_ids(), vec![0, 1, 2]);
    }

    #[test]
    fn reap_tolerates_orphaned_timers_and_resubmission() {
        let mut d = dvm(4);
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut acts = Vec::new();
        d.boot(&mut acts);
        for t in (0..40).map(|id| PrrteTask {
            id,
            duration: SimDuration::from_secs(30),
        }) {
            d.submit(t, &mut acts);
        }
        for a in acts.drain(..) {
            if let Action::Timer { after, token } = a {
                heap.push(Reverse((after.as_micros(), seq, token)));
                seq += 1;
            }
        }
        let mut reaped: Vec<u64> = Vec::new();
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            d.on_token(SimTime::from_micros(t), tok, &mut acts);
            if reaped.is_empty() && d.running_count() > 5 {
                // One running, one queued, one mid-launch if any.
                for id in [0u64, 39] {
                    assert!(d.reap(id));
                    reaped.push(id);
                }
                assert!(!d.reap(0), "already reaped");
            }
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((t + after.as_micros(), seq, token)));
                    seq += 1;
                }
            }
        }
        assert!(d.is_idle(), "survivors drain past the reap");
        assert_eq!(d.completed_count(), 38);
        // Resubmitted uids complete normally despite the earlier orphans.
        for id in &reaped {
            d.submit(
                PrrteTask {
                    id: *id,
                    duration: SimDuration::ZERO,
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
            d.on_token(SimTime::from_micros(t), tok, &mut acts);
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((t + after.as_micros(), seq, token)));
                    seq += 1;
                }
            }
        }
        assert!(d.is_idle());
        assert_eq!(d.completed_count(), 40);
    }

    #[test]
    fn kill_then_restart_drains_resubmissions() {
        let mut d = dvm(4);
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut acts = Vec::new();
        d.boot(&mut acts);
        for t in nulls(30) {
            d.submit(t, &mut acts);
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
            d.on_token(SimTime::from_micros(t), tok, &mut acts);
            if lost.is_empty() && d.completed_count() > 3 {
                crash_t = t;
                lost = d.kill();
                assert!(!lost.is_empty());
            }
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((t + after.as_micros(), seq, token)));
                    seq += 1;
                }
            }
        }
        let t0 = crash_t + 5_000_000;
        d.boot(&mut acts);
        assert!(d.is_alive());
        for id in &lost {
            d.submit(
                PrrteTask {
                    id: *id,
                    duration: SimDuration::ZERO,
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
            d.on_token(SimTime::from_micros(t), tok, &mut acts);
            for a in acts.drain(..) {
                if let Action::Timer { after, token } = a {
                    heap.push(Reverse((t + after.as_micros(), seq, token)));
                    seq += 1;
                }
            }
        }
        assert!(d.is_idle(), "restarted DVM must drain");
        assert_eq!(d.completed_count(), 30);
    }

    #[test]
    fn cancel_removes_queued_only() {
        let mut d = dvm(4);
        d.boot(&mut Vec::new());
        d.submit(
            PrrteTask {
                id: 1,
                duration: SimDuration::from_secs(10),
            },
            &mut Vec::new(),
        );
        assert!(d.cancel(1), "still queued pre-ready");
        assert!(!d.cancel(1), "already gone");
    }
}
