//! Randomized invariant tests for the PRRTE DVM: task conservation under
//! arbitrary loads, serial HNP launch behavior, and kill/cancel accounting.
//! Cases come from a fixed-seed [`RngStream`] so failures replay exactly.

use rp_platform::{frontier, Allocation, Calibration, Placement, ResourcePool, ResourceRequest};
use rp_prrte::{PrrteDvm, PrrteTask};
use rp_sim::{Action, RngStream, SimDuration, SimTime, Token};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Where one submission of a task stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Queued,
    Running,
}

/// The driver's books: the token heap, the stage of every live
/// submission, and the outcome counts. Every action is checked against
/// the stage of the submission it names, so an orphan token of a reaped
/// attempt that leaked into its resubmission fails here.
#[derive(Default)]
struct Books {
    heap: BinaryHeap<Reverse<(u64, u64, Token)>>,
    seq: u64,
    live: BTreeMap<u64, Stage>,
    started: usize,
    completed: usize,
}

impl Books {
    fn submitted(&mut self, id: u64) {
        assert!(
            self.live.insert(id, Stage::Queued).is_none(),
            "{id} live twice"
        );
    }

    fn reaped(&mut self, id: u64) {
        assert!(self.live.remove(&id).is_some(), "reaped {id} was not live");
    }

    fn apply(&mut self, now: u64, acts: &mut Vec<Action>) {
        for a in acts.drain(..) {
            match a {
                Action::Timer { after, token } => {
                    self.heap
                        .push(Reverse((now + after.as_micros(), self.seq, token)));
                    self.seq += 1;
                }
                Action::Started(id) => {
                    let was = self.live.insert(id, Stage::Running);
                    assert_eq!(was, Some(Stage::Queued), "start of {id}");
                    self.started += 1;
                }
                Action::Completed(id) => {
                    assert_eq!(self.live.remove(&id), Some(Stage::Running), "end of {id}");
                    self.completed += 1;
                }
                Action::Ready => {}
                other => panic!("prrte emitted {other:?}"),
            }
        }
    }
}

/// RP's side of a PRRTE partition: the DVM has no node model, so the
/// placer over the partition's pool and the down-node mask are the
/// driver's, as they are the agent's. Tasks wait FIFO for placement and
/// reach the DVM only once placed; a dead DVM places nothing.
struct Placer {
    pool: ResourcePool,
    down: Vec<bool>,
    waiting: VecDeque<u64>,
    placed: BTreeMap<u64, Placement>,
}

impl Placer {
    fn new(alloc: &Allocation) -> Self {
        Placer {
            pool: alloc.pool(),
            down: vec![false; alloc.count as usize],
            waiting: VecDeque::new(),
            placed: BTreeMap::new(),
        }
    }

    fn release(&mut self, id: u64) {
        if let Some(pl) = self.placed.remove(&id) {
            self.pool.free(&pl);
        }
    }

    /// Book `acts`, return finished tasks' cores, and place what fits,
    /// until the DVM emits nothing new.
    fn settle(
        &mut self,
        dvm: &mut PrrteDvm,
        tasks: &[PrrteTask],
        books: &mut Books,
        now: u64,
        acts: &mut Vec<Action>,
    ) {
        loop {
            let done: Vec<u64> = acts
                .iter()
                .filter_map(|a| match a {
                    Action::Completed(id) => Some(*id),
                    _ => None,
                })
                .collect();
            books.apply(now, acts);
            for id in done {
                self.release(id);
            }
            while let Some(&id) = self.waiting.front().filter(|_| dvm.is_alive()) {
                let Some(pl) = self.pool.try_alloc(&request(id)) else {
                    break;
                };
                self.waiting.pop_front();
                self.placed.insert(id, pl);
                books.submitted(id);
                dvm.submit(tasks[id as usize], acts);
            }
            if acts.is_empty() {
                return;
            }
        }
    }

    /// Mark `node` down; a live DVM loses every resident placed there.
    fn fail_node(&mut self, dvm: &mut PrrteDvm, books: &mut Books, node: usize) {
        if std::mem::replace(&mut self.down[node], true) || !dvm.is_alive() {
            return;
        }
        self.pool.node_down(node);
        for id in dvm.resident_ids() {
            if self.placed[&id]
                .ranks
                .iter()
                .any(|r| r.node_idx as usize == node)
            {
                self.release(id);
                assert!(dvm.reap(id), "resident {id} unknown");
                books.reaped(id);
                self.waiting.push_back(id);
            }
        }
    }

    /// Mark `node` up; a live DVM's pool gets it back now.
    fn restore(&mut self, dvm: &PrrteDvm, node: usize) {
        if std::mem::replace(&mut self.down[node], false) && dvm.is_alive() {
            self.pool.node_up(node);
        }
    }

    /// Crash the DVM: its tasks' cores return and they wait for a restart.
    fn kill(&mut self, dvm: &mut PrrteDvm, books: &mut Books) {
        for id in dvm.kill() {
            self.release(id);
            books.reaped(id);
            self.waiting.push_back(id);
        }
    }

    /// Restart the DVM over the allocation minus the mask.
    fn restart(&mut self, dvm: &mut PrrteDvm, acts: &mut Vec<Action>) {
        self.pool.set_down_mask(&self.down);
        for (node, &d) in self.down.iter().enumerate() {
            assert_eq!(self.pool.is_node_down(node), d, "restart obeys the mask");
        }
        dvm.boot(acts);
    }
}

/// The cores task `id` asks RP to place: one to a whole node.
fn request(id: u64) -> ResourceRequest {
    ResourceRequest::single(1 + (id * 37 % 56) as u16, 0)
}

/// Every submitted task starts and completes exactly once; the DVM drains
/// fully. Odd cases also take seeded node faults and restores (the agent's
/// placer reaps a failed node's residents), crashes and restarts: each
/// reaped task is placed and resubmitted to the same DVM while its orphan
/// tokens may still be in flight, and every submission must end exactly
/// once (completed or reaped) with the DVM drained. The driver owns the
/// down-node mask and fails or restores nodes while the DVM is dead too;
/// each restart must bring the pool to the allocation minus the mask, and
/// at quiescence the pool is the whole allocation again.
#[test]
fn dvm_conserves_tasks() {
    let mut rng = RngStream::derive(0x9447, "dvm_conserves_tasks");
    let mut faults = RngStream::derive(0x9447, "dvm_conserves_tasks.faults");
    for case in 0..64 {
        let nodes = 1 + rng.index(127) as u32;
        let n = 1 + rng.index(79);
        let alloc = Allocation {
            spec: frontier().node,
            first: 0,
            count: nodes,
        };
        let mut dvm = PrrteDvm::new(&alloc, &Calibration::frontier(), 7);
        let tasks: Vec<PrrteTask> = (0..n)
            .map(|i| PrrteTask {
                id: i as u64,
                duration: SimDuration::from_secs(rng.next_u64() % 200),
            })
            .collect();
        let mut rp = Placer::new(&alloc);
        let mut books = Books::default();
        let mut acts = Vec::new();
        dvm.boot(&mut acts);
        rp.waiting.extend(0..n as u64);
        rp.settle(&mut dvm, &tasks, &mut books, 0, &mut acts);
        let mut budget = if case % 2 == 1 { 12 } else { 0 };
        let mut now = 0;
        loop {
            while let Some(Reverse((t, _, tok))) = books.heap.pop() {
                now = t;
                dvm.on_token(SimTime::from_micros(t), tok, &mut acts);
                rp.settle(&mut dvm, &tasks, &mut books, t, &mut acts);
                if budget == 0 || !faults.chance(0.1) {
                    continue;
                }
                budget -= 1;
                let node = faults.index(nodes as usize);
                match faults.index(4) {
                    0 => rp.fail_node(&mut dvm, &mut books, node),
                    1 => rp.restore(&dvm, node),
                    2 if dvm.is_alive() => rp.kill(&mut dvm, &mut books),
                    3 if !dvm.is_alive() => rp.restart(&mut dvm, &mut acts),
                    _ => {}
                }
                rp.settle(&mut dvm, &tasks, &mut books, t, &mut acts);
            }
            // Quiescent: restart a dead DVM, restore every node, and drain
            // whatever that releases.
            if !dvm.is_alive() {
                rp.restart(&mut dvm, &mut acts);
            }
            for node in 0..nodes as usize {
                rp.restore(&dvm, node);
            }
            rp.settle(&mut dvm, &tasks, &mut books, now, &mut acts);
            if books.heap.is_empty() {
                break;
            }
        }
        assert!(dvm.is_idle(), "case {case}");
        assert!(
            books.live.is_empty(),
            "case {case}: {:?} never ended",
            books.live
        );
        assert!(rp.waiting.is_empty() && rp.placed.is_empty(), "case {case}");
        assert!(books.started >= n, "case {case}");
        assert_eq!(books.completed, n, "case {case}");
        assert_eq!(dvm.completed_count(), n as u64, "case {case}");
        assert_eq!(
            (rp.pool.free_cores(), rp.pool.free_gpus()),
            (rp.pool.total_cores(), rp.pool.total_gpus()),
            "case {case}: the pool is the whole allocation again"
        );
    }
}

/// Cancelling a random prefix before boot removes exactly those tasks.
#[test]
fn cancel_accounting() {
    let mut rng = RngStream::derive(0x9448, "cancel_accounting");
    for case in 0..128 {
        let n = 1 + rng.index(39);
        let cancel_count = rng.index(40).min(n);
        let alloc = Allocation {
            spec: frontier().node,
            first: 0,
            count: 4,
        };
        let mut dvm = PrrteDvm::new(&alloc, &Calibration::frontier(), 7);
        dvm.boot(&mut Vec::new());
        for i in 0..n as u64 {
            dvm.submit(
                PrrteTask {
                    id: i,
                    duration: SimDuration::ZERO,
                },
                &mut Vec::new(),
            );
        }
        let mut canceled = 0;
        for i in 0..cancel_count as u64 {
            if dvm.cancel(i) {
                canceled += 1;
            }
        }
        // Pre-boot, nothing launched: every cancel hits the queue.
        assert_eq!(canceled, cancel_count, "case {case}");
        assert_eq!(dvm.queued(), n - cancel_count, "case {case}");
        // A second cancel of the same ids always fails.
        for i in 0..cancel_count as u64 {
            assert!(!dvm.cancel(i), "case {case}: double-cancel of {i}");
        }
    }
}

/// Kill returns every in-flight or queued task id exactly once.
#[test]
fn kill_returns_everything() {
    let mut rng = RngStream::derive(0x9449, "kill_returns_everything");
    for case in 0..128 {
        let n = 1 + rng.index(49);
        let alloc = Allocation {
            spec: frontier().node,
            first: 0,
            count: 4,
        };
        let mut dvm = PrrteDvm::new(&alloc, &Calibration::frontier(), 7);
        dvm.boot(&mut Vec::new());
        for i in 0..n as u64 {
            dvm.submit(
                PrrteTask {
                    id: i,
                    duration: SimDuration::from_secs(60),
                },
                &mut Vec::new(),
            );
        }
        let mut lost = dvm.kill();
        lost.sort_unstable();
        let expect: Vec<u64> = (0..n as u64).collect();
        assert_eq!(lost, expect, "case {case}");
        assert!(!dvm.is_alive(), "case {case}");
    }
}
