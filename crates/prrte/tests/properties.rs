//! Randomized invariant tests for the PRRTE DVM: task conservation under
//! arbitrary loads, serial HNP launch behavior, and kill/cancel accounting.
//! Cases come from a fixed-seed [`RngStream`] so failures replay exactly.

use rp_platform::{frontier, Allocation, Calibration};
use rp_prrte::{PrrteDvm, PrrteTask};
use rp_sim::{Action, RngStream, SimDuration, SimTime, Token};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

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

/// Every submitted task starts and completes exactly once; the DVM drains
/// fully. Odd cases also take seeded reaps (the agent's node-fault path),
/// crashes and restarts: each reaped task is resubmitted to the same DVM
/// while its orphan tokens may still be in flight, and every submission
/// must end exactly once (completed or reaped) with the DVM drained.
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
        let mut books = Books::default();
        let mut acts = Vec::new();
        dvm.boot(&mut acts);
        books.apply(0, &mut acts);
        for task in &tasks {
            books.submitted(task.id);
            dvm.submit(*task, &mut acts);
            books.apply(0, &mut acts);
        }
        let mut budget = if case % 2 == 1 { 8 } else { 0 };
        let mut lost_in_crash: Vec<u64> = Vec::new();
        let mut now = 0;
        loop {
            while let Some(Reverse((t, _, tok))) = books.heap.pop() {
                now = t;
                dvm.on_token(SimTime::from_micros(t), tok, &mut acts);
                books.apply(t, &mut acts);
                if budget == 0 || !faults.chance(0.1) {
                    continue;
                }
                budget -= 1;
                let mut resubmit = Vec::new();
                if !dvm.is_alive() {
                    dvm.restart(&mut acts);
                    resubmit = std::mem::take(&mut lost_in_crash);
                } else if faults.chance(0.7) {
                    let pick = faults.index(books.live.len().max(1));
                    if let Some(&id) = books.live.keys().nth(pick) {
                        assert!(dvm.reap(id), "case {case}: live {id} unknown");
                        books.reaped(id);
                        resubmit.push(id);
                    }
                } else {
                    for id in dvm.kill() {
                        books.reaped(id);
                        lost_in_crash.push(id);
                    }
                }
                books.apply(t, &mut acts);
                for id in resubmit {
                    books.submitted(id);
                    dvm.submit(tasks[id as usize], &mut acts);
                    books.apply(t, &mut acts);
                }
            }
            // Quiescent: restart a dead DVM and drain its resubmissions.
            if dvm.is_alive() {
                break;
            }
            dvm.restart(&mut acts);
            for id in lost_in_crash.drain(..) {
                books.submitted(id);
                dvm.submit(tasks[id as usize], &mut acts);
            }
            books.apply(now, &mut acts);
        }
        assert!(dvm.is_idle(), "case {case}");
        assert!(
            books.live.is_empty(),
            "case {case}: {:?} never ended",
            books.live
        );
        assert!(books.started >= n, "case {case}");
        assert_eq!(books.completed, n, "case {case}");
        assert_eq!(dvm.completed_count(), n as u64, "case {case}");
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
