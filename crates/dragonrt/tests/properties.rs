//! Randomized invariant tests for the Dragon substrate: codec robustness
//! against arbitrary bytes (never panics, never mis-decodes), worker
//! conservation in the sim runtime, and shmem-queue capacity discipline.
//! Cases come from fixed-seed [`RngStream`]s so failures replay exactly.

use rp_dragonrt::{
    decode_call, decode_event, encode_call, encode_event, DragonSim, DragonTask, FunctionCall,
    PipeEvent, ShmemQueue,
};
use rp_platform::{frontier, Allocation, Calibration};
use rp_sim::{Action, RngStream, SimDuration, SimTime, Token};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

fn random_bytes(rng: &mut RngStream, max_len: usize) -> Vec<u8> {
    let len = rng.index(max_len + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn random_name(rng: &mut RngStream, max_len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.";
    let len = rng.index(max_len + 1);
    (0..len)
        .map(|_| ALPHABET[rng.index(ALPHABET.len())] as char)
        .collect()
}

/// Decoding arbitrary bytes must never panic, and the decoders are total.
#[test]
fn codec_total_on_garbage() {
    let mut rng = RngStream::derive(0xC0DEC, "codec_total_on_garbage");
    for _ in 0..512 {
        let bytes = random_bytes(&mut rng, 256);
        let _ = decode_call(&bytes);
        let _ = decode_event(&bytes);
    }
}

/// Round-trips are exact for arbitrary payloads.
#[test]
fn codec_roundtrip_exact() {
    let mut rng = RngStream::derive(0xC0DED, "codec_roundtrip_exact");
    for case in 0..256 {
        let id = rng.next_u64();
        let name = random_name(&mut rng, 40);
        let args = random_bytes(&mut rng, 2048);
        let result = random_bytes(&mut rng, 512);
        // Printable-ASCII error strings.
        let error: String = (0..rng.index(61))
            .map(|_| (0x20 + rng.index(0x5F) as u8) as char)
            .collect();
        let call = FunctionCall { id, name, args };
        assert_eq!(
            decode_call(&encode_call(&call)).unwrap(),
            call,
            "case {case}"
        );
        for ev in [
            PipeEvent::Started { id },
            PipeEvent::Completed {
                id,
                result: result.clone(),
            },
            PipeEvent::Failed {
                id,
                error: error.clone(),
            },
        ] {
            assert_eq!(decode_event(&encode_event(&ev)).unwrap(), ev, "case {case}");
        }
    }
}

/// Mutating a single byte of a frame either fails to decode or decodes to
/// something — but never panics (header/version/length checks hold).
#[test]
fn codec_survives_bitflips() {
    let mut rng = RngStream::derive(0xC0DEE, "codec_survives_bitflips");
    for _ in 0..512 {
        let id = rng.next_u64();
        let args = random_bytes(&mut rng, 64);
        let mut bytes = encode_call(&FunctionCall {
            id,
            name: "f".into(),
            args,
        });
        let i = rng.index(bytes.len());
        bytes[i] ^= 1 << rng.index(8);
        let _ = decode_call(&bytes);
        let _ = decode_event(&bytes);
    }
}

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
                other => panic!("dragon emitted {other:?}"),
            }
        }
    }
}

/// The sim runtime conserves tasks and workers under arbitrary loads.
/// Odd cases also take seeded node faults, node restores, crashes and
/// restarts: each reaped task is resubmitted to the same runtime while its
/// orphan tokens may still be in flight, and every submission must end
/// exactly once (completed or reaped) with the runtime drained. The driver
/// owns node health, as the agent does: it keeps the down-node mask, fails
/// and restores nodes while the runtime is dead too, tells a live runtime
/// only of real transitions, and each restart must size the pool from the
/// allocation minus the mask; at quiescence every worker is back.
#[test]
fn dragon_sim_conserves() {
    let mut rng = RngStream::derive(0xD7A6, "dragon_sim_conserves");
    let mut faults = RngStream::derive(0xD7A6, "dragon_sim_conserves.faults");
    for case in 0..64 {
        let tasks: Vec<DragonTask> = (0..1 + rng.index(59))
            .map(|id| DragonTask {
                id: id as u64,
                workers: 1 + rng.index(19) as u32,
                duration: SimDuration::from_secs(rng.next_u64() % 100),
                is_function: rng.chance(0.5),
            })
            .collect();
        let alloc = Allocation {
            spec: frontier().node,
            first: 0,
            count: 2,
        };
        let mut sim = DragonSim::new(&alloc, &Calibration::frontier(), 3);
        let mut books = Books::default();
        let mut peak_busy = 0u64;
        let mut acts = Vec::new();
        let mut down = [false; 2];
        sim.boot(&down, &mut acts);
        let restart = |sim: &mut DragonSim, down: &[bool; 2], acts: &mut Vec<Action>| {
            sim.boot(down, acts);
            let up = down.iter().filter(|d| !**d).count() as u64;
            assert_eq!(
                sim.worker_capacity(),
                56 * up,
                "case {case}: restart obeys the mask"
            );
        };
        books.apply(0, &mut acts);
        for task in &tasks {
            books.submitted(task.id);
            sim.submit(*task, &mut acts);
            books.apply(0, &mut acts);
        }
        let mut budget = if case % 2 == 1 { 12 } else { 0 };
        let mut lost_in_crash: Vec<u64> = Vec::new();
        let mut now = 0;
        loop {
            while let Some(Reverse((t, _, tok))) = books.heap.pop() {
                now = t;
                sim.on_token(SimTime::from_micros(t), tok, &mut acts);
                books.apply(t, &mut acts);
                peak_busy = peak_busy.max(sim.busy_workers());
                if budget == 0 || !faults.chance(0.1) {
                    continue;
                }
                budget -= 1;
                let mut resubmit = Vec::new();
                let node = faults.index(2);
                match faults.index(4) {
                    0 if !down[node] => {
                        down[node] = true;
                        if sim.is_alive() {
                            for id in sim.fail_node(node as u32, &mut acts) {
                                books.reaped(id);
                                resubmit.push(id);
                            }
                        }
                    }
                    1 if down[node] => {
                        down[node] = false;
                        if sim.is_alive() {
                            sim.node_up(node as u32, &mut acts);
                        }
                    }
                    2 if sim.is_alive() => {
                        for id in sim.kill() {
                            books.reaped(id);
                            lost_in_crash.push(id);
                        }
                    }
                    3 if !sim.is_alive() => {
                        restart(&mut sim, &down, &mut acts);
                        resubmit = std::mem::take(&mut lost_in_crash);
                    }
                    _ => {}
                }
                books.apply(t, &mut acts);
                for id in resubmit {
                    books.submitted(id);
                    sim.submit(tasks[id as usize], &mut acts);
                    books.apply(t, &mut acts);
                }
            }
            // Quiescent: restart, restore every node, and drain whatever
            // that releases.
            if !sim.is_alive() {
                restart(&mut sim, &down, &mut acts);
                for id in lost_in_crash.drain(..) {
                    books.submitted(id);
                    sim.submit(tasks[id as usize], &mut acts);
                }
            }
            for (node, d) in down.iter_mut().enumerate() {
                if std::mem::take(d) {
                    sim.node_up(node as u32, &mut acts);
                }
            }
            books.apply(now, &mut acts);
            if books.heap.is_empty() {
                break;
            }
        }
        assert!(sim.is_idle(), "case {case}");
        assert!(
            books.live.is_empty(),
            "case {case}: {:?} never ended",
            books.live
        );
        assert!(books.started >= tasks.len(), "case {case}");
        assert_eq!(books.completed, tasks.len(), "case {case}");
        assert_eq!(sim.busy_workers(), 0, "case {case}: workers all returned");
        assert_eq!(sim.worker_capacity(), 112, "case {case}: every node back");
        assert!(
            peak_busy <= sim.worker_capacity(),
            "case {case}: pool never oversubscribed"
        );
    }
}

/// Shmem queue: never exceeds capacity, conserves items.
#[test]
fn shmem_capacity_discipline() {
    let mut rng = RngStream::derive(0x54E3, "shmem_capacity_discipline");
    for case in 0..256 {
        let capacity = 1 + rng.index(31);
        let n_ops = 1 + rng.index(199);
        let q = ShmemQueue::new(capacity);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut next = 0u32;
        for _ in 0..n_ops {
            if rng.chance(0.5) {
                match q.push(next) {
                    Ok(()) => {
                        model.push_back(next);
                        assert!(model.len() <= capacity, "case {case}");
                    }
                    Err(v) => {
                        assert_eq!(v, next, "case {case}");
                        assert_eq!(model.len(), capacity, "case {case}: reject only when full");
                    }
                }
                next += 1;
            } else {
                assert_eq!(q.pop(), model.pop_front(), "case {case}");
            }
            assert_eq!(q.len(), model.len(), "case {case}");
        }
    }
}
