//! Randomized invariant tests for Flux scheduling:
//! - any policy selection must denote a job that fits *now*;
//! - FCFS never skips the head;
//! - the instance pipeline conserves jobs under arbitrary workloads.
//!
//! Cases come from fixed-seed [`RngStream`]s so failures replay exactly.

use rp_fluxrt::{EasyBackfill, Fcfs, FluxInstanceSim, JobId, JobSpec, RunningJob, SchedPolicy};
use rp_platform::{
    frontier, Allocation, Calibration, PlacementPolicy, ResourcePool, ResourceRequest,
};
use rp_sim::{Action, RngStream, SimDuration, SimTime, Token};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

fn random_req(rng: &mut RngStream) -> ResourceRequest {
    ResourceRequest {
        mem_per_rank_gb: 0,
        ranks: 1 + rng.index(3) as u32,
        cores_per_rank: 1 + rng.index(56) as u16,
        gpus_per_rank: rng.index(9) as u16,
        policy: PlacementPolicy::Pack,
    }
}

/// Whatever a policy picks fits the pool right now; FCFS picks only 0.
#[test]
fn selection_always_fits() {
    let mut rng = RngStream::derive(0xF10C, "selection_always_fits");
    for case in 0..128 {
        let mut pool = ResourcePool::over_range(frontier().node, 0, 4);
        let mut running = rp_sim::FxHashMap::default();
        for i in 0..rng.index(10) {
            let r = random_req(&mut rng);
            if let Some(p) = pool.try_alloc(&r) {
                running.insert(
                    JobId(1000 + i as u64),
                    RunningJob {
                        expected_end: SimTime::from_secs(50 + i as u64),
                        placement: p,
                    },
                );
            }
        }
        let n_jobs = 1 + rng.index(19);
        let queue: VecDeque<JobSpec> = (0..n_jobs)
            .map(|i| JobSpec {
                id: JobId(i as u64),
                req: random_req(&mut rng),
                duration: SimDuration::from_secs(1 + rng.next_u64() % 499),
            })
            .collect();
        let backfill = rng.chance(0.5);
        let pick = if backfill {
            EasyBackfill::default().select(SimTime::ZERO, &queue, &pool, &running)
        } else {
            Fcfs.select(SimTime::ZERO, &queue, &pool, &running)
        };
        if let Some(idx) = pick {
            assert!(idx < queue.len(), "case {case}");
            assert!(
                pool.fits_now(&queue[idx].req),
                "case {case}: selected job must fit"
            );
            if !backfill {
                assert_eq!(idx, 0, "case {case}: FCFS only ever picks the head");
            }
        }
    }
}

/// Where one submission of a uid stands.
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
    starts: usize,
    finishes: usize,
    exceptions: usize,
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
                    self.starts += 1;
                }
                Action::Completed(id) => {
                    assert_eq!(self.live.remove(&id), Some(Stage::Running), "end of {id}");
                    self.finishes += 1;
                }
                Action::Failed { id, .. } => {
                    assert_eq!(self.live.remove(&id), Some(Stage::Queued), "fail of {id}");
                    self.exceptions += 1;
                }
                Action::Ready => {}
            }
        }
    }
}

/// The instance conserves jobs: every submitted feasible job eventually
/// finishes exactly once, infeasible ones raise exactly one exception —
/// under arbitrary job mixes. Odd cases also take seeded node faults,
/// node restores, crashes and restarts: each reaped uid is resubmitted to
/// the same instance while its orphan tokens may still be in flight, and
/// every submission must end exactly once (finished, reaped or failed)
/// with the instance drained. The driver owns node health, as the agent
/// does: it keeps the down-node mask, fails and restores nodes while the
/// instance is dead too, tells a live instance only of real transitions,
/// and each restart must build the pool from the allocation minus the
/// mask; at quiescence the pool is the whole allocation again.
#[test]
fn instance_conserves_jobs() {
    let mut rng = RngStream::derive(0xF10D, "instance_conserves_jobs");
    let mut faults = RngStream::derive(0xF10D, "instance_conserves_jobs.faults");
    for case in 0..64 {
        let specs: Vec<(ResourceRequest, u64)> = (0..1 + rng.index(39))
            .map(|_| (random_req(&mut rng), rng.next_u64() % 50))
            .collect();
        let alloc = Allocation {
            spec: frontier().node,
            first: 0,
            count: 2,
        };
        let mut inst = FluxInstanceSim::new(
            alloc,
            &Calibration::frontier(),
            Box::new(EasyBackfill::default()),
            9,
        );
        let jobs: Vec<JobSpec> = specs
            .iter()
            .enumerate()
            .map(|(i, (req, secs))| JobSpec {
                id: JobId(i as u64),
                req: *req,
                duration: SimDuration::from_secs(*secs),
            })
            .collect();
        let mut books = Books::default();
        let mut feasible = 0usize;
        let mut acts = Vec::new();
        let mut down = [false; 2];
        inst.boot(&down, &mut acts);
        books.apply(0, &mut acts);
        let restart = |inst: &mut FluxInstanceSim, down: &[bool; 2], acts: &mut Vec<Action>| {
            inst.boot(down, acts);
            let cores = 56 * down.iter().filter(|d| **d).count() as u64;
            assert_eq!(
                inst.busy_cores(),
                cores,
                "case {case}: restart obeys the mask"
            );
        };
        let pool_probe = ResourcePool::over_range(frontier().node, 0, 2);
        for job in &jobs {
            if pool_probe.can_ever_fit(&job.req) {
                feasible += 1;
            }
            books.submitted(job.id.0);
            inst.submit(*job, &mut acts);
            books.apply(0, &mut acts);
        }
        let mut budget = if case % 2 == 1 { 12 } else { 0 };
        let mut lost_in_crash: Vec<u64> = Vec::new();
        let mut now = 0;
        loop {
            while let Some(Reverse((t, _, tok))) = books.heap.pop() {
                now = t;
                let at = SimTime::from_micros(t);
                inst.on_token(at, tok, &mut acts);
                books.apply(t, &mut acts);
                if budget == 0 || !faults.chance(0.1) {
                    continue;
                }
                budget -= 1;
                let mut resubmit = Vec::new();
                let node = faults.index(2);
                match faults.index(4) {
                    0 if !down[node] => {
                        down[node] = true;
                        if inst.is_alive() {
                            for id in inst.fail_node(at, node as u32, &mut acts) {
                                books.reaped(id.0);
                                resubmit.push(id.0);
                            }
                        }
                    }
                    1 if down[node] => {
                        down[node] = false;
                        if inst.is_alive() {
                            inst.node_up(at, node as u32, &mut acts);
                        }
                    }
                    2 if inst.is_alive() => {
                        for id in inst.kill() {
                            books.reaped(id.0);
                            lost_in_crash.push(id.0);
                        }
                    }
                    3 if !inst.is_alive() => {
                        restart(&mut inst, &down, &mut acts);
                        resubmit = std::mem::take(&mut lost_in_crash);
                    }
                    _ => {}
                }
                books.apply(t, &mut acts);
                for id in resubmit {
                    books.submitted(id);
                    inst.submit(jobs[id as usize], &mut acts);
                    books.apply(t, &mut acts);
                }
            }
            // Quiescent: restart, restore every node, and drain whatever
            // that releases.
            let at = SimTime::from_micros(now);
            if !inst.is_alive() {
                restart(&mut inst, &down, &mut acts);
                for id in lost_in_crash.drain(..) {
                    books.submitted(id);
                    inst.submit(jobs[id as usize], &mut acts);
                }
            }
            for (node, d) in down.iter_mut().enumerate() {
                if std::mem::take(d) {
                    inst.node_up(at, node as u32, &mut acts);
                }
            }
            books.apply(now, &mut acts);
            if books.heap.is_empty() {
                break;
            }
        }
        assert!(inst.is_idle(), "case {case}: pipeline must drain");
        assert!(
            books.live.is_empty(),
            "case {case}: {:?} never ended",
            books.live
        );
        assert!(books.starts >= feasible, "case {case}");
        assert_eq!(
            books.finishes, feasible,
            "case {case}: every feasible job finishes once"
        );
        assert_eq!(books.exceptions, specs.len() - feasible, "case {case}");
        // A down node counts as busy, so this is also every node back.
        assert_eq!(inst.busy_cores(), 0, "case {case}: all resources returned");
        assert_eq!(inst.busy_gpus(), 0, "case {case}: all GPUs returned");
    }
}
