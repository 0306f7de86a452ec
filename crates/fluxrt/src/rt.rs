//! Real-threaded Flux plane: an in-process instance that executes actual
//! closures against a live [`ResourcePool`].
//!
//! Same placement semantics as the simulated instance (resources are held
//! for the payload's lifetime; first-fit scan over the queue, i.e. a
//! depth-unlimited backfill without reservations). Placement is
//! completion-driven and there is no scheduler thread: [`FluxRt::submit`]
//! tries only the job it queues, and a worker that finishes a job frees its
//! placement and rescans the queue in first-fit order, stopping as soon as
//! the pool has no free core and no free GPU. Both keep one invariant:
//! after every placement pass no queued job fits, and since allocation only
//! shrinks free resources, only a free can make a queued job fit.
//!
//! Payloads run on a reused set of worker threads. A completing worker runs
//! the first job its rescan placed itself; other placed jobs go to parked
//! workers, and a new worker is spawned only when no parked worker is left
//! to take one. Every worker thread is therefore accounted for by a placed
//! job, so the set never exceeds the most jobs that ran at once — at most
//! the pool's cores plus GPUs, since every request that can ever fit holds
//! at least one of either. A panicking payload frees its placement and
//! leaves its worker alive. This is the plane the examples and the
//! quickstart run on.

use rp_platform::{Placement, ResourcePool, ResourceRequest};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

type Payload = Box<dyn FnOnce() + Send + 'static>;

struct Queued {
    req: ResourceRequest,
    payload: Payload,
}

/// A placed job: its resources are held until the payload returns.
struct Job {
    placement: Placement,
    payload: Payload,
}

struct St {
    pool: ResourcePool,
    /// Submitted jobs that did not fit, in submission order.
    queue: VecDeque<Queued>,
    /// Placed jobs handed to parked workers, not yet picked up.
    ready: VecDeque<Job>,
    /// Workers parked on [`Inner::work`].
    idle: usize,
    /// Placed jobs that have not finished (running or in `ready`).
    running: usize,
    /// Threads blocked in [`FluxRt::wait_idle`] or shutdown.
    drain_waiters: usize,
    completed: u64,
    shutdown: bool,
    workers: Vec<JoinHandle<()>>,
}

struct Inner {
    st: Mutex<St>,
    /// Parked workers wait here for a `ready` job or shutdown.
    work: Condvar,
    /// Drain waiters wait here for `running` to reach zero.
    drained: Condvar,
}

/// Errors from [`FluxRt::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The request can never fit this instance's resources.
    Unsatisfiable,
    /// The instance has been shut down.
    ShuttingDown,
}

/// A threaded Flux-like instance.
pub struct FluxRt {
    inner: Arc<Inner>,
}

impl FluxRt {
    /// Start an instance scheduling over `pool`. No thread starts until
    /// the first job is placed.
    pub fn start(pool: ResourcePool) -> Self {
        FluxRt {
            inner: Arc::new(Inner {
                st: Mutex::new(St {
                    pool,
                    queue: VecDeque::new(),
                    ready: VecDeque::new(),
                    idle: 0,
                    running: 0,
                    drain_waiters: 0,
                    completed: 0,
                    shutdown: false,
                    workers: Vec::new(),
                }),
                work: Condvar::new(),
                drained: Condvar::new(),
            }),
        }
    }

    /// Submit a payload with a resource shape; it runs once placed. `id`
    /// names the job for the caller; placement does not depend on it.
    pub fn submit<F>(&self, _id: u64, req: ResourceRequest, payload: F) -> Result<(), SubmitError>
    where
        F: FnOnce() + Send + 'static,
    {
        let mut guard = self.inner.lock();
        let st = &mut *guard;
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if !st.pool.can_ever_fit(&req) {
            return Err(SubmitError::Unsatisfiable);
        }
        let payload: Payload = Box::new(payload);
        // No queued job fits (the invariant), so a first-fit pass would
        // place exactly this one, if it fits.
        match st.pool.try_alloc(&req) {
            Some(placement) => {
                st.running += 1;
                hand_off(&self.inner, st, Job { placement, payload });
            }
            None => st.queue.push_back(Queued { req, payload }),
        }
        Ok(())
    }

    /// Block until the queue is empty and nothing is running.
    pub fn wait_idle(&self) {
        let guard = self.inner.lock();
        drop(self.inner.wait_drained(guard));
    }

    /// Jobs completed so far, including those whose payload panicked.
    pub fn completed(&self) -> u64 {
        self.inner.lock().completed
    }

    /// Cores currently held by running jobs.
    pub fn busy_cores(&self) -> u64 {
        self.inner.lock().pool.busy_cores()
    }

    /// Worker threads spawned so far. Never more than the most jobs that
    /// ran at once.
    #[cfg(test)]
    fn workers(&self) -> usize {
        self.inner.lock().workers.len()
    }

    /// Reject new work, drain the queue, and join the workers.
    pub fn shutdown(self) {
        // `Drop` does the work.
    }

    fn do_shutdown(&self) {
        self.inner.lock().shutdown = true;
    }
}

impl Drop for FluxRt {
    fn drop(&mut self) {
        self.do_shutdown();
        let mut guard = self.inner.wait_drained(self.inner.lock());
        // Nothing runs or waits to be placed, and nothing new can be
        // submitted: every worker is parked or about to see shutdown.
        let workers = std::mem::take(&mut guard.workers);
        drop(guard);
        self.inner.work.notify_all();
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, St> {
        self.st.lock().expect("fluxrt poisoned")
    }

    fn wait_drained<'a>(&self, mut st: MutexGuard<'a, St>) -> MutexGuard<'a, St> {
        // `running == 0` implies an empty queue: the last completion's
        // rescan ran over an empty pool, where every queued job fits.
        while st.running > 0 {
            st.drain_waiters += 1;
            st = self.drained.wait(st).expect("fluxrt poisoned");
            st.drain_waiters -= 1;
        }
        st
    }
}

/// Give a placed job to a parked worker, or to a new one if every parked
/// worker already has a `ready` job waiting for it. Called with the lock
/// held, so `idle` counts exactly the workers inside `work.wait`.
fn hand_off(inner: &Arc<Inner>, st: &mut St, job: Job) {
    if st.idle > st.ready.len() {
        st.ready.push_back(job);
        inner.work.notify_one();
        return;
    }
    let worker_inner = inner.clone();
    let worker = thread::Builder::new()
        .name(format!("fluxrt-worker-{}", st.workers.len()))
        .spawn(move || worker_loop(worker_inner, job))
        .expect("spawn fluxrt worker");
    st.workers.push(worker);
}

/// First-fit pass over the queue after a free. The first job placed is
/// returned for the calling worker to run; the rest are handed off. Stops
/// once the pool has no free core and no free GPU, since every queued
/// request holds at least one of either.
fn place_queued(inner: &Arc<Inner>, st: &mut St) -> Option<Job> {
    let mut own = None;
    let mut i = 0;
    while i < st.queue.len() && (st.pool.free_cores() > 0 || st.pool.free_gpus() > 0) {
        let Some(placement) = st.pool.try_alloc(&st.queue[i].req) else {
            i += 1;
            continue;
        };
        let payload = st.queue.remove(i).expect("index in range").payload;
        st.running += 1;
        let job = Job { placement, payload };
        if own.is_none() {
            own = Some(job);
        } else {
            hand_off(inner, st, job);
        }
    }
    own
}

fn worker_loop(inner: Arc<Inner>, mut job: Job) {
    loop {
        // A panic is contained here: the placement is still freed below
        // and this worker goes on to the next job.
        let _ = panic::catch_unwind(AssertUnwindSafe(job.payload));
        let mut guard = inner.lock();
        let st = &mut *guard;
        st.pool.free(&job.placement);
        st.running -= 1;
        st.completed += 1;
        let next = place_queued(&inner, st);
        if st.running == 0 && st.drain_waiters > 0 {
            inner.drained.notify_all();
        }
        job = match next {
            Some(job) => job,
            None => match park(&inner, guard) {
                Some(job) => job,
                None => return,
            },
        };
    }
}

/// Wait for a `ready` job; `None` once the instance is shut down and
/// drained.
fn park(inner: &Inner, mut st: MutexGuard<'_, St>) -> Option<Job> {
    loop {
        if let Some(job) = st.ready.pop_front() {
            return Some(job);
        }
        if st.shutdown && st.running == 0 {
            return None;
        }
        st.idle += 1;
        st = inner.work.wait(st).expect("fluxrt poisoned");
        st.idle -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_platform::frontier;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn pool(nodes: u32) -> ResourcePool {
        ResourcePool::over_range(frontier().node, 0, nodes)
    }

    fn cores(n: u16) -> ResourcePool {
        let spec = rp_platform::NodeSpec {
            cores: n,
            gpus: 0,
            mem_gb: 64,
        };
        ResourcePool::over_range(spec, 0, 1)
    }

    /// Run `f` on its own thread and fail if it does not return within
    /// `secs`, so a deadlock fails the test instead of hanging it.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Ok(v) => v,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("deadline passed: the runtime hung"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the test body panicked"),
        }
    }

    #[test]
    fn runs_every_payload() {
        let rt = FluxRt::start(pool(1));
        let count = Arc::new(AtomicU64::new(0));
        for i in 0..100 {
            let count = count.clone();
            rt.submit(i, ResourceRequest::single(1, 0), move || {
                count.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        rt.wait_idle();
        assert_eq!(count.load(Ordering::SeqCst), 100);
        assert_eq!(rt.completed(), 100);
        assert_eq!(rt.busy_cores(), 0);
        rt.shutdown();
    }

    #[test]
    fn respects_core_capacity() {
        // 1 node / 56 cores; 8-core jobs => at most 7 concurrent.
        let rt = FluxRt::start(pool(1));
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for i in 0..30 {
            let live = live.clone();
            let peak = peak.clone();
            rt.submit(i, ResourceRequest::single(8, 0), move || {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(3));
                live.fetch_sub(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        rt.wait_idle();
        assert!(peak.load(Ordering::SeqCst) <= 7, "peak {:?}", peak);
        rt.shutdown();
    }

    #[test]
    fn unsatisfiable_rejected_eagerly() {
        let rt = FluxRt::start(pool(1));
        let err = rt.submit(0, ResourceRequest::single(57, 0), || {});
        assert_eq!(err, Err(SubmitError::Unsatisfiable));
        rt.shutdown();
    }

    #[test]
    fn narrow_jobs_backfill_past_wide_blocker() {
        // 56-core node: a 40-core long job runs; a second 40-core job
        // blocks; 16-core short jobs must still flow.
        let rt = FluxRt::start(pool(1));
        let short_done = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(AtomicU64::new(0));
        let g1 = gate.clone();
        rt.submit(0, ResourceRequest::single(40, 0), move || {
            while g1.load(Ordering::SeqCst) == 0 {
                thread::sleep(Duration::from_millis(1));
            }
        })
        .unwrap();
        let g2 = gate.clone();
        rt.submit(1, ResourceRequest::single(40, 0), move || {
            while g2.load(Ordering::SeqCst) == 0 {
                thread::sleep(Duration::from_millis(1));
            }
        })
        .unwrap();
        for i in 0..4 {
            let sd = short_done.clone();
            rt.submit(2 + i, ResourceRequest::single(16, 0), move || {
                sd.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        // Shorts can only run beside job 0 (40+16=56); give them time.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while short_done.load(Ordering::SeqCst) < 4 {
            assert!(
                std::time::Instant::now() < deadline,
                "shorts starved behind wide blocker"
            );
            thread::sleep(Duration::from_millis(2));
        }
        gate.store(1, Ordering::SeqCst);
        rt.wait_idle();
        rt.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let rt = FluxRt::start(pool(1));
        rt.do_shutdown();
        assert_eq!(
            rt.submit(0, ResourceRequest::single(1, 0), || {}),
            Err(SubmitError::ShuttingDown)
        );
    }

    #[test]
    fn shutdown_drains_the_queue() {
        let ran = Arc::new(AtomicU64::new(0));
        let r = ran.clone();
        within(10, move || {
            let rt = FluxRt::start(cores(1));
            for i in 0..50 {
                let r = r.clone();
                rt.submit(i, ResourceRequest::single(1, 0), move || {
                    thread::sleep(Duration::from_micros(100));
                    r.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
            }
            rt.shutdown();
        });
        assert_eq!(ran.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn worker_threads_stay_within_pool_capacity() {
        // One submitter racing the workers: a worker counted busy while it
        // completes, or a rescan that hands its first job away, would spawn
        // a thread per burst instead of reusing the completing one.
        for n in [1u16, 8] {
            let (workers, completed) = within(60, move || {
                let rt = FluxRt::start(cores(n));
                for i in 0..10_000 {
                    rt.submit(i, ResourceRequest::single(1, 0), || {}).unwrap();
                }
                rt.wait_idle();
                (rt.workers(), rt.completed())
            });
            assert_eq!(completed, 10_000);
            assert!(
                (1..=n as usize).contains(&workers),
                "{workers} worker threads on a {n}-core pool"
            );
        }
    }

    #[test]
    fn concurrent_mixed_submitters_never_exceed_capacity() {
        const PER: u64 = 200;
        let runs: Arc<Vec<AtomicU64>> = Arc::new((0..4 * PER).map(|_| AtomicU64::new(0)).collect());
        let held = Arc::new(AtomicU64::new(0));
        let over = Arc::new(AtomicBool::new(false));
        let (runs2, held2, over2) = (runs.clone(), held.clone(), over.clone());
        let completed = within(60, move || {
            let rt = Arc::new(FluxRt::start(pool(1)));
            let submitters: Vec<_> = (0..4u64)
                .map(|s| {
                    let (rt, runs, held, over) =
                        (rt.clone(), runs2.clone(), held2.clone(), over2.clone());
                    thread::spawn(move || {
                        for k in 0..PER {
                            let id = s * PER + k;
                            let width = [1u16, 8, 40][(id % 3) as usize];
                            let (runs, held, over) = (runs.clone(), held.clone(), over.clone());
                            rt.submit(id, ResourceRequest::single(width, 0), move || {
                                let now = held.fetch_add(width as u64, Ordering::SeqCst);
                                if now + width as u64 > 56 {
                                    over.store(true, Ordering::SeqCst);
                                }
                                runs[id as usize].fetch_add(1, Ordering::SeqCst);
                                thread::yield_now();
                                held.fetch_sub(width as u64, Ordering::SeqCst);
                            })
                            .unwrap();
                        }
                    })
                })
                .collect();
            for s in submitters {
                s.join().unwrap();
            }
            rt.wait_idle();
            assert!(rt.workers() <= 56, "{} workers", rt.workers());
            rt.completed()
        });
        assert!(!over.load(Ordering::SeqCst), "held cores exceeded 56");
        assert_eq!(completed, 4 * PER);
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        assert_eq!(held.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn job_queued_on_a_full_pool_runs_after_a_completion() {
        within(10, || {
            let rt = FluxRt::start(cores(2));
            let (release, gate) = mpsc::channel::<()>();
            let gate = Arc::new(Mutex::new(gate));
            for i in 0..2 {
                let gate = gate.clone();
                rt.submit(i, ResourceRequest::single(1, 0), move || {
                    gate.lock().unwrap().recv().unwrap();
                })
                .unwrap();
            }
            let late = Arc::new(AtomicBool::new(false));
            let l = late.clone();
            rt.submit(2, ResourceRequest::single(1, 0), move || {
                l.store(true, Ordering::SeqCst);
            })
            .unwrap();
            thread::sleep(Duration::from_millis(20));
            assert!(!late.load(Ordering::SeqCst), "ran on a full pool");
            assert_eq!(rt.busy_cores(), 2);
            release.send(()).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while !late.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "queued job never placed");
                thread::sleep(Duration::from_millis(1));
            }
            release.send(()).unwrap();
            rt.wait_idle();
            assert_eq!(rt.completed(), 3);
            assert_eq!(rt.workers(), 2);
        });
    }

    #[test]
    fn panicking_payload_frees_its_placement_and_worker() {
        let (completed, workers, busy) = within(10, || {
            let rt = FluxRt::start(cores(1));
            rt.submit(0, ResourceRequest::single(1, 0), || panic!("payload panic"))
                .unwrap();
            for i in 1..20 {
                rt.submit(i, ResourceRequest::single(1, 0), || {}).unwrap();
            }
            rt.wait_idle();
            let out = (rt.completed(), rt.workers(), rt.busy_cores());
            rt.shutdown();
            out
        });
        assert_eq!(completed, 20);
        assert_eq!(workers, 1, "the panicking job's worker was reused");
        assert_eq!(busy, 0);
    }
}
