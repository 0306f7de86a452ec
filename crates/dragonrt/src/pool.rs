//! Real-threaded Dragon plane: a pooled-worker runtime executing registered
//! functions, wired exactly like Fig. 3 — tasks are *serialized* call frames
//! pushed through the shmem queue, workers decode and execute them, and
//! completion events travel back as serialized frames for the RP watcher
//! thread to decode. Serialization is real (the [`crate::pipe`] codec), so
//! the examples exercise the same boundary the paper's integration has.

use crate::function::{FunctionCall, FunctionRegistry};
use crate::pipe::{decode_call, encode_call, encode_event, PipeEvent};
use crate::shmem::ShmemQueue;
use rp_platform::sync::{mpmc_channel, Receiver, Sender};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Submission errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The shmem queue is full (backpressure) — retry later.
    QueueFull,
    /// The pool is shutting down.
    ShuttingDown,
}

/// A pooled-worker Dragon runtime.
pub struct DragonPool {
    tasks: Arc<ShmemQueue<Vec<u8>>>,
    events_rx: Receiver<Vec<u8>>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl DragonPool {
    /// Start `workers` workers over a queue of `queue_capacity` frames,
    /// executing against `registry`.
    pub fn start(workers: usize, queue_capacity: usize, registry: FunctionRegistry) -> Self {
        assert!(workers > 0, "need at least one worker");
        let tasks = ShmemQueue::new(queue_capacity);
        let (tx, events_rx): (Sender<Vec<u8>>, Receiver<Vec<u8>>) = mpmc_channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handles = (0..workers)
            .map(|w| {
                let tasks = tasks.clone();
                let tx = tx.clone();
                let registry = registry.clone();
                let shutdown = shutdown.clone();
                thread::Builder::new()
                    .name(format!("dragon-worker-{w}"))
                    .spawn(move || worker_loop(tasks, tx, registry, shutdown))
                    .expect("spawn worker")
            })
            .collect();
        // Workers hold the only senders: once they exit, the event stream
        // disconnects and watchers drain out.
        drop(tx);
        DragonPool {
            tasks,
            events_rx,
            shutdown,
            workers: handles,
        }
    }

    /// Submit a call. The frame crosses the shmem queue; workers pick it up
    /// FIFO. Full queue ⇒ [`PoolError::QueueFull`] (Dragon-style
    /// backpressure, never silent drops).
    pub fn submit(&self, call: &FunctionCall) -> Result<(), PoolError> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(PoolError::ShuttingDown);
        }
        self.tasks
            .push(encode_call(call))
            .map_err(|_| PoolError::QueueFull)
    }

    /// The event stream (encoded frames; decode with
    /// [`crate::pipe::decode_event`]).
    pub fn events(&self) -> &Receiver<Vec<u8>> {
        &self.events_rx
    }

    /// Tasks waiting in the shmem queue.
    pub fn backlog(&self) -> usize {
        self.tasks.len()
    }

    /// Stop accepting work, drain the queue, and join the workers.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for DragonPool {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    tasks: Arc<ShmemQueue<Vec<u8>>>,
    tx: Sender<Vec<u8>>,
    registry: FunctionRegistry,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        match tasks.pop() {
            Some(frame) => {
                let ev = match decode_call(&frame) {
                    Ok(call) => {
                        let started = PipeEvent::Started { id: call.id };
                        tx.send(encode_event(&started));
                        // A panicking function fails its task, not the worker.
                        match panic::catch_unwind(AssertUnwindSafe(|| registry.call(&call))) {
                            Ok(Ok(result)) => PipeEvent::Completed {
                                id: call.id,
                                result,
                            },
                            Ok(Err(e)) => PipeEvent::Failed {
                                id: call.id,
                                error: format!("{e:?}"),
                            },
                            Err(payload) => PipeEvent::Failed {
                                id: call.id,
                                error: format!("panicked: {}", panic_message(&*payload)),
                            },
                        }
                    }
                    Err(e) => PipeEvent::Failed {
                        id: u64::MAX,
                        error: format!("undecodable frame: {e:?}"),
                    },
                };
                tx.send(encode_event(&ev));
            }
            None => {
                // Drain-then-exit: only stop once the queue is empty.
                if shutdown.load(Ordering::Acquire) && tasks.is_empty() {
                    return;
                }
                thread::yield_now();
            }
        }
    }
}

/// The message a panic was raised with, when it is a string.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::decode_event;
    use std::collections::HashSet;

    fn echo_registry() -> FunctionRegistry {
        let reg = FunctionRegistry::new();
        reg.register("echo", |args| args.to_vec());
        reg.register("sum", |args| {
            let s: u64 = args.iter().map(|&b| b as u64).sum();
            s.to_le_bytes().to_vec()
        });
        reg
    }

    #[test]
    fn executes_all_calls_and_reports_events() {
        let pool = DragonPool::start(4, 256, echo_registry());
        for id in 0..100 {
            pool.submit(&FunctionCall {
                id,
                name: "echo".into(),
                args: vec![id as u8],
            })
            .unwrap();
        }
        let mut started = HashSet::new();
        let mut completed = HashSet::new();
        while completed.len() < 100 {
            let frame = pool
                .events()
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("event");
            match decode_event(&frame).unwrap() {
                PipeEvent::Started { id } => {
                    started.insert(id);
                }
                PipeEvent::Completed { id, result } => {
                    assert_eq!(result, vec![id as u8], "echo payload");
                    completed.insert(id);
                }
                PipeEvent::Failed { id, error } => panic!("task {id} failed: {error}"),
            }
        }
        assert_eq!(started.len(), 100);
        pool.shutdown();
    }

    #[test]
    fn unknown_function_fails_cleanly() {
        let pool = DragonPool::start(1, 8, echo_registry());
        pool.submit(&FunctionCall {
            id: 7,
            name: "missing".into(),
            args: vec![],
        })
        .unwrap();
        let mut failed = false;
        for _ in 0..2 {
            let frame = pool
                .events()
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap();
            if let PipeEvent::Failed { id, error } = decode_event(&frame).unwrap() {
                assert_eq!(id, 7);
                assert!(error.contains("missing"));
                failed = true;
            }
        }
        assert!(failed);
        pool.shutdown();
    }

    #[test]
    fn panicking_function_fails_its_task_and_keeps_the_worker() {
        let reg = echo_registry();
        reg.register("boom", |_| panic!("function panic"));
        let pool = DragonPool::start(1, 8, reg);
        for (id, name) in [(1, "boom"), (2, "echo")] {
            pool.submit(&FunctionCall {
                id,
                name: name.into(),
                args: vec![9],
            })
            .unwrap();
        }
        let mut terminal = Vec::new();
        while terminal.len() < 2 {
            let frame = pool
                .events()
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("the single worker survived the panic");
            match decode_event(&frame).unwrap() {
                PipeEvent::Started { .. } => {}
                PipeEvent::Failed { id, error } => {
                    assert!(error.contains("function panic"), "{error}");
                    terminal.push((id, false));
                }
                PipeEvent::Completed { id, .. } => terminal.push((id, true)),
            }
        }
        assert_eq!(terminal, vec![(1, false), (2, true)]);
        pool.shutdown();
    }

    #[test]
    fn queue_full_backpressure() {
        // 1 worker, tiny queue, slow function: pushes must eventually fail.
        let reg = FunctionRegistry::new();
        reg.register("slow", |_| {
            thread::sleep(std::time::Duration::from_millis(20));
            vec![]
        });
        let pool = DragonPool::start(1, 2, reg);
        let mut saw_full = false;
        for id in 0..50 {
            if pool
                .submit(&FunctionCall {
                    id,
                    name: "slow".into(),
                    args: vec![],
                })
                .is_err()
            {
                saw_full = true;
                break;
            }
        }
        assert!(saw_full, "backpressure never engaged");
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_backlog() {
        let pool = DragonPool::start(2, 256, echo_registry());
        for id in 0..40 {
            pool.submit(&FunctionCall {
                id,
                name: "sum".into(),
                args: vec![1, 2, 3],
            })
            .unwrap();
        }
        let events = pool.events().clone();
        pool.shutdown();
        // After shutdown every submitted task still produced Completed.
        let mut completed = 0;
        while let Ok(frame) = events.try_recv() {
            if matches!(decode_event(&frame).unwrap(), PipeEvent::Completed { .. }) {
                completed += 1;
            }
        }
        assert_eq!(completed, 40);
    }
}
