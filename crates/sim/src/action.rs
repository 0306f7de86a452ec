//! The effect vocabulary of the reactive backend sims.
//!
//! The srun launcher, the Flux instance, the Dragon runtime and the PRRTE
//! DVM are time-agnostic state machines: each call appends the effects it
//! requests to a caller-provided `Vec<Action>` and never touches a clock.
//! The driver (the DES agent, or a unit test's hand-rolled heap) schedules
//! every [`Action::Timer`] and hands its token back to the same machine's
//! `on_token` when it fires. Task state moves only on the events the
//! machines emit, the event-driven integration RP has with every runtime.

use crate::time::SimDuration;

/// A timer token: which stage of which task a backend's timer ends. The
/// union of every backend's stages; each backend schedules a subset and
/// treats any other token as a broken invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Token {
    /// The runtime finished bootstrapping.
    Booted,
    /// Flux's ingest server accepted its head jobspec.
    Ingested,
    /// Flux's match server finished placing this task.
    Matched(u64),
    /// The launcher (srun, Flux's start server, Dragon's dispatcher,
    /// PRRTE's HNP) finished launching this task.
    Launched(u64),
    /// This task's payload finished.
    Done(u64),
}

/// An effect a backend sim requests from its driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action<T = Token> {
    /// Deliver `token` back after `after`.
    Timer {
        /// Delay until delivery.
        after: SimDuration,
        /// Token to deliver.
        token: T,
    },
    /// The runtime finished booting and accepts work.
    Ready,
    /// The task's payload began executing (throughput counts these).
    Started(u64),
    /// The task's payload finished and released its resources.
    Completed(u64),
    /// The task failed without running; `retryable` when another attempt
    /// could succeed (the runtime was lost), not when it can never fit.
    Failed {
        /// Task uid.
        id: u64,
        /// Whether a retry could succeed.
        retryable: bool,
    },
}
