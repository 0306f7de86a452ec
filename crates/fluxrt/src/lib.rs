//! `rp-fluxrt` — a Flux-like hierarchical task runtime.
//!
//! The substrate substituting for Flux in the RADICAL-Pilot integration:
//! jobspecs and the job lifecycle ([`job`]), pluggable scheduling policies
//! — FCFS and EASY backfill — over a real resource pool ([`policy`]), the
//! simulated instance pipeline calibrated to the paper's measured rates
//! ([`instance`]), and a real-threaded instance executing closures on a
//! bounded set of reused worker threads with completion-driven first-fit
//! placement ([`rt`]). Multiple instances over disjoint partitions (the paper's
//! `flux_n` configuration) are composed by RP's agent in `rp-core`.

#![warn(missing_docs)]

pub mod hierarchy;
pub mod instance;
pub mod job;
pub mod policy;
pub mod rt;

pub use hierarchy::{FluxTreeSim, TreeAction, TreeToken};
pub use instance::{FluxAction, FluxInstanceSim, FluxToken};
pub use job::{ExceptionKind, JobEvent, JobId, JobSpec, JobState};
pub use policy::{EasyBackfill, Fcfs, RunningJob, SchedPolicy};
pub use rt::{FluxRt, SubmitError};
