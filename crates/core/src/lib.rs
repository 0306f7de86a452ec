//! `rp-core` — the RADICAL-Pilot analog: the paper's primary contribution.
//!
//! RP is a pilot system: it acquires resources (a pilot) and schedules
//! application tasks onto them via late binding, decoupled from the
//! platform batch scheduler. This crate implements the extended Agent of
//! the paper (§3): task and pilot abstractions with explicit state machines
//! ([`task`], [`config`]), task-type-aware routing across concurrently
//! deployed runtime backends ([`router`]), the agent pipeline — stagers,
//! agent scheduler, per-backend executor adapters — driving the srun, Flux
//! and Dragon substrates ([`agent`]), failure handling with retry/failover,
//! adaptive workload feedback ([`workload`]), and a session API producing
//! profiled run reports ([`session`], [`report`]).
//!
//! Two execution planes share this logic: the DES plane used by the
//! paper-scale experiments, and the real-threaded plane ([`rt`]) that runs
//! actual closures for the examples.

#![warn(missing_docs)]

pub mod agent;
pub mod backend;
pub mod config;
mod metrics;
pub mod pilot;
mod profile;
pub mod report;
pub mod router;
pub mod rt;
pub mod service;
pub mod session;
pub mod task;
pub mod workload;

pub use backend::{BackendKind, BackendSpec};
pub use config::PilotConfig;
pub use pilot::{PilotState, PilotTrajectory};
pub use report::{InstanceReport, RunReport, RunState};
pub use router::{RouteError, Router, RoutingPolicy};
pub use rp_chaos::{FaultAction, FaultEvent, FaultPlan, FaultSpec, PlanShape, RecoveryPolicy};
pub use rp_metrics::{Registry as MetricsRegistry, Snapshot as MetricsSnapshot};
pub use rp_serving::{
    ArrivalProcess, ServingPlan, ServingReport, ServingSink, ServingSpec, ServingState, ShedPolicy,
    TaskMix,
};
pub use rt::{RtConfig, RtError, RtPayload, RtPilot, RtRecord, RtTask, RtTelemetry};
pub use service::{ServiceDescription, ServiceId, ServiceRecord};
pub use session::{SimSession, UidGen};
pub use task::{Name, TaskDescription, TaskId, TaskKind, TaskRecord, TaskState};
pub use workload::{ResourceView, StaticWorkload, WorkloadSource};
