//! `rp-sim` — the discrete-event simulation kernel underlying the
//! `radical-rs` reproduction of the RADICAL-Pilot + Flux + Dragon
//! characterization study.
//!
//! The original paper measures task runtimes on OLCF Frontier. This crate is
//! the substitute for that machine: a deterministic, virtual-time event
//! engine on which the launcher and runtime substrates are built. It
//! provides:
//!
//! - [`time`]: integer-microsecond virtual clock types;
//! - [`engine`]: an event loop driving one actor through outside messages
//!   and its own timers, with FIFO tie-breaking, making every simulation a
//!   pure function of its inputs;
//! - [`clock`]: a shared read-only clock handle the engine keeps current,
//!   so instrumentation can timestamp without signature plumbing;
//! - [`rng`]: named, seeded random streams so components stay statistically
//!   decoupled and runs stay reproducible;
//! - [`dist`]: non-negative latency distributions (the calibration
//!   vocabulary of `rp-platform`);
//! - [`action`]: the effects and timer tokens every reactive backend sim
//!   emits, and [`stale`]: the markers that swallow a reaped task's
//!   orphaned tokens.
//!
//! Scheduling and placement *logic* lives in the substrate crates and is
//! shared with their real-threaded planes; only *time* is virtual here.

#![warn(missing_docs)]

pub mod action;
pub mod clock;
pub mod dist;
pub mod engine;
pub mod fxmap;
pub mod rng;
pub mod stale;
pub mod time;
pub mod uidmap;

pub use action::{Action, Token};
pub use clock::SimClock;
pub use dist::Dist;
pub use engine::{Actor, ActorId, Ctx, Engine};
pub use fxmap::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use rng::RngStream;
pub use stale::StaleTokens;
pub use time::{SimDuration, SimTime};
pub use uidmap::UidMap;
