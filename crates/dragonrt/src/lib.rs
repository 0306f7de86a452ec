//! `rp-dragonrt` — a Dragon-like high-throughput task runtime.
//!
//! The substrate substituting for Dragon in the RADICAL-Pilot integration:
//! a named-function registry standing in for pickled Python callables
//! ([`function`]), the serialized RP↔runtime pipe codec ([`pipe`]), the
//! shared-memory queue coordination primitive ([`shmem`]), the simulated
//! centralized-dispatcher runtime calibrated to the paper's measured rates
//! ([`sim`]), and a real pooled-worker plane that executes registered
//! functions on threads ([`pool`]).

#![warn(missing_docs)]

pub mod function;
pub mod pipe;
pub mod pool;
pub mod shmem;
pub mod sim;

pub use function::{CallError, DynFunction, FunctionCall, FunctionRegistry};
pub use pipe::{decode_call, decode_event, encode_call, encode_event, CodecError, PipeEvent};
pub use pool::{DragonPool, PoolError};
pub use shmem::ShmemQueue;
pub use sim::{DragonAction, DragonSim, DragonTask, DragonToken};
