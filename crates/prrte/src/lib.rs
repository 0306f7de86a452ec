//! `rp-prrte` — a PRRTE-like runtime substrate: the PMIx Reference RunTime
//! Environment's distributed virtual machine (DVM) model, as discussed in
//! the paper's related work (§5). Unlike Flux, PRRTE has **no internal
//! scheduler** — it offers a persistent per-node daemon fabric with fast,
//! flat `prun` launches and delegates placement, queueing, and fault
//! tolerance to the caller (RP's agent). The [`dvm`] module is the
//! simulated machine.

#![warn(missing_docs)]

pub mod dvm;

pub use dvm::{PrrteAction, PrrteDvm, PrrteTask, PrrteToken};
