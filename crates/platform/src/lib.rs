//! `rp-platform` — the simulated HPC platform substrate.
//!
//! This crate substitutes for the OLCF Frontier machine of the paper:
//! node/machine geometry ([`node`]), pilot allocations and partitioning
//! ([`cluster`]), the core/GPU occupancy algebra every scheduler in the
//! workspace builds on ([`resources`]), the site `srun` concurrency ceiling
//! ([`rjms`]), and the calibrated primitive service times ([`calibration`]).
//!
//! The calibration is the *only* place where measured Frontier behavior
//! enters the model; all scheduling logic in the dependent crates is real.

#![warn(missing_docs)]

pub mod calibration;
pub mod cluster;
pub mod node;
pub mod resources;
pub mod rjms;
pub mod sync;

pub use calibration::Calibration;
pub use cluster::{Allocation, Cluster};
pub use node::{frontier, MachineSpec, NodeId, NodeSpec};
pub use resources::{Placement, PlacementPolicy, RankPlacement, ResourcePool, ResourceRequest};
pub use rjms::SrunSlots;
