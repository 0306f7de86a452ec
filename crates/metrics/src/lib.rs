//! `rp-metrics` — aggregate telemetry for the reproduction.
//!
//! `rp-lineage` captures the raw event stream (rendered as the analog of
//! RADICAL-Pilot's `.prof` files). This crate is the layer above: the
//! *queryable, comparable* aggregates the paper's characterization is
//! built from — latency distributions, state dwell times, utilization and
//! throughput. The per-task decomposition of end-to-end time (the OVH
//! breakdown and the critical path) is not kept here: it is derived
//! exactly from causal lineage by `rp-analytics::blame`.
//!
//! Two pieces:
//!
//! 1. [`Registry`] — counters, gauges, and mergeable log-bucketed
//!    [`HistData`] histograms behind cheap-clone handles, sharing the
//!    lineage recorder's cost model (one branch when disabled, no
//!    allocation on the hot path) and the sim clock (so reactive backends need no
//!    `now` plumbing).
//! 2. [`openmetrics`] — deterministic OpenMetrics text export, a parser
//!    for it, and [`openmetrics::diff_openmetrics`] snapshot diffing:
//!    the seed of the perf gate wired into CI.

#![warn(missing_docs)]

mod backend;
mod hist;
pub mod openmetrics;
mod registry;

pub use backend::BackendInstruments;
pub use hist::{HistData, BUCKETS};
pub use openmetrics::{
    diff_openmetrics, diff_openmetrics_with, parse_openmetrics, DiffEntry, MetricsDiff, Tolerances,
};
pub use registry::{Counter, Gauge, Histogram, MetricMeta, Registry, Snapshot};
