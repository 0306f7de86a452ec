//! `rp-metrics` — aggregate telemetry for the reproduction.
//!
//! `rp-lineage` captures the raw event stream (rendered as the analog of
//! RADICAL-Pilot's `.prof` files). This crate is the layer above: the
//! *queryable, comparable* aggregates the paper's characterization is
//! built from — latency distributions, state dwell times, utilization and
//! throughput. The per-task families among them are not recorded by hooks:
//! `rp-core` folds them out of the lineage stream into a [`Registry`] at
//! the end of a run. The per-task decomposition of end-to-end time (the OVH
//! breakdown and the critical path) is not kept here: it is derived
//! exactly from causal lineage by `rp-analytics::blame`.
//!
//! Two pieces:
//!
//! 1. [`Registry`] — counters, gauges, and mergeable log-bucketed
//!    [`HistData`] histograms behind cheap-clone handles (one branch when
//!    disabled, no allocation on the hot path).
//! 2. [`openmetrics`] — deterministic OpenMetrics text export, a parser
//!    for it, and [`openmetrics::diff_openmetrics`] snapshot diffing:
//!    the seed of the perf gate wired into CI.

#![warn(missing_docs)]

mod hist;
pub mod openmetrics;
mod registry;

pub use hist::{HistData, BUCKETS};
pub use openmetrics::{
    diff_openmetrics, diff_openmetrics_with, parse_openmetrics, DiffEntry, MetricsDiff, Tolerances,
};
pub use registry::{Counter, Gauge, Histogram, MetricMeta, Registry, Snapshot};
