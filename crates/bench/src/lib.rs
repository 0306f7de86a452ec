//! `rp-bench` — the experiment harness regenerating every table and figure
//! of the paper (see DESIGN.md §4 for the experiment index).
//!
//! [`experiments`] holds the evaluation as one declarative list — one
//! entry per experiment, carrying its DESIGN §4 row and Table 1 cells —
//! that the `rp-exp` binary runs by id (`rp-exp all` runs the suite).
//! [`harness`] holds the strict command-line parser, the ordered fan-out
//! and the session runner ([`repeat`]) that builds, instruments, plans and
//! writes out every session.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod microbench;

pub use harness::{
    repeat, repeat_static, write_serving, write_telemetry, Cli, ExpRow, RunOpts,
    DEFAULT_FAULT_SEED, DEFAULT_SERVING_SEED, EXP_FLAGS,
};
pub use microbench::Micro;
