//! `rp-analytics` — the RADICAL-Analytics analog: deriving the paper's
//! metrics from session run reports.
//!
//! [`metrics`] computes the three §4 metrics (throughput, utilization,
//! overhead); [`mod@timeline`] reconstructs the concurrency/start-rate series
//! of Figs. 4 and 8; [`stats`] aggregates across repetitions; [`plot`] and
//! [`report`] render ASCII figures, markdown tables, and CSV dumps for the
//! experiment binaries.

#![warn(missing_docs)]

pub mod blame;
pub mod compare;
pub mod dashboard;
pub mod metrics;
pub mod plot;
pub mod profile;
pub mod report;
pub mod stats;
pub mod timeline;
pub mod trace;

pub use blame::{
    blame_report, blame_task, diff_reports, explain, render_report, BlameReport, BlameSegment,
    CriticalPath, TaskBlame, PHASES,
};
pub use compare::{compare, paired_timeline_csv, Comparison};
pub use dashboard::render_dashboard;
pub use metrics::{overheads, throughput, utilization, Overheads, Throughput, Utilization};
pub use plot::{bar_chart, line_plot, md_table};
pub use profile::{parse_profile_csv, ProfileRow};
pub use report::{digest, summarize_run, tasks_csv, timeline_csv, RunDigest};
pub use stats::{percentile, summarize, Summary};
pub use timeline::{peak_concurrency, timeline, TimelinePoint};
pub use trace::{parse_tasks_csv, ParseError};
