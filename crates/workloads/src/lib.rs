//! `rp-workloads` — workload generators for the characterization study:
//! the synthetic null/dummy/mixed batches of Table 1 ([`synthetic`]), a
//! generic adaptive stage-DAG engine ([`dag`]), and the IMPECCABLE.v2 drug
//! discovery campaign with its six heterogeneous workflows
//! ([`impeccable`]).

#![warn(missing_docs)]

pub mod active_learning;
pub mod dag;
pub mod impeccable;
pub mod replay;
pub mod synthetic;

pub use active_learning::{ActiveLearning, ActiveLearningParams};
pub use dag::{DagWorkload, Stage, StageBuilder};
pub use impeccable::{impeccable_campaign, ImpeccableParams};
pub use replay::{description_from_record, replay_batches, ReplayBatch};
pub use synthetic::{dummy_workload, mixed_workload, null_workload, task_count, CPN, WAVES};
