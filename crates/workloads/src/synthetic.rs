//! Synthetic workloads: the paper's *null* and *dummy* task batches.
//!
//! Sizing follows Table 1: `n_tasks = n_nodes * cpn * 4` with cpn = 56
//! usable cores per Frontier node — four back-to-back waves of single-core
//! tasks, enough to saturate queues and expose steady-state launch rates.

use rp_core::{Name, TaskDescription, TaskKind};
use rp_sim::SimDuration;

/// Usable cores per node on Frontier with SMT=1 (224 cores / 4 nodes in the
/// paper's srun experiment).
pub const CPN: u32 = 56;

/// Waves of tasks per core in the Table 1 sizing.
pub const WAVES: u32 = 4;

/// Number of tasks for a synthetic run on `nodes` nodes (Table 1).
pub fn task_count(nodes: u32) -> u64 {
    nodes as u64 * CPN as u64 * WAVES as u64
}

/// Null workload: `task_count(nodes)` single-core tasks that return
/// immediately — stresses only the middleware stack.
pub fn null_workload(nodes: u32) -> Vec<TaskDescription> {
    (0..task_count(nodes)).map(TaskDescription::null).collect()
}

/// Dummy workload: single-core `sleep duration` tasks — saturates queues
/// for utilization measurement without computing anything.
pub fn dummy_workload(nodes: u32, duration: SimDuration) -> Vec<TaskDescription> {
    (0..task_count(nodes))
        .map(|i| TaskDescription::dummy(i, duration))
        .collect()
}

/// Mixed workload for the hybrid experiment: alternating executable and
/// function tasks (equal halves), so RP routes one stream to Flux and the
/// other to Dragon.
pub fn mixed_workload(nodes: u32, duration: SimDuration) -> Vec<TaskDescription> {
    let function = TaskKind::Function {
        name: Name::new("dummy_sleep"),
    };
    (0..task_count(nodes))
        .map(|i| {
            let task = TaskDescription::dummy(i, duration);
            if i % 2 == 0 {
                task
            } else {
                TaskDescription {
                    kind: function,
                    ..task
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sizing() {
        assert_eq!(task_count(4), 896); // the Fig. 4 count
        assert_eq!(task_count(1024), 229_376);
    }

    #[test]
    fn null_tasks_are_instant_single_core() {
        let w = null_workload(1);
        assert_eq!(w.len(), 224);
        assert!(w.iter().all(|t| t.duration.is_zero()));
        assert!(w.iter().all(|t| t.req.total_cores() == 1));
    }

    #[test]
    fn mixed_is_half_functions() {
        let w = mixed_workload(2, SimDuration::from_secs(360));
        let funcs = w.iter().filter(|t| t.kind.is_function()).count();
        assert_eq!(funcs, w.len() / 2);
        // uids unique
        let mut uids: Vec<u64> = w.iter().map(|t| t.uid.0).collect();
        uids.sort_unstable();
        uids.dedup();
        assert_eq!(uids.len(), w.len());
    }
}
