//! Trace replay: turn recorded task records back into a submittable
//! workload, preserving shapes, durations, kinds, and (optionally) the
//! original submission timing — the "run the campaign someone else
//! recorded" path that RADICAL profiles enable.

use rp_core::{Name, TaskDescription, TaskId, TaskKind, TaskRecord};
use rp_platform::{PlacementPolicy, ResourceRequest};
use rp_sim::{SimDuration, SimTime};
use std::sync::OnceLock;

/// One replay batch: tasks that were originally submitted at (or within a
/// bucket ending at) `at`.
#[derive(Debug)]
pub struct ReplayBatch {
    /// Submission time (relative to the trace origin).
    pub at: SimTime,
    /// The reconstructed descriptions.
    pub tasks: Vec<TaskDescription>,
}

/// Reconstruct a description from a record. Exec spans become the payload
/// duration; multi-core shapes are rebuilt as whole-node spreads when the
/// core count is node-sized, else packed single-rank requests — the same
/// convention the campaign generator uses.
pub fn description_from_record(rec: &TaskRecord) -> TaskDescription {
    let duration = rec.exec_span().unwrap_or(SimDuration::ZERO);
    let cores = rec.cores.max(1);
    let req = if cores >= 56 && cores.is_multiple_of(56) {
        ResourceRequest {
            mem_per_rank_gb: 0,
            ranks: cores / 56,
            cores_per_rank: 56,
            gpus_per_rank: if rec.gpus > 0 {
                (rec.gpus / (cores / 56)).min(8) as u16
            } else {
                0
            },
            policy: PlacementPolicy::Spread,
        }
    } else {
        ResourceRequest::single(cores.min(56) as u16, rec.gpus.min(8) as u16)
    };
    static REPLAYED: OnceLock<Name> = OnceLock::new();
    let name = *REPLAYED.get_or_init(|| Name::new("replayed"));
    TaskDescription {
        uid: rec.uid,
        kind: if rec.is_function {
            TaskKind::Function { name }
        } else {
            TaskKind::Executable { name }
        },
        req,
        duration,
        backend_hint: None,
        label: rec.label,
    }
}

/// Group records into submission batches of `bucket_s` seconds, rebased so
/// the first submission lands at `t = 0`. Records are replayed with fresh
/// sequential uids when `renumber` is set (needed when replaying a trace
/// into a session that also runs other work).
pub fn replay_batches(records: &[TaskRecord], bucket_s: u64, renumber: bool) -> Vec<ReplayBatch> {
    assert!(bucket_s > 0, "bucket must be positive");
    if records.is_empty() {
        return Vec::new();
    }
    let origin = records
        .iter()
        .map(|r| r.submitted.as_micros())
        .min()
        .expect("non-empty");
    let bucket_us = bucket_s * 1_000_000;
    let mut sorted: Vec<&TaskRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.submitted, r.uid));

    let mut out: Vec<ReplayBatch> = Vec::new();
    let mut next_uid = 0u64;
    for rec in sorted {
        let offset = rec.submitted.as_micros() - origin;
        let slot = offset / bucket_us;
        let at = SimTime::from_micros(slot * bucket_us);
        if out.last().map(|b| b.at) != Some(at) {
            out.push(ReplayBatch {
                at,
                tasks: Vec::new(),
            });
        }
        let mut desc = description_from_record(rec);
        if renumber {
            desc.uid = TaskId(next_uid);
            next_uid += 1;
        }
        out.last_mut().expect("pushed").tasks.push(desc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::{PilotConfig, SimSession, StaticWorkload, TaskState};

    fn run_and_record() -> Vec<TaskRecord> {
        let mut tasks: Vec<TaskDescription> = (0..40)
            .map(|i| TaskDescription::dummy(i, SimDuration::from_secs(15)))
            .collect();
        tasks.push(TaskDescription {
            uid: TaskId(40),
            kind: TaskKind::Executable { name: "mpi".into() },
            req: ResourceRequest::mpi(2, 56, 4),
            duration: SimDuration::from_secs(30),
            backend_hint: None,
            label: "wide".into(),
        });
        SimSession::with_tasks(PilotConfig::flux(4, 1), tasks)
            .run()
            .tasks
    }

    #[test]
    fn replay_reproduces_shapes_and_durations() {
        let records = run_and_record();
        let batches = replay_batches(&records, 1, true);
        let total: usize = batches.iter().map(|b| b.tasks.len()).sum();
        assert_eq!(total, records.len());
        // The wide MPI task is reconstructed as a 2-node spread with gpus.
        let wide = batches
            .iter()
            .flat_map(|b| &b.tasks)
            .find(|t| t.label == "wide")
            .expect("wide task present");
        assert_eq!(wide.req.ranks, 2);
        assert_eq!(wide.req.cores_per_rank, 56);
        assert_eq!(wide.req.gpus_per_rank, 4);
        assert!((wide.duration.as_secs_f64() - 30.0).abs() < 0.001);
    }

    #[test]
    fn replayed_trace_runs_to_completion() {
        let records = run_and_record();
        let batches = replay_batches(&records, 5, true);
        let mut session = SimSession::new(
            PilotConfig::flux(4, 1).with_seed(99),
            Box::new(StaticWorkload::new(Vec::new())),
        );
        for b in batches {
            session = session.submit_at(b.at, b.tasks);
        }
        let report = session.run();
        assert_eq!(report.tasks.len(), records.len());
        assert!(report.tasks.iter().all(|t| t.state == TaskState::Done));
    }

    #[test]
    fn renumbering_avoids_uid_collisions() {
        let records = run_and_record();
        let batches = replay_batches(&records, 1, true);
        let mut uids: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.tasks.iter().map(|t| t.uid.0))
            .collect();
        uids.sort_unstable();
        let expected: Vec<u64> = (0..records.len() as u64).collect();
        assert_eq!(uids, expected);
    }

    #[test]
    fn empty_trace_is_empty_replay() {
        assert!(replay_batches(&[], 1, false).is_empty());
    }
}
