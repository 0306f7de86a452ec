//! Randomized invariant tests for the RP core: task state-machine
//! soundness, session invariants under arbitrary workload mixes, and
//! failover completeness under arbitrary failure-injection schedules.
//! Cases come from fixed-seed [`RngStream`]s so failures replay exactly.

use rp_core::{BackendKind, FailureInjection, PilotConfig, SimSession, TaskDescription, TaskState};
use rp_platform::{PlacementPolicy, ResourceRequest};
use rp_sim::{RngStream, SimDuration, SimTime};

/// Task ingredients; uids are assigned positionally after generation.
fn random_task_parts(rng: &mut RngStream) -> (bool, u32, u16, u16, u64) {
    (
        rng.chance(0.5),
        1 + rng.index(3) as u32,
        1 + rng.index(56) as u16,
        rng.index(9) as u16,
        rng.next_u64() % 120,
    )
}

fn build_task(uid: u64, parts: (bool, u32, u16, u16, u64)) -> TaskDescription {
    let (function, ranks, cores, gpus, secs) = parts;
    if function {
        let mut t = TaskDescription::function(uid, "f", SimDuration::from_secs(secs));
        // Dragon path supports multi-worker function tasks.
        t.req = ResourceRequest::single(cores.min(8), 0);
        t
    } else {
        TaskDescription {
            uid: rp_core::TaskId(uid),
            kind: rp_core::TaskKind::Executable { name: "x".into() },
            req: ResourceRequest {
                mem_per_rank_gb: 0,
                ranks,
                cores_per_rank: cores,
                gpus_per_rank: gpus,
                policy: PlacementPolicy::Spread,
            },
            duration: SimDuration::from_secs(secs),
            backend_hint: None,
            label: rp_core::Name::EMPTY,
        }
    }
}

/// Arbitrary heterogeneous mixes on the hybrid pilot: every task ends in
/// a terminal state, timestamps are monotone, resources are fully
/// accounted, and the simulation quiesces.
#[test]
fn session_total_under_arbitrary_mix() {
    let mut rng = RngStream::derive(0xC04E, "session_total_under_arbitrary_mix");
    for case in 0..24 {
        let n = 1 + rng.index(59);
        let tasks: Vec<TaskDescription> = (0..n as u64)
            .map(|uid| {
                let parts = random_task_parts(&mut rng);
                build_task(uid, parts)
            })
            .collect();
        let seed = rng.next_u64() % 1000;
        let report =
            SimSession::with_tasks(PilotConfig::flux_dragon(8, 2).with_seed(seed), tasks).run();
        assert_eq!(report.tasks.len(), n, "case {case}");
        for t in &report.tasks {
            assert!(
                t.state.is_terminal(),
                "case {case}: {}: {:?}",
                t.uid,
                t.state
            );
            if t.state == TaskState::Done {
                let s = t.exec_start.expect("done => started");
                let e = t.exec_end.expect("done => ended");
                assert!(s <= e, "case {case}");
                assert!(t.submitted <= s, "case {case}");
            }
        }
    }
}

/// Failure injections at arbitrary times never lose tasks: every task is
/// Done or Failed, and Done + Failed = submitted.
#[test]
fn failover_never_loses_tasks() {
    let mut rng = RngStream::derive(0xFA11, "failover_never_loses_tasks");
    for case in 0..16 {
        let kill_at = 1 + rng.next_u64() % 399;
        let kill_partition = rng.index(2) as u32;
        let kill_dragon = rng.chance(0.5);
        let seed = rng.next_u64() % 100;
        let tasks: Vec<TaskDescription> = (0..120u64)
            .map(|i| {
                if i % 2 == 0 {
                    TaskDescription::dummy(i, SimDuration::from_secs(90))
                } else {
                    TaskDescription::function(i, "f", SimDuration::from_secs(90))
                }
            })
            .collect();
        let kind = if kill_dragon {
            BackendKind::Dragon
        } else {
            BackendKind::Flux
        };
        let report = SimSession::with_tasks(PilotConfig::flux_dragon(8, 2).with_seed(seed), tasks)
            .inject_failure(FailureInjection {
                at: SimTime::from_secs(kill_at),
                kind,
                partition: kill_partition,
            })
            .run();
        assert_eq!(report.tasks.len(), 120, "case {case}");
        let done = report
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Done)
            .count();
        let failed = report
            .tasks
            .iter()
            .filter(|t| t.state == TaskState::Failed)
            .count();
        assert_eq!(
            done + failed,
            120,
            "case {case}: every task reaches a terminal state"
        );
        // With one retry and a surviving partition, everything completes.
        assert_eq!(failed, 0, "case {case}: failover must recover all tasks");
    }
}

/// The task state machine is a DAG plus the retry edge: no transition
/// sequence can revisit Done.
#[test]
fn state_machine_done_is_absorbing() {
    use TaskState::*;
    let states = [
        New,
        StagingInput,
        Scheduling,
        Submitting,
        Submitted,
        Executing,
        Done,
        Failed,
        Canceled,
    ];
    let mut rng = RngStream::derive(0xABBA, "state_machine_done_is_absorbing");
    for case in 0..256 {
        let path_len = 1 + rng.index(29);
        let mut current = New;
        let mut was_done = false;
        for _ in 0..path_len {
            let to = states[rng.index(states.len())];
            if current.can_transition(to) {
                assert_ne!(
                    current, Done,
                    "case {case}: transition out of Done allowed: {to:?}"
                );
                current = to;
                if current == Done {
                    was_done = true;
                }
            }
        }
        if was_done {
            assert_eq!(current, Done, "case {case}: Done must be absorbing");
        }
    }
}
