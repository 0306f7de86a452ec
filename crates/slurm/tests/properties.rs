//! Randomized invariant tests for the srun launcher: the ceiling invariant
//! under arbitrary submit/complete interleavings, FIFO launch order, and
//! persistent-slot accounting. Cases come from a fixed-seed [`RngStream`]
//! so failures replay exactly.

use rp_platform::Calibration;
use rp_sim::{Action, RngStream, SimDuration, Token};
use rp_slurm::{SrunSim, StepId, StepRequest};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Under any workload, slot occupancy never exceeds the ceiling, every
/// step starts and completes exactly once, and launches preserve
/// submission order.
#[test]
fn ceiling_and_fifo_hold() {
    let mut rng = RngStream::derive(0x5105, "ceiling_and_fifo_hold");
    for case in 0..64 {
        let n = 1 + rng.index(299);
        let durations: Vec<u64> = (0..n).map(|_| rng.next_u64() % 300).collect();
        let persistent: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();

        let cal = Calibration::frontier();
        let ceiling = cal.srun_concurrency_ceiling;
        let mut sim = SrunSim::new(4, cal, 1);
        let mut heap: BinaryHeap<Reverse<(u64, u64, Token)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut started: Vec<u64> = Vec::new();
        let mut completed = 0usize;
        let mut expected_completions = 0usize;
        let mut persistent_ids: Vec<u64> = Vec::new();

        let sink = |acts: Vec<Action>,
                    now: u64,
                    heap: &mut BinaryHeap<Reverse<(u64, u64, Token)>>,
                    seq: &mut u64,
                    started: &mut Vec<u64>,
                    completed: &mut usize| {
            for a in acts {
                match a {
                    Action::Timer { after, token } => {
                        heap.push(Reverse((now + after.as_micros(), *seq, token)));
                        *seq += 1;
                    }
                    Action::Started(id) => started.push(id),
                    Action::Completed(_) => *completed += 1,
                    other => panic!("srun emitted {other:?}"),
                }
            }
        };

        let mut acts = Vec::new();
        for (i, d) in durations.iter().enumerate() {
            let is_persistent = persistent.get(i).copied().unwrap_or(false);
            if is_persistent {
                persistent_ids.push(i as u64);
                sim.submit_persistent(StepId(i as u64), 1, &mut acts);
            } else {
                expected_completions += 1;
                sim.submit(
                    StepRequest::serial(i as u64, SimDuration::from_secs(*d)),
                    &mut acts,
                );
            }
            sink(
                std::mem::take(&mut acts),
                0,
                &mut heap,
                &mut seq,
                &mut started,
                &mut completed,
            );
            assert!(sim.slots_in_use() <= ceiling, "case {case}");
        }
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            sim.on_token(tok, &mut acts);
            sink(
                std::mem::take(&mut acts),
                t,
                &mut heap,
                &mut seq,
                &mut started,
                &mut completed,
            );
            assert!(sim.slots_in_use() <= ceiling, "case {case}");
        }
        // Persistent slots may still be held; release them to drain.
        for id in &persistent_ids {
            if started.contains(id) {
                sim.release_persistent(StepId(*id), &mut acts);
                sink(
                    std::mem::take(&mut acts),
                    u64::MAX / 2,
                    &mut heap,
                    &mut seq,
                    &mut started,
                    &mut completed,
                );
            }
        }
        while let Some(Reverse((t, _, tok))) = heap.pop() {
            sim.on_token(tok, &mut acts);
            sink(
                std::mem::take(&mut acts),
                t,
                &mut heap,
                &mut seq,
                &mut started,
                &mut completed,
            );
        }

        assert_eq!(
            started.len(),
            durations.len(),
            "case {case}: every step starts once"
        );
        assert_eq!(completed, expected_completions, "case {case}");
        assert!(sim.slots_high_water() <= ceiling, "case {case}");
        // Each step started exactly once (slot grants are FIFO by
        // construction; Started order may interleave as overheads vary).
        let mut sorted = started.clone();
        sorted.sort_unstable();
        let expect: Vec<u64> = (0..durations.len() as u64).collect();
        assert_eq!(
            sorted, expect,
            "case {case}: each step started exactly once"
        );
    }
}
