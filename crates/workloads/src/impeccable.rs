//! The IMPECCABLE.v2 campaign generator (§2), at the fidelity the paper
//! itself evaluates: every task is a fixed-duration dummy (`sleep 180`),
//! but the campaign's six workflows, their stage DAG, their heterogeneous
//! resource footprints (1–7,168 cores, up to 1,024 GPUs), and the adaptive
//! instantiation driven by free resources are preserved.
//!
//! Campaign structure per round `r` (the learn–sample feedback loop):
//!
//! ```text
//!   dock[r] ── train[r] ── infer[r] ─┬─ score[r] ── reinvent[r] ─► dock[r+1]
//!      │                             └─ ampl[r]
//!      └─► esmacs[r] ◄── esmacs[r-1]     (ensemble chain, paced per round)
//! ```
//!
//! The critical path is dock → train → infer → score → reinvent → dock; the
//! generation count times that path sets the campaign makespan, while
//! scoring and ESMACS keep the machine loaded between generations.

use crate::dag::{DagWorkload, Stage};
use rp_core::{Name, TaskDescription, TaskKind};
use rp_platform::{PlacementPolicy, ResourceRequest};
use rp_sim::SimDuration;
use std::sync::OnceLock;

/// Campaign shape parameters. Defaults reproduce the paper's 256-node runs
/// (~550 tasks); counts for adaptive stages scale with pilot size, matching
/// ~1,800 tasks at 1,024 nodes.
#[derive(Debug, Clone)]
pub struct ImpeccableParams {
    /// Pilot nodes (256 or 1,024 in the paper).
    pub nodes: u32,
    /// Generations of the learn–sample loop.
    pub iterations: u32,
    /// Dummy payload duration (paper: 180 s).
    pub task_duration: SimDuration,
    /// Nodes per docking task.
    pub dock_task_nodes: u32,
    /// Fraction of free cores the adaptive docking stage claims.
    pub dock_free_frac: f64,
    /// Docking tasks per round: floor / cap (cap scales with pilot size).
    pub dock_min: u32,
    /// See [`ImpeccableParams::dock_min`].
    pub dock_max_base: u32,
    /// Nodes per SST-training task (paper: up to 4 nodes, GPU).
    pub train_nodes: u32,
    /// Nodes per inference task.
    pub infer_task_nodes: u32,
    /// Fraction of free GPUs the adaptive inference stage claims.
    pub infer_free_frac: f64,
    /// Inference tasks per round: floor / cap.
    pub infer_min: u32,
    /// See [`ImpeccableParams::infer_min`].
    pub infer_max_base: u32,
    /// Medium MMPBSA scoring tasks per round (base, scales with size).
    pub score_tasks_base: u32,
    /// Nodes per medium scoring task.
    pub score_task_nodes: u32,
    /// Nodes of the big per-round scoring job (128 on Frontier = the
    /// paper's 7,168-core maximum).
    pub score_big_nodes: u32,
    /// AMPL property-prediction tasks per round.
    pub ampl_tasks: u32,
    /// Nodes per AMPL task (paper: up to 16 nodes).
    pub ampl_nodes: u32,
    /// ESMACS ensemble members per round (base, scales with size).
    pub esmacs_tasks_base: u32,
    /// Nodes per ESMACS member.
    pub esmacs_task_nodes: u32,
    /// GPUs per node claimed by GPU stages (Frontier: 8).
    pub gpus_per_node: u16,
}

impl ImpeccableParams {
    /// Paper-shaped defaults for a pilot of `nodes` nodes.
    pub fn for_nodes(nodes: u32) -> Self {
        ImpeccableParams {
            nodes,
            iterations: 18,
            task_duration: SimDuration::from_secs(180),
            dock_task_nodes: 32,
            dock_free_frac: 0.90,
            dock_min: 2,
            dock_max_base: 8,
            train_nodes: 4,
            infer_task_nodes: 16,
            infer_free_frac: 0.20,
            infer_min: 2,
            infer_max_base: 4,
            score_tasks_base: 2,
            score_task_nodes: 64,
            score_big_nodes: 128,
            ampl_tasks: 1,
            ampl_nodes: 16,
            esmacs_tasks_base: 16, // members/round at 256 nodes
            esmacs_task_nodes: 32,
            gpus_per_node: 8,
        }
    }

    /// Linear size scale relative to the 256-node baseline.
    pub fn scale(&self) -> f64 {
        (self.nodes as f64 / 256.0).max(0.25)
    }
}

/// The campaign's eight executables, interned once per process.
fn payloads() -> [TaskKind; 8] {
    static KINDS: OnceLock<[TaskKind; 8]> = OnceLock::new();
    *KINDS.get_or_init(|| {
        [
            "autodock",
            "sst_train",
            "sst_infer",
            "mmpbsa",
            "mmpbsa_big",
            "ampl",
            "esmacs",
            "reinvent",
        ]
        .map(|name| TaskKind::Executable {
            name: Name::new(name),
        })
    })
}

/// A whole-node MPI request: `nodes` ranks, 56 cores each, `gpn` GPUs/node,
/// and a per-node memory demand (jobspecs carry memory constraints,
/// §3.2.1; whole-node stages claim most of the node's 512 GiB).
fn node_req(nodes: u32, gpn: u16) -> ResourceRequest {
    ResourceRequest {
        ranks: nodes,
        cores_per_rank: 56,
        gpus_per_rank: gpn,
        mem_per_rank_gb: 384,
        policy: PlacementPolicy::Spread,
    }
}

/// Build the campaign DAG for `params`.
pub fn impeccable_campaign(params: ImpeccableParams) -> DagWorkload {
    let p = params;
    let scale = p.scale();
    let dur = p.task_duration;
    let mut stages: Vec<Stage> = Vec::new();

    // Per-round stage indices: [dock, train, infer, score, ampl, esmacs,
    // reinvent], appended in that order.
    let idx = |round: u32, slot: u32| -> usize { (round * 7 + slot) as usize };
    let [autodock, sst_train, sst_infer, mmpbsa, mmpbsa_big, ampl, esmacs, reinvent] = payloads();

    for r in 0..p.iterations {
        // ---- dock[r]: adaptive CPU docking --------------------------------
        let deps = if r == 0 {
            vec![]
        } else {
            vec![idx(r - 1, 6)] // previous round's REINVENT output
        };
        let (dn, dfrac, dmin, dmax) = (
            p.dock_task_nodes,
            p.dock_free_frac,
            p.dock_min,
            ((p.dock_max_base as f64 * scale).round() as u32).max(p.dock_min),
        );
        let d = dur;
        stages.push(Stage {
            name: format!("dock.{r:02}"),
            deps,
            build: Box::new(move |view, uids| {
                let cores_per = dn as u64 * 56;
                let by_free = ((view.free_cores as f64 * dfrac) / cores_per as f64) as u32;
                let count = by_free.clamp(dmin, dmax);
                (0..count)
                    .map(|_| TaskDescription {
                        uid: rp_core::TaskId(uids.next_id()),
                        kind: autodock,
                        req: node_req(dn, 0),
                        duration: d,
                        backend_hint: None,
                        label: Name::EMPTY,
                    })
                    .collect()
            }),
        });

        // ---- train[r]: SST surrogate training (GPU) ----------------------
        let (tn, gpn, d) = (p.train_nodes, p.gpus_per_node, dur);
        stages.push(Stage {
            name: format!("train.{r:02}"),
            deps: vec![idx(r, 0)],
            build: Box::new(move |_view, uids| {
                vec![TaskDescription {
                    uid: rp_core::TaskId(uids.next_id()),
                    kind: sst_train,
                    req: node_req(tn, gpn),
                    duration: d,
                    backend_hint: None,
                    label: Name::EMPTY,
                }]
            }),
        });

        // ---- infer[r]: adaptive SST surrogate inference (GPU) ------------
        let (inn, ifrac, imin, imax, gpn, d) = (
            p.infer_task_nodes,
            p.infer_free_frac,
            p.infer_min,
            ((p.infer_max_base as f64 * scale).round() as u32).max(p.infer_min),
            p.gpus_per_node,
            dur,
        );
        stages.push(Stage {
            name: format!("infer.{r:02}"),
            deps: vec![idx(r, 1)],
            build: Box::new(move |view, uids| {
                let gpus_per = inn as u64 * gpn as u64;
                let by_free = ((view.free_gpus as f64 * ifrac) / gpus_per as f64) as u32;
                let count = by_free.clamp(imin, imax);
                (0..count)
                    .map(|_| TaskDescription {
                        uid: rp_core::TaskId(uids.next_id()),
                        kind: sst_infer,
                        req: node_req(inn, gpn),
                        duration: d,
                        backend_hint: None,
                        label: Name::EMPTY,
                    })
                    .collect()
            }),
        });

        // ---- score[r]: Dock-Min-MMPBSA MPI scoring ------------------------
        let (sc, scn, sbn, d) = (
            ((p.score_tasks_base as f64 * scale).round() as u32).max(1),
            p.score_task_nodes,
            p.score_big_nodes.min(p.nodes / 2),
            dur,
        );
        stages.push(Stage {
            name: format!("score.{r:02}"),
            deps: vec![idx(r, 2)],
            build: Box::new(move |_view, uids| {
                let mut out: Vec<TaskDescription> = (0..sc)
                    .map(|_| TaskDescription {
                        uid: rp_core::TaskId(uids.next_id()),
                        kind: mmpbsa,
                        req: node_req(scn, 0),
                        duration: d,
                        backend_hint: None,
                        label: Name::EMPTY,
                    })
                    .collect();
                // The per-round capability job: 128 nodes = 7,168 cores.
                out.push(TaskDescription {
                    uid: rp_core::TaskId(uids.next_id()),
                    kind: mmpbsa_big,
                    req: node_req(sbn.max(1), 0),
                    duration: d,
                    backend_hint: None,
                    label: Name::EMPTY,
                });
                out
            }),
        });

        // ---- ampl[r]: molecular property prediction -----------------------
        let (an, acount, gpn, d) = (p.ampl_nodes, p.ampl_tasks, p.gpus_per_node, dur);
        stages.push(Stage {
            name: format!("ampl.{r:02}"),
            deps: vec![idx(r, 2)],
            build: Box::new(move |_view, uids| {
                (0..acount)
                    .map(|_| TaskDescription {
                        uid: rp_core::TaskId(uids.next_id()),
                        kind: ampl,
                        req: node_req(an, gpn),
                        duration: d,
                        backend_hint: None,
                        label: Name::EMPTY,
                    })
                    .collect()
            }),
        });

        // ---- esmacs[r]: ensemble simulations (own chain) ------------------
        let deps = if r == 0 {
            vec![idx(0, 0)]
        } else {
            vec![idx(r - 1, 5), idx(r, 0)] // previous members + this round's docking
        };
        let (en, ec, gpn, d) = (
            p.esmacs_task_nodes,
            ((p.esmacs_tasks_base as f64 * scale).round() as u32).max(1),
            p.gpus_per_node / 2, // ESMACS is mixed CPU/GPU
            dur,
        );
        stages.push(Stage {
            name: format!("esmacs.{r:02}"),
            deps,
            build: Box::new(move |_view, uids| {
                (0..ec)
                    .map(|_| TaskDescription {
                        uid: rp_core::TaskId(uids.next_id()),
                        kind: esmacs,
                        req: node_req(en, gpn),
                        duration: d,
                        backend_hint: None,
                        label: Name::EMPTY,
                    })
                    .collect()
            }),
        });

        // ---- reinvent[r]: de novo generation (1 GPU node) -----------------
        let (gpn, d) = (p.gpus_per_node, dur);
        stages.push(Stage {
            name: format!("reinvent.{r:02}"),
            deps: vec![idx(r, 3)], // generation follows physics-based scoring
            build: Box::new(move |_view, uids| {
                vec![TaskDescription {
                    uid: rp_core::TaskId(uids.next_id()),
                    kind: reinvent,
                    req: node_req(1, gpn),
                    duration: d,
                    backend_hint: None,
                    label: Name::EMPTY,
                }]
            }),
        });
    }

    DagWorkload::new("impeccable", stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_core::{PilotConfig, SimSession, TaskState};

    #[test]
    fn campaign_dag_is_acyclic() {
        let dag = impeccable_campaign(ImpeccableParams::for_nodes(256));
        assert!(dag.validate_acyclic());
    }

    /// Run a scaled-down campaign end to end on the flux backend.
    #[test]
    fn miniature_campaign_completes() {
        let mut p = ImpeccableParams::for_nodes(64);
        p.iterations = 2;
        p.dock_task_nodes = 4;
        p.score_task_nodes = 8;
        p.score_big_nodes = 16;
        p.esmacs_task_nodes = 4;
        p.infer_task_nodes = 2;
        p.ampl_nodes = 4;
        let dag = impeccable_campaign(p);
        let report = SimSession::new(PilotConfig::flux(64, 1), Box::new(dag)).run();
        assert!(report.tasks.len() >= 2 * 7, "at least one task per stage");
        assert!(
            report.tasks.iter().all(|t| t.state == TaskState::Done),
            "all campaign tasks must finish"
        );
        // Labels cover all six workflows.
        for wf in [
            "dock", "train", "infer", "score", "ampl", "esmacs", "reinvent",
        ] {
            assert!(
                report.tasks.iter().any(|t| t.label.starts_with(wf)),
                "missing workflow {wf}"
            );
        }
        // Round 1 docking starts only after round 0's REINVENT ends.
        let r0_reinvent_end = report
            .tasks
            .iter()
            .filter(|t| t.label == "reinvent.00")
            .map(|t| t.exec_end.unwrap())
            .max()
            .unwrap();
        let r1_dock_start = report
            .tasks
            .iter()
            .filter(|t| t.label == "dock.01")
            .map(|t| t.exec_start.unwrap())
            .min()
            .unwrap();
        assert!(
            r1_dock_start >= r0_reinvent_end,
            "learn–sample loop ordering"
        );
    }

    #[test]
    fn task_counts_match_paper_scale() {
        // Generate the full campaigns without running them, by firing the
        // DAG with an idle-machine view.
        let count_for = |nodes: u32| {
            let mut dag = impeccable_campaign(ImpeccableParams::for_nodes(nodes));
            // Simulate stage firing with an always-idle view: counts land at
            // each adaptive stage's cap.
            let view = rp_core::ResourceView {
                free_cores: nodes as u64 * 56,
                free_gpus: nodes as u64 * 8,
                total_cores: nodes as u64 * 56,
                total_gpus: nodes as u64 * 8,
                nodes,
            };
            let mut total = 0usize;
            let mut batch = rp_core::WorkloadSource::initial(&mut dag, &view);
            // Drain the DAG by declaring every emitted task done.
            while !batch.is_empty() {
                total += batch.len();
                let mut next = Vec::new();
                for t in &batch {
                    let mut rec = rp_core::TaskRecord::new(t, rp_sim::SimTime::ZERO);
                    rec.advance(TaskState::StagingInput, rp_sim::SimTime::ZERO);
                    rec.advance(TaskState::Scheduling, rp_sim::SimTime::ZERO);
                    rec.advance(TaskState::Submitting, rp_sim::SimTime::ZERO);
                    rec.advance(TaskState::Submitted, rp_sim::SimTime::ZERO);
                    rec.advance(TaskState::Executing, rp_sim::SimTime::ZERO);
                    rec.advance(TaskState::Done, rp_sim::SimTime::ZERO);
                    next.extend(rp_core::WorkloadSource::on_task_done(&mut dag, &rec, &view));
                }
                batch = next;
            }
            total
        };
        let c256 = count_for(256);
        let c1024 = count_for(1024);
        // Paper: ~550 tasks at 256 nodes, ~1,800 at 1,024 nodes.
        assert!(
            (380..=780).contains(&c256),
            "256-node campaign: {c256} tasks"
        );
        assert!(
            (1100..=2400).contains(&c1024),
            "1024-node campaign: {c1024} tasks"
        );
        // Paper's adaptive floor: ≥102 tasks per 128 nodes.
        assert!(c256 >= 102 * 2, "floor at 256 nodes");
        assert!(c1024 >= 102 * 8, "floor at 1024 nodes");
    }

    #[test]
    fn resource_footprints_span_paper_range() {
        let mut dag = impeccable_campaign(ImpeccableParams::for_nodes(256));
        let view = rp_core::ResourceView {
            free_cores: 256 * 56,
            free_gpus: 256 * 8,
            total_cores: 256 * 56,
            total_gpus: 256 * 8,
            nodes: 256,
        };
        let first = rp_core::WorkloadSource::initial(&mut dag, &view);
        // 7,168-core jobs appear (score_big at 128 nodes)… eventually; the
        // first batch has docking only. Check the request constructor:
        let big = node_req(128, 0);
        assert_eq!(big.total_cores(), 7_168);
        assert!(!first.is_empty());
        assert!(first.iter().all(|t| t.req.total_cores() >= 56));
    }
}
