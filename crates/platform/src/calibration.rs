//! Calibration of the simulated Frontier substrate.
//!
//! Every primitive service time in the simulation lives here, in one struct,
//! with the paper measurement it is fitted to cited next to it. The
//! *mechanisms* (concurrency ceilings, pipeline stages, per-node launch
//! parallelism, centralized dispatch) are implemented in the substrate
//! crates; this module only supplies their constants. Calibration is data:
//! changing a number here never changes scheduler logic.
//!
//! Fitting targets (paper, §4): srun 152 t/s @1 node → 61 t/s @4 nodes with
//! a 112-step ceiling; Flux 28 t/s @1 node → ~300 avg / 744 peak @1024
//! nodes single-instance, 930 t/s multi-instance; Dragon ~343–380 t/s flat,
//! declining to ~204 @64 nodes; hybrid peak ~1,547 t/s (RP task-management
//! bound); Flux bootstrap ≈20 s, Dragon ≈9 s, size-independent.

use rp_sim::Dist;

/// All calibrated constants for the simulated platform and runtimes.
#[derive(Debug, Clone)]
pub struct Calibration {
    // ---------------------------------------------------------------- srun
    /// Site-imposed ceiling on concurrently active `srun` job steps within
    /// one allocation. The paper measures exactly 112 on Frontier (Fig. 4);
    /// a running step holds a slot from launch until the task exits.
    pub srun_concurrency_ceiling: usize,

    /// Full `srun` step lifecycle overhead (fork + slurmctld RPC + step
    /// credential + remote exec + teardown) on a single node. Median 0.70 s,
    /// heavy right tail. With 112 slots this yields ≈153 launches/s at one
    /// node, the paper's 152 t/s peak.
    pub srun_step_overhead: Dist,

    /// Central-controller contention: step overhead scales with
    /// `allocation_nodes ^ exponent`. Fitted to the measured drop
    /// 152 t/s @1 node → 61 t/s @4 nodes (factor 2.5 over 4× nodes
    /// ⇒ exponent ≈ 0.66), and the "continues to decline" trend beyond.
    pub srun_contention_exp: f64,

    /// Additional per-step scaling for multi-node (MPI) steps: overhead is
    /// multiplied by `1 + coef * (step_nodes - 1)`, modeling step-credential
    /// fan-out. Affects only the IMPECCABLE experiments.
    pub srun_multinode_coef: f64,

    // ---------------------------------------------------------------- flux
    /// Flux instance bootstrap (broker tree + modules). Paper Fig. 7:
    /// ≈20 s, independent of instance size.
    pub flux_bootstrap: Dist,

    /// Rank-0 job-ingest RPC service per job (submit + validate + enqueue).
    /// Mean ≈1.34 ms ⇒ ingest ceiling ≈745 jobs/s — the mechanism behind
    /// the 744 t/s single-instance peak.
    pub flux_ingest: Dist,

    /// Scheduler match cost per job: `base + per_node * instance_nodes`
    /// seconds (resource-graph traversal grows with the graph). At 1,024
    /// nodes this gives ≈6.4 ms ⇒ ≈156 matches/s, the regime where the
    /// paper's single 1,024-node instance averages 160 t/s (flux_n, 1 inst).
    pub flux_match_base_s: f64,
    /// See [`Calibration::flux_match_base_s`].
    pub flux_match_per_node_s: f64,
    /// Relative jitter (std/mean) applied to each match cost sample.
    pub flux_match_jitter: f64,

    /// Aggregate exec-start service: brokers start jobs in parallel across
    /// nodes, but TBON fan-out and exec contention make the aggregate rate
    /// sublinear: `rate(n) = base_rate * n^exp` starts/s. Fitted to
    /// 28 t/s @1 node and the flux_1 scaling curve.
    pub flux_start_rate_base: f64,
    /// See [`Calibration::flux_start_rate_base`].
    pub flux_start_rate_exp: f64,
    /// Multiplicative spread (log-space sigma) of individual start times —
    /// the paper notes "substantial throughput variability across
    /// repetitions"; this is its source in the model.
    pub flux_start_sigma: f64,

    // -------------------------------------------------------------- dragon
    /// Dragon runtime bootstrap. Paper Fig. 7: ≈9 s, size-independent.
    pub dragon_bootstrap: Dist,

    /// Centralized dispatch service per *executable* task at one node.
    /// Mean ≈2.57 ms ⇒ ≈390 t/s, matching the paper's 343–380 t/s plateau.
    pub dragon_dispatch_exec: Dist,

    /// Centralized dispatch service per *function* task at one node —
    /// Dragon's native mode, no process spawn, ≈755 dispatches/s.
    pub dragon_dispatch_func: Dist,

    /// Remote-spawn penalty of the single dispatcher: service scales with
    /// `1 + coef * (nodes - 1)`. Fitted to the decline to ≈204 t/s at 64
    /// nodes (the "centralized design imposes scalability limits" finding).
    pub dragon_node_penalty: f64,

    // --------------------------------------------------------------- prrte
    /// PRRTE DVM startup: one daemon per node brought up through the tree
    /// spawn; base cost plus a mild per-node term. Faster than Flux's full
    /// broker/module bootstrap (the DVM is deliberately minimal).
    pub prrte_dvm_base_s: f64,
    /// See [`Calibration::prrte_dvm_base_s`].
    pub prrte_dvm_per_node_s: f64,

    /// Per-task `prun` launch service at the HNP (head node process):
    /// PRRTE has no internal scheduler, so this is pure launch cost —
    /// low and flat, the design point §5 describes ("rapid task launch
    /// with minimal per-task overhead, provided task coordination is
    /// managed externally"). Mean ≈8 ms ⇒ ≈125 launches/s.
    pub prrte_launch: Dist,

    /// Mild HNP contention growth with DVM size:
    /// `service × (1 + coef·(nodes−1))`.
    pub prrte_node_coef: f64,

    /// RP executor-adapter service per task routed to PRRTE (the RP-side
    /// scheduling PRRTE delegates to external systems).
    pub rp_prrte_adapter: Dist,

    // ------------------------------------------------------------ RP agent
    /// RP executor-adapter service per task routed to the srun launcher
    /// (argv construction + process bookkeeping). Cheap — the launcher
    /// itself is the bottleneck on this path.
    pub rp_srun_adapter: Dist,

    /// RP executor-adapter service per task routed to a Flux backend
    /// (serialize to jobspec + RPC bookkeeping + state update). ≈1.0 ms ⇒
    /// ≈1,000 t/s per adapter.
    pub rp_flux_adapter: Dist,

    /// RP executor-adapter service per task routed to a Dragon backend
    /// (serialize over the ZeroMQ-like pipe + watcher bookkeeping).
    /// ≈1.35 ms ⇒ ≈740 t/s. Together with the Flux adapter this bounds the
    /// hybrid configuration near the paper's 1,547 t/s RP task-management
    /// ceiling.
    pub rp_dragon_adapter: Dist,

    /// Agent-scheduler decision cost per task:
    /// `base + per_partition * k + per_node * total_nodes` seconds —
    /// cross-partition coordination, the source of flux_n's diminishing
    /// returns at scale.
    pub rp_sched_base_s: f64,
    /// See [`Calibration::rp_sched_base_s`].
    pub rp_sched_per_partition_s: f64,
    /// See [`Calibration::rp_sched_base_s`].
    pub rp_sched_per_node_s: f64,
    /// Relative jitter on agent-scheduler decision cost.
    pub rp_sched_jitter: f64,

    /// RP watcher-thread service per backend task event (state lookup +
    /// registry update + callback dispatch). One serial watcher per backend
    /// kind processes Start/Finish events (two per task); ≈0.44 ms ⇒
    /// ≈2,270 events/s ≈ 1,135 task-starts/s per backend — the "RP task
    /// management subsystem" bound that locates the hybrid peak near
    /// 1,547 t/s (Flux starts ≈520/s + Dragon ≈1,100/s).
    pub rp_watcher: Dist,

    /// RP Dragon-executor flow-control window: tasks in flight (pushed
    /// over the pipe, not yet started) per Dragon instance. Bounds the
    /// boot-backlog drain burst; with 8 instances this locates the hybrid
    /// peak near the paper's ≈1,547 t/s task-management ceiling.
    pub rp_dragon_window: usize,

    /// Input/output staging service per task (the paper's staging stages;
    /// negligible for the synthetic workloads but on the path).
    pub rp_stage: Dist,

    /// Agent bootstrap before any backend starts (pilot activation).
    pub rp_agent_bootstrap: Dist,
}

impl Calibration {
    /// The Frontier fit described in the module docs.
    pub fn frontier() -> Self {
        Calibration {
            srun_concurrency_ceiling: 112,
            srun_step_overhead: Dist::log_normal(0.70, 0.30),
            srun_contention_exp: 0.66,
            srun_multinode_coef: 0.02,

            flux_bootstrap: Dist::Normal {
                mean: 20.0,
                sd: 1.5,
            },
            flux_ingest: Dist::log_normal(0.00130, 0.25),
            flux_match_base_s: 0.0015,
            flux_match_per_node_s: 4.8e-6,
            flux_match_jitter: 0.10,
            flux_start_rate_base: 31.5,
            flux_start_rate_exp: 0.35,
            flux_start_sigma: 0.45,

            dragon_bootstrap: Dist::Normal { mean: 9.0, sd: 0.8 },
            dragon_dispatch_exec: Dist::log_normal(0.00242, 0.35),
            dragon_dispatch_func: Dist::log_normal(0.00125, 0.35),
            dragon_node_penalty: 0.012,

            prrte_dvm_base_s: 4.0,
            prrte_dvm_per_node_s: 0.004,
            prrte_launch: Dist::log_normal(0.0077, 0.30),
            prrte_node_coef: 0.002,
            rp_prrte_adapter: Dist::log_normal(0.00070, 0.30),

            rp_srun_adapter: Dist::log_normal(0.00060, 0.30),
            rp_flux_adapter: Dist::log_normal(0.00095, 0.30),
            rp_dragon_adapter: Dist::log_normal(0.00095, 0.30),
            rp_sched_base_s: 0.00026,
            rp_sched_per_partition_s: 0.000006,
            rp_sched_per_node_s: 2.4e-6,
            rp_sched_jitter: 0.10,
            rp_watcher: Dist::log_normal(0.00037, 0.30),
            rp_dragon_window: 64,
            rp_stage: Dist::Exp { mean: 0.001 },
            rp_agent_bootstrap: Dist::Normal { mean: 5.0, sd: 0.5 },
        }
    }

    /// srun step overhead for a step spanning `step_nodes` nodes inside an
    /// allocation of `alloc_nodes` nodes (contention + multinode scaling).
    pub fn srun_step_cost(&self, alloc_nodes: u32, step_nodes: u32) -> Dist {
        let contention = (alloc_nodes.max(1) as f64).powf(self.srun_contention_exp);
        let multi = 1.0 + self.srun_multinode_coef * (step_nodes.saturating_sub(1)) as f64;
        self.srun_step_overhead.scaled(contention * multi)
    }

    /// Flux scheduler match cost for an instance of `nodes` nodes.
    pub fn flux_match_cost(&self, nodes: u32) -> Dist {
        let mean = self.flux_match_base_s + self.flux_match_per_node_s * nodes as f64;
        Dist::Normal {
            mean,
            sd: mean * self.flux_match_jitter,
        }
    }

    /// Flux aggregate exec-start service time for an instance of `nodes`
    /// nodes (log-normal around the reciprocal of the aggregate rate).
    pub fn flux_start_cost(&self, nodes: u32) -> Dist {
        let rate = self.flux_start_rate_base * (nodes.max(1) as f64).powf(self.flux_start_rate_exp);
        Dist::log_normal(1.0 / rate, self.flux_start_sigma)
    }

    /// Dragon dispatch cost across `nodes` nodes.
    pub fn dragon_dispatch_cost(&self, nodes: u32, function_task: bool) -> Dist {
        let base = if function_task {
            &self.dragon_dispatch_func
        } else {
            &self.dragon_dispatch_exec
        };
        base.scaled(1.0 + self.dragon_node_penalty * (nodes.saturating_sub(1)) as f64)
    }

    /// PRRTE DVM bootstrap distribution for a DVM spanning `nodes` nodes.
    pub fn prrte_bootstrap(&self, nodes: u32) -> Dist {
        let mean = self.prrte_dvm_base_s + self.prrte_dvm_per_node_s * nodes as f64;
        Dist::Normal {
            mean,
            sd: mean * 0.08,
        }
    }

    /// `prun` launch cost within a DVM of `nodes` nodes.
    pub fn prrte_launch_cost(&self, nodes: u32) -> Dist {
        self.prrte_launch
            .scaled(1.0 + self.prrte_node_coef * (nodes.saturating_sub(1)) as f64)
    }

    /// Agent-scheduler decision cost for `partitions` partitions over
    /// `total_nodes` pilot nodes.
    pub fn rp_sched_cost(&self, partitions: u32, total_nodes: u32) -> Dist {
        let mean = self.rp_sched_base_s
            + self.rp_sched_per_partition_s * partitions as f64
            + self.rp_sched_per_node_s * total_nodes as f64;
        Dist::Normal {
            mean,
            sd: mean * self.rp_sched_jitter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srun_rates_match_paper_anchors() {
        let cal = Calibration::frontier();
        // Steady-state launch rate = ceiling / mean step cost.
        let rate =
            |nodes| cal.srun_concurrency_ceiling as f64 / cal.srun_step_cost(nodes, 1).mean_secs();
        let r1 = rate(1);
        let r4 = rate(4);
        assert!((145.0..165.0).contains(&r1), "1-node rate {r1}");
        assert!((55.0..70.0).contains(&r4), "4-node rate {r4}");
        assert!(rate(16) < r4, "rate must keep declining with scale");
    }

    #[test]
    fn flux_single_instance_anchors() {
        let cal = Calibration::frontier();
        let start_rate = |n: u32| 1.0 / cal.flux_start_cost(n).mean_secs();
        let match_rate = |n: u32| 1.0 / cal.flux_match_cost(n).mean_secs();
        let ingest_rate = 1.0 / cal.flux_ingest.mean_secs();
        let pipeline = |n: u32| start_rate(n).min(match_rate(n)).min(ingest_rate);

        let p1 = pipeline(1);
        assert!((24.0..34.0).contains(&p1), "1-node flux rate {p1}");
        let p1024 = pipeline(1024);
        assert!(
            (140.0..340.0).contains(&p1024),
            "1024-node flux rate {p1024}"
        );
        // Monotone through mid-scale:
        assert!(pipeline(4) > p1);
        assert!(pipeline(64) > pipeline(16));
        // Ingest ceiling near the 744 t/s peak:
        assert!(
            (700.0..800.0).contains(&ingest_rate),
            "ingest {ingest_rate}"
        );
    }

    #[test]
    fn dragon_anchors() {
        let cal = Calibration::frontier();
        let rate = |n, f| 1.0 / cal.dragon_dispatch_cost(n, f).mean_secs();
        let r4 = rate(4, false);
        let r64 = rate(64, false);
        assert!((330.0..420.0).contains(&r4), "4-node dragon {r4}");
        assert!((180.0..260.0).contains(&r64), "64-node dragon {r64}");
        assert!(rate(4, true) > r4, "function dispatch must be faster");
    }

    #[test]
    fn hybrid_ceiling_near_paper() {
        let cal = Calibration::frontier();
        let cap = 1.0 / cal.rp_flux_adapter.mean_secs() + 1.0 / cal.rp_dragon_adapter.mean_secs();
        assert!(
            (1600.0..2200.0).contains(&cap),
            "RP task-management ceiling {cap}"
        );
    }

    #[test]
    fn bootstrap_means() {
        let cal = Calibration::frontier();
        assert!((cal.flux_bootstrap.mean_secs() - 20.0).abs() < 0.01);
        assert!((cal.dragon_bootstrap.mean_secs() - 9.0).abs() < 0.01);
    }
}
