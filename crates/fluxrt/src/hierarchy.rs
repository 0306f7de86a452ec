//! Nested Flux instances: hierarchical scheduling over an instance tree.
//!
//! Flux's signature capability (§3.2.1: "Nested Flux instances and
//! hierarchical scheduling are supported where needed"): an instance can
//! host child instances, each owning a slice of the parent's resources.
//! This module models the resulting tree as a routing overlay — interior
//! *router* nodes forward jobspecs to children through a serial RPC server
//! (each hop costs one ingest latency), and leaf nodes are full
//! [`FluxInstanceSim`]s over disjoint partitions.
//!
//! The trade-off this exposes is real: a single wide root serializes at its
//! RPC server, while a deeper tree multiplies per-job hop latency but lets
//! every subtree ingest in parallel — the same tension the paper's
//! `flux_n` experiment resolves empirically with flat partitions.
//!
//! The tree speaks the instances' effect vocabulary: it emits
//! [`rp_sim::Action`]s over its own [`TreeToken`], wrapping each leaf's
//! timer tokens and passing job starts, completions and failures through.

use crate::instance::FluxInstanceSim;
use crate::job::JobSpec;
use crate::policy::SchedPolicy;
use rp_platform::{Allocation, Calibration};
use rp_sim::{Action, Dist, RngStream, SimTime, Token};
use std::collections::VecDeque;

/// Reference to a tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    Router(u32),
    Leaf(u32),
}

/// Timer tokens for [`FluxTreeSim::on_token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeToken {
    /// A leaf instance's own timer.
    Leaf(u32, Token),
    /// A router finished forwarding one jobspec.
    RouterDone(u32),
    /// A jobspec arrives at a node after a hop latency.
    Deliver(u32, bool, JobSpec),
}

struct RouterNode {
    children: Vec<NodeRef>,
    q: VecDeque<JobSpec>,
    busy: bool,
    rr: usize,
}

/// A balanced tree of nested Flux instances.
pub struct FluxTreeSim {
    routers: Vec<RouterNode>,
    leaves: Vec<FluxInstanceSim>,
    root: NodeRef,
    hop_cost: Dist,
    rng: RngStream,
    leaves_ready: usize,
}

impl FluxTreeSim {
    /// Build a balanced tree of the given `depth` (router levels) and
    /// `fanout` over `alloc`. `depth == 0` yields a single leaf instance;
    /// `depth == 1, fanout == k` reproduces the flat `flux_n` layout with a
    /// routing root. Leaves partition the allocation evenly.
    pub fn balanced(
        alloc: Allocation,
        cal: &Calibration,
        depth: u32,
        fanout: u32,
        mk_policy: impl Fn() -> Box<dyn SchedPolicy>,
        seed: u64,
    ) -> Self {
        assert!(fanout >= 1, "fanout must be at least 1");
        let mut rng = RngStream::derive(seed, "flux-tree");
        let n_leaves = fanout.pow(depth).max(1);
        let parts = alloc.partition(n_leaves);
        let leaves: Vec<FluxInstanceSim> = parts
            .into_iter()
            .map(|p| FluxInstanceSim::new(p, cal, mk_policy(), rng.next_u64()))
            .collect();
        let n_leaves = leaves.len() as u32; // may be clamped by node count

        // Build router levels bottom-up.
        let mut routers: Vec<RouterNode> = Vec::new();
        let mut frontier: Vec<NodeRef> = (0..n_leaves).map(NodeRef::Leaf).collect();
        while frontier.len() > 1 {
            let mut next = Vec::new();
            for chunk in frontier.chunks(fanout as usize) {
                let idx = routers.len() as u32;
                routers.push(RouterNode {
                    children: chunk.to_vec(),
                    q: VecDeque::new(),
                    busy: false,
                    rr: 0,
                });
                next.push(NodeRef::Router(idx));
            }
            frontier = next;
        }
        let root = frontier.first().copied().unwrap_or(NodeRef::Leaf(0));

        FluxTreeSim {
            routers,
            leaves,
            root,
            hop_cost: cal.flux_ingest.clone(),
            rng,
            leaves_ready: 0,
        }
    }

    /// Number of leaf instances.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Number of interior routers.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Tree depth in router levels above the leaves.
    pub fn depth(&self) -> u32 {
        let mut d = 0;
        let mut node = self.root;
        while let NodeRef::Router(r) = node {
            d += 1;
            node = self.routers[r as usize].children[0];
        }
        d
    }

    /// Whether every leaf drained.
    pub fn is_idle(&self) -> bool {
        self.leaves.iter().all(|l| l.is_idle())
            && self.routers.iter().all(|r| r.q.is_empty() && !r.busy)
    }

    /// Total completed jobs across leaves.
    pub fn completed_count(&self) -> u64 {
        self.leaves.iter().map(|l| l.completed_count()).sum()
    }

    /// Boot every leaf concurrently. `Ready` is emitted once every leaf
    /// finished booting.
    pub fn boot(&mut self) -> Vec<Action<TreeToken>> {
        let mut out = Vec::new();
        let mut acts = Vec::new();
        for i in 0..self.leaves.len() {
            self.leaves[i].boot(&mut acts);
            self.map_leaf_actions(i as u32, &mut acts, &mut out);
        }
        out
    }

    /// Submit a jobspec at the root.
    pub fn submit(&mut self, job: JobSpec) -> Vec<Action<TreeToken>> {
        // Root-level feasibility: reject jobs no leaf can ever host, so
        // they don't wedge a leaf queue after riding the whole tree down.
        let fits_somewhere = self
            .leaves
            .iter()
            .any(|l| l.allocation().pool().can_ever_fit(&job.req));
        if !fits_somewhere {
            return vec![Action::Failed {
                id: job.id.0,
                retryable: false,
            }];
        }
        match self.root {
            NodeRef::Leaf(l) => {
                let mut acts = Vec::new();
                let mut out = Vec::new();
                self.leaves[l as usize].submit(job, &mut acts);
                self.map_leaf_actions(l, &mut acts, &mut out);
                out
            }
            NodeRef::Router(r) => {
                self.routers[r as usize].q.push_back(job);
                self.pump_router(r)
            }
        }
    }

    /// Deliver a timer token.
    pub fn on_token(&mut self, now: SimTime, token: TreeToken) -> Vec<Action<TreeToken>> {
        match token {
            TreeToken::Leaf(l, tok) => {
                let mut acts = Vec::new();
                let mut out = Vec::new();
                self.leaves[l as usize].on_token(now, tok, &mut acts);
                self.map_leaf_actions(l, &mut acts, &mut out);
                out
            }
            TreeToken::RouterDone(r) => {
                let (job, children, start) = {
                    let router = &mut self.routers[r as usize];
                    router.busy = false;
                    let Some(job) = router.q.pop_front() else {
                        return Vec::new();
                    };
                    (job, router.children.clone(), router.rr)
                };
                // Round-robin to a child able to host the job.
                let n = children.len();
                let mut target = None;
                for off in 0..n {
                    let child = children[(start + off) % n];
                    let ok = match child {
                        NodeRef::Leaf(l) => self.leaf_can_host(l, &job),
                        NodeRef::Router(_) => true, // subtree checked at leaf level
                    };
                    if ok {
                        target = Some(child);
                        self.routers[r as usize].rr = (start + off + 1) % n;
                        break;
                    }
                }
                let mut out = Vec::new();
                match target {
                    Some(child) => {
                        let (idx, is_leaf) = match child {
                            NodeRef::Leaf(l) => (l, true),
                            NodeRef::Router(rr) => (rr, false),
                        };
                        let hop = self.hop_cost.sample(&mut self.rng);
                        out.push(Action::Timer {
                            after: hop,
                            token: TreeToken::Deliver(idx, is_leaf, job),
                        });
                    }
                    None => {
                        out.push(Action::Failed {
                            id: job.id.0,
                            retryable: false,
                        });
                    }
                }
                out.extend(self.pump_router(r));
                out
            }
            TreeToken::Deliver(idx, is_leaf, job) => {
                if is_leaf {
                    let mut acts = Vec::new();
                    let mut out = Vec::new();
                    self.leaves[idx as usize].submit(job, &mut acts);
                    self.map_leaf_actions(idx, &mut acts, &mut out);
                    out
                } else {
                    self.routers[idx as usize].q.push_back(job);
                    self.pump_router(idx)
                }
            }
        }
    }

    fn leaf_can_host(&self, leaf: u32, job: &JobSpec) -> bool {
        self.leaves[leaf as usize]
            .allocation()
            .pool()
            .can_ever_fit(&job.req)
    }

    fn pump_router(&mut self, r: u32) -> Vec<Action<TreeToken>> {
        let router = &mut self.routers[r as usize];
        if router.busy || router.q.is_empty() {
            return Vec::new();
        }
        router.busy = true;
        // Forwarding passes through the node's RPC server: one ingest cost.
        let cost = self.hop_cost.sample(&mut self.rng);
        vec![Action::Timer {
            after: cost,
            token: TreeToken::RouterDone(r),
        }]
    }

    fn map_leaf_actions(
        &mut self,
        leaf: u32,
        acts: &mut Vec<Action>,
        out: &mut Vec<Action<TreeToken>>,
    ) {
        for a in acts.drain(..) {
            match a {
                Action::Timer { after, token } => out.push(Action::Timer {
                    after,
                    token: TreeToken::Leaf(leaf, token),
                }),
                Action::Ready => {
                    self.leaves_ready += 1;
                    if self.leaves_ready == self.leaves.len() {
                        out.push(Action::Ready);
                    }
                }
                Action::Started(id) => out.push(Action::Started(id)),
                Action::Completed(id) => out.push(Action::Completed(id)),
                Action::Failed { id, retryable } => out.push(Action::Failed { id, retryable }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::policy::EasyBackfill;
    use rp_platform::{frontier, ResourceRequest};
    use rp_sim::SimDuration;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn alloc(nodes: u32) -> Allocation {
        Allocation {
            spec: frontier().node,
            first: 0,
            count: nodes,
        }
    }

    fn tree(nodes: u32, depth: u32, fanout: u32) -> FluxTreeSim {
        FluxTreeSim::balanced(
            alloc(nodes),
            &Calibration::frontier(),
            depth,
            fanout,
            || Box::new(EasyBackfill::default()),
            13,
        )
    }

    /// Drive to quiescence; returns start times (s).
    fn drive(mut t: FluxTreeSim, jobs: Vec<JobSpec>) -> (Vec<f64>, FluxTreeSim) {
        // TreeToken contains JobSpec (not Ord) — wrap with a sequence key.
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut tokens: std::collections::HashMap<u64, TreeToken> = Default::default();
        let mut seq = 0u64;
        let mut starts = Vec::new();
        let sink = |acts: Vec<Action<TreeToken>>,
                    now: u64,
                    heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
                    tokens: &mut std::collections::HashMap<u64, TreeToken>,
                    seq: &mut u64,
                    starts: &mut Vec<f64>| {
            for a in acts {
                match a {
                    Action::Timer { after, token } => {
                        heap.push(Reverse((now + after.as_micros(), *seq)));
                        tokens.insert(*seq, token);
                        *seq += 1;
                    }
                    Action::Started(_) => starts.push(now as f64 / 1e6),
                    _ => {}
                }
            }
        };
        let acts = t.boot();
        sink(acts, 0, &mut heap, &mut tokens, &mut seq, &mut starts);
        for j in jobs {
            let acts = t.submit(j);
            sink(acts, 0, &mut heap, &mut tokens, &mut seq, &mut starts);
        }
        while let Some(Reverse((at, key))) = heap.pop() {
            let tok = tokens.remove(&key).expect("token");
            let acts = t.on_token(SimTime::from_micros(at), tok);
            sink(acts, at, &mut heap, &mut tokens, &mut seq, &mut starts);
        }
        assert!(t.is_idle());
        (starts, t)
    }

    fn null_jobs(n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                id: JobId(i),
                req: ResourceRequest::single(1, 0),
                duration: SimDuration::ZERO,
            })
            .collect()
    }

    #[test]
    fn geometry_of_balanced_trees() {
        let t = tree(16, 0, 4);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.router_count(), 0);
        assert_eq!(t.depth(), 0);

        let t = tree(16, 1, 4);
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.router_count(), 1);
        assert_eq!(t.depth(), 1);

        let t = tree(16, 2, 4);
        assert_eq!(t.leaf_count(), 16);
        assert_eq!(t.router_count(), 5); // 4 level-1 + 1 root
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn all_jobs_complete_through_the_tree() {
        let (starts, t) = drive(tree(16, 2, 4), null_jobs(800));
        assert_eq!(starts.len(), 800);
        assert_eq!(t.completed_count(), 800);
    }

    #[test]
    fn nesting_beats_single_instance_throughput() {
        let rate = |depth: u32, fanout: u32| {
            let (starts, _) = drive(tree(16, depth, fanout), null_jobs(2000));
            (starts.len() - 1) as f64 / (starts.last().unwrap() - starts.first().unwrap())
        };
        let flat = rate(0, 1);
        let nested = rate(1, 4);
        assert!(
            nested > 1.5 * flat,
            "4 nested instances {nested} must beat one {flat}"
        );
    }

    #[test]
    fn infeasible_jobs_rejected_at_root() {
        let mut t = tree(16, 1, 4);
        // 16 nodes / 4 leaves = 4 nodes per leaf; an 8-node MPI job fits no
        // leaf and must be rejected at submit.
        let acts = t.submit(JobSpec {
            id: JobId(1),
            req: ResourceRequest::mpi(8, 1, 0),
            duration: SimDuration::ZERO,
        });
        assert!(matches!(
            acts.as_slice(),
            [Action::Failed {
                id: 1,
                retryable: false
            }]
        ));
    }

    #[test]
    fn wide_jobs_route_only_to_capable_leaves() {
        // 4-node-wide MPI jobs fit each 4-node leaf exactly.
        let jobs: Vec<JobSpec> = (0..8)
            .map(|i| JobSpec {
                id: JobId(i),
                req: ResourceRequest::mpi(4, 56, 0),
                duration: SimDuration::from_secs(10),
            })
            .collect();
        let (starts, t) = drive(tree(16, 1, 4), jobs);
        assert_eq!(starts.len(), 8);
        assert_eq!(t.completed_count(), 8);
    }
}
