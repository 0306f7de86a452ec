//! The resource algebra: requests, placements, and the bookkeeping pool.
//!
//! Everything that schedules in this reproduction — the Flux-like instance
//! scheduler, the Dragon-like runtime, RP's agent scheduler — does so against
//! a [`ResourcePool`]: a set of nodes with per-core and per-GPU occupancy
//! bitmaps. Correctness here (no double-booking, exact free/alloc inverses)
//! is what makes the utilization numbers of the experiments meaningful, so
//! the invariants are enforced with debug assertions and property tests.

use crate::node::{NodeId, NodeSpec};
use std::cell::RefCell;

/// How ranks of a request may be laid out across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Fill nodes in order (maximizes packing; the default for
    /// high-throughput single-core tasks).
    #[default]
    Pack,
    /// One rank per node at most (MPI-style spread).
    Spread,
    /// Ranks get whole nodes regardless of per-rank core count.
    NodeExclusive,
}

/// A resource request for one task: `ranks` identical ranks, each needing
/// `cores_per_rank` cores and `gpus_per_rank` GPUs, co-scheduled atomically
/// (all ranks or none — the paper's tightly coupled MPI semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceRequest {
    /// Number of ranks (processes).
    pub ranks: u32,
    /// Cores per rank.
    pub cores_per_rank: u16,
    /// GPUs per rank.
    pub gpus_per_rank: u16,
    /// Memory per rank, GiB (0 = unconstrained). Jobspecs carry memory
    /// requirements (§3.2.1); the pool refuses placements whose summed
    /// per-node memory would exceed the node's capacity.
    pub mem_per_rank_gb: u32,
    /// Layout policy.
    pub policy: PlacementPolicy,
}

impl ResourceRequest {
    /// A single-rank request (the shape of every synthetic-workload task).
    pub fn single(cores: u16, gpus: u16) -> Self {
        ResourceRequest {
            ranks: 1,
            cores_per_rank: cores,
            gpus_per_rank: gpus,
            mem_per_rank_gb: 0,
            policy: PlacementPolicy::Pack,
        }
    }

    /// Builder: set the per-rank memory requirement.
    pub fn with_mem(mut self, mem_per_rank_gb: u32) -> Self {
        self.mem_per_rank_gb = mem_per_rank_gb;
        self
    }

    /// An MPI-style request: `ranks` ranks spread one per node.
    pub fn mpi(ranks: u32, cores_per_rank: u16, gpus_per_rank: u16) -> Self {
        ResourceRequest {
            ranks,
            cores_per_rank,
            gpus_per_rank,
            mem_per_rank_gb: 0,
            policy: PlacementPolicy::Spread,
        }
    }

    /// Total cores this request occupies while running.
    pub fn total_cores(&self) -> u64 {
        self.ranks as u64 * self.cores_per_rank as u64
    }

    /// Total GPUs this request occupies while running.
    pub fn total_gpus(&self) -> u64 {
        self.ranks as u64 * self.gpus_per_rank as u64
    }
}

/// The concrete resources backing one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPlacement {
    /// Global node id.
    pub node: NodeId,
    /// Pool-local node index (used by [`ResourcePool::free`]).
    pub node_idx: u32,
    /// Bitmask of occupied cores on that node.
    pub core_mask: u64,
    /// Bitmask of occupied GPUs on that node.
    pub gpu_mask: u16,
    /// Memory held on that node, GiB.
    pub mem_gb: u32,
}

/// The concrete resources backing one task; returned by a successful
/// allocation and required to free it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// One entry per rank.
    pub ranks: Vec<RankPlacement>,
}

impl Placement {
    /// Total cores held.
    pub fn cores(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.core_mask.count_ones() as u64)
            .sum()
    }

    /// Total GPUs held.
    pub fn gpus(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.gpu_mask.count_ones() as u64)
            .sum()
    }

    /// Distinct nodes touched.
    pub fn node_count(&self) -> usize {
        let mut nodes: Vec<u32> = self.ranks.iter().map(|r| r.node_idx).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeFree {
    id: NodeId,
    /// 1-bits are FREE cores.
    cores: u64,
    /// 1-bits are FREE gpus.
    gpus: u16,
    /// `cores.count_ones()`, kept next to the mask so planning and the
    /// index never popcount.
    ncores: u16,
    /// `gpus.count_ones()`.
    ngpus: u16,
    /// Free memory, GiB.
    mem_gb: u32,
    /// Out of service (fault injection). The free masks keep tracking what
    /// *would* be free — frees park into them — but the node contributes
    /// nothing to the pool totals and the planner skips it until
    /// [`ResourcePool::node_up`].
    down: bool,
}

impl NodeFree {
    /// Free counts the [`FitIndex`] sees: zero while the node is down, so
    /// the planner never visits it.
    fn fit(&self) -> Fit {
        if self.down {
            Fit::default()
        } else {
            Fit {
                cores: self.ncores,
                gpus: self.ngpus,
                mem: self.mem_gb,
            }
        }
    }

    /// Carve one rank of `need` out of the free resources, lowest bit
    /// indices first: the occupied masks, or `None` if the rank doesn't fit.
    fn carve(&self, need: Fit) -> Option<(u64, u16)> {
        if self.ncores < need.cores || self.ngpus < need.gpus || self.mem_gb < need.mem {
            return None;
        }
        Some((
            lowest_bits(self.cores, self.ncores, need.cores),
            lowest_bits(self.gpus as u64, self.ngpus, need.gpus) as u16,
        ))
    }

    /// Mark one rank busy: masks `core_mask`/`gpu_mask`, whose popcounts
    /// the caller knows (`used.cores`/`used.gpus`), and `used.mem` GiB.
    fn take(&mut self, core_mask: u64, gpu_mask: u16, used: Fit) {
        debug_assert_eq!(self.cores & core_mask, core_mask, "double-booked cores");
        debug_assert_eq!(self.gpus & gpu_mask, gpu_mask, "double-booked gpus");
        debug_assert!(self.mem_gb >= used.mem, "double-booked memory");
        debug_assert_eq!(core_mask.count_ones(), used.cores as u32);
        debug_assert_eq!(gpu_mask.count_ones(), used.gpus as u32);
        self.cores &= !core_mask;
        self.gpus &= !gpu_mask;
        self.ncores -= used.cores;
        self.ngpus -= used.gpus;
        self.mem_gb -= used.mem;
    }
}

/// Free `(cores, GPUs, memory)` of one node, or per-component maxima over
/// a subtree of the [`FitIndex`]; also the per-rank need of a request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Fit {
    cores: u16,
    gpus: u16,
    mem: u32,
}

impl Fit {
    #[inline]
    fn covers(self, need: Fit) -> bool {
        self.cores >= need.cores && self.gpus >= need.gpus && self.mem >= need.mem
    }

    #[inline]
    fn max(self, o: Fit) -> Fit {
        Fit {
            cores: self.cores.max(o.cores),
            gpus: self.gpus.max(o.gpus),
            mem: self.mem.max(o.mem),
        }
    }
}

/// A segment tree over the pool's nodes holding per-subtree maxima of
/// free `(cores, GPUs, memory)` counts.
///
/// Rank eligibility in [`NodeFree::carve`] is purely count-based — a rank fits a node
/// iff its free core, GPU and memory counts cover the rank, never
/// contiguity — so "the eligible nodes at index ≥ lo, left to right" is
/// answerable from these maxima. [`FitIndex::walk`] enumerates exactly the
/// nodes a left-to-right linear scan would try, in the same order, so every
/// placement equals the first-fit scan's; the scan is kept as the test-only
/// reference `plan_linear`, and differential tests assert
/// placement-for-placement equality.
///
/// Internal maxima are taken per component, so an internal node can look
/// eligible when no single leaf below it is (core max from one leaf, GPU
/// max from another); the walk then discards that subtree. The dominant
/// single-core no-GPU requests never produce such false positives.
#[derive(Debug, Clone)]
struct FitIndex {
    /// Number of real leaves (pool nodes).
    n: usize,
    /// Leaf `i` lives at `base + i`; `base` is a power of two. Padding
    /// leaves hold zero free resources.
    base: usize,
    max: Vec<Fit>,
    /// Reused per-level buffer of [`FitIndex::update`]: runs of adjacent
    /// changed indices, `(first, last)`, ascending.
    level: Vec<(usize, usize)>,
}

impl FitIndex {
    fn build(nodes: &[NodeFree]) -> Self {
        let n = nodes.len();
        let base = n.next_power_of_two().max(1);
        let mut max = vec![Fit::default(); 2 * base];
        for (leaf, node) in max[base..].iter_mut().zip(nodes) {
            *leaf = node.fit();
        }
        for i in (1..base).rev() {
            max[i] = max[2 * i].max(max[2 * i + 1]);
        }
        FitIndex {
            n,
            base,
            max,
            level: Vec::new(),
        }
    }

    /// Call `node` on each item in node order (repeats allowed): it updates
    /// the item's node and returns its index and new counts (`None` leaves
    /// the leaf alone), and the changed leaf is set in the same pass. One
    /// item — a single-rank placement, a node fault — climbs while the
    /// maxima change. More form runs of adjacent leaves, and each level
    /// takes one pass over their parents: O(n) for the whole pool.
    fn update<T>(&mut self, items: &[T], mut node: impl FnMut(&T) -> Option<(usize, Fit)>) {
        let FitIndex {
            base, max, level, ..
        } = self;
        if let [item] = items {
            let Some((idx, fit)) = node(item) else { return };
            let mut i = *base + idx;
            if max[i] != fit {
                max[i] = fit;
                i /= 2;
                while i >= 1 {
                    let new = max[2 * i].max(max[2 * i + 1]);
                    if max[i] == new {
                        break;
                    }
                    max[i] = new;
                    i /= 2;
                }
            }
            return;
        }
        // The open run stays in registers while the items stream by.
        let mut open: Option<(usize, usize)> = None;
        for (idx, fit) in items.iter().filter_map(&mut node) {
            let leaf = *base + idx;
            if max[leaf] == fit {
                continue;
            }
            max[leaf] = fit;
            match &mut open {
                Some((_, last)) if *last + 1 >= leaf => *last = leaf,
                _ => {
                    level.extend(open);
                    open = Some((leaf, leaf));
                }
            }
        }
        level.extend(open);
        while !level.is_empty() {
            let mut kept = 0;
            for r in 0..level.len() {
                // The root's parent 0 yields the empty range 1..=0.
                let (lo, hi) = ((level[r].0 / 2).max(1), level[r].1 / 2);
                let mut changed = false;
                for i in lo..=hi {
                    // Equal siblings, as wide placements leave them, need
                    // no per-component maximum.
                    let (a, b) = (max[2 * i], max[2 * i + 1]);
                    let new = if a == b { a } else { a.max(b) };
                    changed |= max[i] != new;
                    max[i] = new;
                }
                if !changed {
                    continue;
                }
                if kept > 0 && level[kept - 1].1 + 1 >= lo {
                    level[kept - 1].1 = hi;
                } else {
                    level[kept] = (lo, hi);
                    kept += 1;
                }
            }
            level.truncate(kept);
        }
    }

    /// Visit, left to right, every node index `>= lo` whose free counts
    /// cover `need`, until `visit` returns `true` (done). Returns whether
    /// it did. One traversal serves a whole plan: from each visited leaf
    /// it climbs only while on a right edge and re-descends into the first
    /// covering subtree, so `k` visits cost O(k·log(n/k) + log n), and a
    /// `lo` that itself fits is visited in O(1).
    fn walk(&self, lo: usize, need: Fit, mut visit: impl FnMut(usize) -> bool) -> bool {
        if lo >= self.n {
            return false;
        }
        let mut i = self.base + lo;
        loop {
            if self.max[i].covers(need) {
                if i < self.base {
                    i *= 2;
                    continue;
                }
                let idx = i - self.base;
                if idx >= self.n {
                    return false; // only padding lies to the right
                }
                if visit(idx) {
                    return true;
                }
                if idx + 1 == self.n {
                    return false;
                }
                // Wide requests fill runs of free nodes: try the next leaf
                // before climbing.
                i += 1;
                continue;
            }
            // Next subtree to the right: climb off right edges, step over.
            while i & 1 == 1 {
                i /= 2;
            }
            if i == 0 {
                return false;
            }
            i += 1;
        }
    }
}

/// Occupancy bookkeeping over a fixed set of nodes.
///
/// Each node keeps its free core/GPU bitmaps plus their popcounts, and a
/// [`FitIndex`] over those counts drives first-fit planning: one
/// left-to-right walk per request, whatever its width or policy. Commits
/// and frees set each touched leaf as they update its node, then refresh
/// the ancestors in one pass per tree level.
///
/// ```
/// use rp_platform::{frontier, ResourcePool, ResourceRequest};
///
/// // Two Frontier nodes: 112 cores, 16 GPUs.
/// let mut pool = ResourcePool::over_range(frontier().node, 0, 2);
/// let task = pool
///     .try_alloc(&ResourceRequest::mpi(2, 56, 8)) // whole machine
///     .expect("fits an empty pool");
/// assert_eq!(pool.free_cores(), 0);
/// assert!(pool.try_alloc(&ResourceRequest::single(1, 0)).is_none());
/// pool.free(&task);
/// assert_eq!(pool.free_cores(), 112);
/// ```
#[derive(Debug, Clone)]
pub struct ResourcePool {
    spec: NodeSpec,
    nodes: Vec<NodeFree>,
    free_cores: u64,
    free_gpus: u64,
    /// Index of the first node that is not *completely* occupied; nodes
    /// below it are fully busy, so Pack planning may skip them. Purely a
    /// scan accelerator — never changes placement decisions, because only
    /// exhausted nodes are skipped.
    first_not_full: usize,
    /// Count-maxima segment tree the planner walks; visits exactly the
    /// nodes the linear first-fit scan would (see [`FitIndex`]).
    index: FitIndex,
    /// Monotone state stamp: bumped by every committed alloc/free, so
    /// cached plans can tell whether the free state they saw is current.
    version: u64,
    /// One-slot memo of the most recent plan. Schedulers probe feasibility
    /// (`fits_now`) and then commit (`try_alloc`) with the same request,
    /// and re-probe blocked queue heads after every event; both patterns
    /// hit this slot and skip the whole planning pass.
    plan_cache: RefCell<Option<PlanCache>>,
}

/// See [`ResourcePool::plan_cache`].
#[derive(Debug, Clone)]
struct PlanCache {
    version: u64,
    req: ResourceRequest,
    plan: Option<Placement>,
}

impl ResourcePool {
    /// A pool over `node_ids`, all initially free, each shaped by `spec`.
    pub fn new(spec: NodeSpec, node_ids: impl IntoIterator<Item = NodeId>) -> Self {
        spec.validate();
        let nodes: Vec<NodeFree> = node_ids
            .into_iter()
            .map(|id| NodeFree {
                id,
                cores: mask_of(spec.cores),
                gpus: mask_of(spec.gpus) as u16,
                ncores: spec.cores,
                ngpus: spec.gpus,
                mem_gb: spec.mem_gb,
                down: false,
            })
            .collect();
        let free_cores = nodes.len() as u64 * spec.cores as u64;
        let free_gpus = nodes.len() as u64 * spec.gpus as u64;
        let index = FitIndex::build(&nodes);
        ResourcePool {
            spec,
            nodes,
            free_cores,
            free_gpus,
            first_not_full: 0,
            index,
            version: 0,
            plan_cache: RefCell::new(None),
        }
    }

    /// Convenience: a pool over nodes `first..first+count`.
    pub fn over_range(spec: NodeSpec, first: u32, count: u32) -> Self {
        Self::new(spec, (first..first + count).map(NodeId))
    }

    /// The node shape.
    pub fn spec(&self) -> NodeSpec {
        self.spec
    }

    /// Number of nodes in the pool.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Currently free cores across the pool.
    pub fn free_cores(&self) -> u64 {
        self.free_cores
    }

    /// Currently free GPUs across the pool.
    pub fn free_gpus(&self) -> u64 {
        self.free_gpus
    }

    /// Total cores in the pool (free + busy).
    pub fn total_cores(&self) -> u64 {
        self.nodes.len() as u64 * self.spec.cores as u64
    }

    /// Total GPUs in the pool (free + busy).
    pub fn total_gpus(&self) -> u64 {
        self.nodes.len() as u64 * self.spec.gpus as u64
    }

    /// Cores currently allocated.
    pub fn busy_cores(&self) -> u64 {
        self.total_cores() - self.free_cores
    }

    /// GPUs currently allocated.
    pub fn busy_gpus(&self) -> u64 {
        self.total_gpus() - self.free_gpus
    }

    /// Whether `req` could ever fit in an empty pool of this shape — the
    /// feasibility check schedulers run before queueing, so an oversized
    /// task fails fast instead of wedging a FIFO queue forever.
    pub fn can_ever_fit(&self, req: &ResourceRequest) -> bool {
        if req.ranks == 0 {
            return false;
        }
        if req.cores_per_rank == 0 && req.gpus_per_rank == 0 {
            return false;
        }
        if req.cores_per_rank > self.spec.cores
            || req.gpus_per_rank > self.spec.gpus
            || req.mem_per_rank_gb > self.spec.mem_gb
        {
            return false;
        }
        let nodes = self.nodes.len() as u64;
        match req.policy {
            PlacementPolicy::Spread | PlacementPolicy::NodeExclusive => req.ranks as u64 <= nodes,
            PlacementPolicy::Pack => {
                let per_node = self.ranks_fitting_empty_node(req);
                per_node > 0 && req.ranks as u64 <= nodes * per_node
            }
        }
    }

    fn ranks_fitting_empty_node(&self, req: &ResourceRequest) -> u64 {
        // A resource the rank does not need bounds nothing.
        let per = |have: u32, need: u32| (have as u64).checked_div(need as u64).unwrap_or(u64::MAX);
        per(self.spec.cores.into(), req.cores_per_rank.into())
            .min(per(self.spec.gpus.into(), req.gpus_per_rank.into()))
            .min(per(self.spec.mem_gb, req.mem_per_rank_gb))
    }

    /// The free counts one rank of `req` takes from its node.
    fn rank_fit(&self, req: &ResourceRequest) -> Fit {
        match req.policy {
            PlacementPolicy::NodeExclusive => Fit {
                cores: self.spec.cores,
                gpus: self.spec.gpus,
                mem: self.spec.mem_gb,
            },
            PlacementPolicy::Pack | PlacementPolicy::Spread => Fit {
                cores: req.cores_per_rank,
                gpus: req.gpus_per_rank,
                mem: req.mem_per_rank_gb,
            },
        }
    }

    /// Try to place `req`. On success every rank's cores/GPUs are marked
    /// busy and the exact placement is returned; on failure the pool is
    /// untouched. Placement is deterministic: first-fit in node order.
    pub fn try_alloc(&mut self, req: &ResourceRequest) -> Option<Placement> {
        if req.ranks == 0 {
            return None;
        }
        // Fast reject on aggregate counts.
        if req.total_cores() > self.free_cores || req.total_gpus() > self.free_gpus {
            return None;
        }
        let plan = self.plan_take_cached(req)?;
        self.version += 1;
        let rank = self.rank_fit(req);
        let nodes = &mut self.nodes;
        self.index.update(&plan.ranks, |r| {
            let idx = r.node_idx as usize;
            nodes[idx].take(r.core_mask, r.gpu_mask, rank);
            Some((idx, nodes[idx].fit()))
        });
        let placed = plan.ranks.len() as u64;
        self.free_cores -= placed * rank.cores as u64;
        self.free_gpus -= placed * rank.gpus as u64;
        let full = |n: &NodeFree| n.ncores == 0 && n.ngpus == 0;
        while self.nodes.get(self.first_not_full).is_some_and(full) {
            self.first_not_full += 1;
        }
        Some(plan)
    }

    /// Plan without committing: one [`FitIndex::walk`] over the nodes a
    /// rank fits, left to right, carving ranks until the request is
    /// complete. Placements are identical to the linear first-fit scan:
    /// the walk visits the same eligible nodes in the same order, and
    /// eligibility is the same count-based predicate `carve` uses.
    fn plan(&self, req: &ResourceRequest) -> Option<Placement> {
        let need = self.rank_fit(req);
        let mut ranks = Vec::with_capacity(req.ranks as usize);
        let mut remaining = req.ranks;
        let mut place = |n: &NodeFree, idx: usize, core_mask: u64, gpu_mask: u16| {
            ranks.push(RankPlacement {
                node: n.id,
                node_idx: idx as u32,
                core_mask,
                gpu_mask,
                mem_gb: need.mem,
            });
            remaining -= 1;
            remaining == 0
        };
        let done = match req.policy {
            // Skip the fully-busy prefix (pure acceleration).
            PlacementPolicy::Pack => self.index.walk(self.first_not_full, need, |idx| {
                let n = &self.nodes[idx];
                if n.down {
                    return false; // only a rank needing nothing gets here
                }
                // A shadow copy so later ranks of this same request see the
                // resources its earlier ranks already carved.
                let mut left = *n;
                while let Some((cm, gm)) = left.carve(need) {
                    left.take(cm, gm, need);
                    if place(n, idx, cm, gm) {
                        return true;
                    }
                }
                false
            }),
            // NodeExclusive needs the spec's full counts, which only a fully
            // free node covers, and carving them takes the whole node.
            PlacementPolicy::Spread | PlacementPolicy::NodeExclusive => {
                self.index.walk(0, need, |idx| {
                    let n = &self.nodes[idx];
                    match n.carve(need) {
                        Some((cm, gm)) if !n.down => place(n, idx, cm, gm),
                        _ => false, // down: only a rank needing nothing gets here
                    }
                })
            }
        };
        done.then_some(Placement { ranks })
    }

    /// Whether `req` fits *right now* without committing. The plan it
    /// computes is memoized for the `try_alloc` that usually follows.
    pub fn fits_now(&self, req: &ResourceRequest) -> bool {
        if req.ranks == 0
            || req.total_cores() > self.free_cores
            || req.total_gpus() > self.free_gpus
        {
            return false;
        }
        let mut cache = self.plan_cache.borrow_mut();
        if let Some(c) = cache.as_ref() {
            if c.version == self.version && c.req == *req {
                return c.plan.is_some();
            }
        }
        let plan = self.plan(req);
        let fits = plan.is_some();
        *cache = Some(PlanCache {
            version: self.version,
            req: *req,
            plan,
        });
        fits
    }

    /// Plan for the commit path: a memo hit is *moved* out of the cache
    /// (the commit bumps `version` immediately, so the entry dies either
    /// way) and a miss plans directly without storing. Correct because the
    /// planner is a pure function of the free state (stamped by `version`)
    /// and the request.
    fn plan_take_cached(&mut self, req: &ResourceRequest) -> Option<Placement> {
        if let Some(c) = self.plan_cache.get_mut() {
            if c.version == self.version && c.req == *req {
                return c.plan.take();
            }
        }
        self.plan(req)
    }

    /// Return a placement's resources to the pool. Freeing resources that
    /// are not currently busy is a bookkeeping bug and panics; every rank
    /// is checked before any is returned, so such a panic leaves the pool
    /// exactly as it was.
    pub fn free(&mut self, placement: &Placement) {
        // The planner lists ranks in node order, so the ranks one node
        // holds are adjacent and one running union per node run validates
        // them together.
        let mut run: Option<(u32, u64, u16, u32)> = None;
        for r in &placement.ranks {
            let n = &self.nodes[r.node_idx as usize];
            let (cores, gpus, mem) = match run {
                Some((idx, c, g, m)) if idx == r.node_idx => (c, g, m),
                Some((idx, ..)) if idx > r.node_idx => {
                    panic!("freeing a placement whose ranks are out of node order")
                }
                _ => (n.cores, n.gpus, n.mem_gb),
            };
            let id = n.id;
            assert!(
                cores & r.core_mask == 0,
                "freeing cores that were not busy on {id}"
            );
            assert!(
                gpus & r.gpu_mask == 0,
                "freeing gpus that were not busy on {id}"
            );
            assert!(
                mem as u64 + r.mem_gb as u64 <= self.spec.mem_gb as u64,
                "freeing more memory than the node has on {id}"
            );
            run = Some((
                r.node_idx,
                cores | r.core_mask,
                gpus | r.gpu_mask,
                mem + r.mem_gb,
            ));
        }
        self.version += 1;
        let spec = self.spec;
        let (all_cores, all_gpus) = (mask_of(spec.cores), mask_of(spec.gpus));
        let (mut cores, mut gpus, mut first) = (0, 0, self.first_not_full);
        let nodes = &mut self.nodes;
        self.index.update(&placement.ranks, |r| {
            let idx = r.node_idx as usize;
            let n = &mut nodes[idx];
            let c = bits(r.core_mask, all_cores, spec.cores);
            let g = bits(r.gpu_mask as u64, all_gpus, spec.gpus);
            n.cores |= r.core_mask;
            n.gpus |= r.gpu_mask;
            n.ncores += c;
            n.ngpus += g;
            n.mem_gb += r.mem_gb;
            if n.down {
                // Parked: the node is out of service, so these resources do
                // not return to the pool totals (node_up re-counts them) and
                // the index leaf stays zero.
                return None;
            }
            cores += c as u64;
            gpus += g as u64;
            first = first.min(idx);
            Some((idx, n.fit()))
        });
        self.free_cores += cores;
        self.free_gpus += gpus;
        self.first_not_full = first;
        debug_assert!(self.free_cores <= self.total_cores());
        debug_assert!(self.free_gpus <= self.total_gpus());
    }

    /// Take node `idx` out of service (fault injection). Its free capacity
    /// vanishes from the pool totals and the planner skips it; resources
    /// still held by placements stay attributed until those placements are
    /// freed (they park on the node rather than returning to the totals).
    /// Returns `false` when the node was already down.
    pub fn node_down(&mut self, idx: usize) -> bool {
        let n = &mut self.nodes[idx];
        if n.down {
            return false;
        }
        n.down = true;
        self.free_cores -= n.ncores as u64;
        self.free_gpus -= n.ngpus as u64;
        self.version += 1;
        let fit = n.fit();
        self.index.update(&[idx], |&i| Some((i, fit)));
        true
    }

    /// Return node `idx` to service: whatever is free on it (including
    /// resources parked by frees during the outage) rejoins the pool
    /// totals and the planner. Returns `false` when the node was not down.
    pub fn node_up(&mut self, idx: usize) -> bool {
        let n = &mut self.nodes[idx];
        if !n.down {
            return false;
        }
        n.down = false;
        self.free_cores += n.ncores as u64;
        self.free_gpus += n.ngpus as u64;
        self.first_not_full = self.first_not_full.min(idx);
        self.version += 1;
        let fit = n.fit();
        self.index.update(&[idx], |&i| Some((i, fit)));
        true
    }

    /// Whether node `idx` is currently out of service.
    pub fn is_node_down(&self, idx: usize) -> bool {
        self.nodes[idx].down
    }

    /// Obey an owner's down-node mask: node `i` goes down when `down[i]`
    /// and comes back up otherwise. Nodes past the mask keep their state.
    pub fn set_down_mask(&mut self, down: &[bool]) {
        for (idx, &d) in down.iter().enumerate() {
            if d {
                self.node_down(idx);
            } else {
                self.node_up(idx);
            }
        }
    }
}

/// Lowest `n` bits set.
fn mask_of(n: u16) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Set bits of a rank's `mask`: `n` for the whole-node mask `full`, none for
/// an empty one, else a popcount (a dozen instructions on baseline x86-64).
fn bits(mask: u64, full: u64, n: u16) -> u16 {
    match mask {
        0 => 0,
        m if m == full => n,
        m => m.count_ones() as u16,
    }
}

/// The lowest `want` set bits of `mask`, which has `have >= want` set
/// bits. Clears the `have - want` highest bits when that is fewer than
/// `want`, so a whole-node and a single-bit rank both cost O(1).
fn lowest_bits(mut mask: u64, have: u16, want: u16) -> u64 {
    debug_assert_eq!(mask.count_ones(), have as u32);
    debug_assert!(want <= have);
    let drop = have - want;
    if drop < want {
        for _ in 0..drop {
            mask ^= 1 << (63 - mask.leading_zeros());
        }
        return mask;
    }
    let mut out = 0u64;
    for _ in 0..want {
        let bit = mask & mask.wrapping_neg(); // lowest set bit
        out |= bit;
        mask ^= bit;
    }
    out
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::frontier;

    fn pool(nodes: u32) -> ResourcePool {
        ResourcePool::over_range(frontier().node, 0, nodes)
    }

    impl ResourcePool {
        /// The original O(nodes) linear first-fit scan: the reference the
        /// indexed planner must match placement for placement. It popcounts
        /// the free masks itself, so it does not trust the stored counts.
        fn plan_linear(&self, req: &ResourceRequest) -> Option<Placement> {
            let need = self.rank_fit(req);
            let carve_node = |cores: u64, gpus: u16, mem_gb: u32| {
                let node = NodeFree {
                    id: NodeId(0),
                    cores,
                    gpus,
                    ncores: cores.count_ones() as u16,
                    ngpus: gpus.count_ones() as u16,
                    mem_gb,
                    down: false,
                };
                node.carve(need)
            };
            let rank = |n: &NodeFree, idx: usize, core_mask: u64, gpu_mask: u16| RankPlacement {
                node: n.id,
                node_idx: idx as u32,
                core_mask,
                gpu_mask,
                mem_gb: need.mem,
            };
            let mut ranks = Vec::with_capacity(req.ranks as usize);
            let mut remaining = req.ranks;
            // Pack skips the fully-busy prefix (pure acceleration).
            let start = match req.policy {
                PlacementPolicy::Pack => self.first_not_full,
                PlacementPolicy::Spread | PlacementPolicy::NodeExclusive => 0,
            };
            for (idx, n) in self.nodes.iter().enumerate().skip(start) {
                if remaining == 0 {
                    break;
                }
                if n.down {
                    continue;
                }
                match req.policy {
                    PlacementPolicy::Pack => {
                        // Local shadow masks so later ranks of this same
                        // request see what its earlier ranks carved.
                        let (mut cores, mut gpus, mut mem) = (n.cores, n.gpus, n.mem_gb);
                        while remaining > 0 {
                            let Some((cm, gm)) = carve_node(cores, gpus, mem) else {
                                break;
                            };
                            cores &= !cm;
                            gpus &= !gm;
                            mem -= need.mem;
                            ranks.push(rank(n, idx, cm, gm));
                            remaining -= 1;
                        }
                    }
                    PlacementPolicy::Spread => {
                        if let Some((cm, gm)) = carve_node(n.cores, n.gpus, n.mem_gb) {
                            ranks.push(rank(n, idx, cm, gm));
                            remaining -= 1;
                        }
                    }
                    PlacementPolicy::NodeExclusive => {
                        let (full_cores, full_gpus) = (mask_of(need.cores), mask_of(need.gpus));
                        if n.cores == full_cores
                            && n.gpus as u64 == full_gpus
                            && n.mem_gb == need.mem
                        {
                            ranks.push(rank(n, idx, n.cores, n.gpus));
                            remaining -= 1;
                        }
                    }
                }
            }
            (remaining == 0).then_some(Placement { ranks })
        }
    }

    #[test]
    fn single_core_pack_fills_node_in_order() {
        let mut p = pool(2);
        let req = ResourceRequest::single(1, 0);
        for i in 0..56 {
            let pl = p.try_alloc(&req).expect("fits");
            assert_eq!(pl.ranks[0].node, NodeId(0), "task {i} should pack node 0");
        }
        let pl = p.try_alloc(&req).unwrap();
        assert_eq!(pl.ranks[0].node, NodeId(1));
        assert_eq!(p.busy_cores(), 57);
    }

    #[test]
    fn alloc_free_roundtrip_restores_pool() {
        let mut p = pool(4);
        let req = ResourceRequest::mpi(4, 56, 8);
        let before = (p.free_cores(), p.free_gpus());
        let pl = p.try_alloc(&req).expect("fits");
        assert_eq!(p.free_cores(), 0);
        assert_eq!(p.free_gpus(), 0);
        p.free(&pl);
        assert_eq!((p.free_cores(), p.free_gpus()), before);
    }

    #[test]
    fn atomic_coscheduling_all_or_nothing() {
        let mut p = pool(2);
        // Occupy one core on node 1 so a 2-node exclusive request can't fit.
        let filler = p
            .try_alloc(&ResourceRequest {
                mem_per_rank_gb: 0,
                ranks: 1,
                cores_per_rank: 1,
                gpus_per_rank: 0,
                policy: PlacementPolicy::Pack,
            })
            .unwrap();
        let req = ResourceRequest {
            mem_per_rank_gb: 0,
            ranks: 2,
            cores_per_rank: 1,
            gpus_per_rank: 0,
            policy: PlacementPolicy::NodeExclusive,
        };
        let free_before = p.free_cores();
        assert!(p.try_alloc(&req).is_none(), "partial placement must fail");
        assert_eq!(p.free_cores(), free_before, "failed alloc must not leak");
        p.free(&filler);
        assert!(p.try_alloc(&req).is_some());
    }

    #[test]
    fn spread_places_one_rank_per_node() {
        let mut p = pool(3);
        let pl = p.try_alloc(&ResourceRequest::mpi(3, 8, 1)).unwrap();
        let mut nodes: Vec<_> = pl.ranks.iter().map(|r| r.node).collect();
        nodes.dedup();
        assert_eq!(nodes.len(), 3);
        assert_eq!(pl.cores(), 24);
        assert_eq!(pl.gpus(), 3);
    }

    #[test]
    fn spread_needs_enough_nodes() {
        let mut p = pool(2);
        assert!(p.try_alloc(&ResourceRequest::mpi(3, 1, 0)).is_none());
        assert!(!p.can_ever_fit(&ResourceRequest::mpi(3, 1, 0)));
    }

    #[test]
    fn gpu_exhaustion_blocks() {
        let mut p = pool(1);
        let req = ResourceRequest::single(1, 8);
        assert!(p.try_alloc(&req).is_some());
        assert!(p.try_alloc(&req).is_none(), "no gpus left");
        // but a cpu-only task still fits
        assert!(p.try_alloc(&ResourceRequest::single(1, 0)).is_some());
    }

    #[test]
    fn can_ever_fit_rejects_oversized() {
        let p = pool(4);
        assert!(!p.can_ever_fit(&ResourceRequest::single(57, 0)));
        assert!(!p.can_ever_fit(&ResourceRequest::single(1, 9)));
        assert!(!p.can_ever_fit(&ResourceRequest::single(0, 0)));
        assert!(p.can_ever_fit(&ResourceRequest::mpi(4, 56, 8)));
        // 4 nodes * 56 cores = 224 single-core ranks max
        assert!(p.can_ever_fit(&ResourceRequest {
            mem_per_rank_gb: 0,
            ranks: 224,
            cores_per_rank: 1,
            gpus_per_rank: 0,
            policy: PlacementPolicy::Pack,
        }));
        assert!(!p.can_ever_fit(&ResourceRequest {
            mem_per_rank_gb: 0,
            ranks: 225,
            cores_per_rank: 1,
            gpus_per_rank: 0,
            policy: PlacementPolicy::Pack,
        }));
    }

    #[test]
    fn fits_now_is_side_effect_free() {
        let mut p = pool(1);
        let req = ResourceRequest::single(56, 0);
        assert!(p.fits_now(&req));
        assert_eq!(p.free_cores(), 56);
        p.try_alloc(&req).unwrap();
        assert!(!p.fits_now(&ResourceRequest::single(1, 0)));
    }

    #[test]
    #[should_panic(expected = "not busy")]
    fn double_free_panics() {
        let mut p = pool(1);
        let pl = p.try_alloc(&ResourceRequest::single(2, 0)).unwrap();
        p.free(&pl);
        p.free(&pl);
    }

    #[test]
    fn lowest_bits_picks_low_indices() {
        assert_eq!(lowest_bits(0b1011, 3, 2), 0b0011);
        assert_eq!(lowest_bits(0b1100, 2, 1), 0b0100);
        assert_eq!(lowest_bits(u64::MAX, 64, 0), 0);
        // Clearing-from-the-top path (fewer bits to drop than to keep).
        assert_eq!(lowest_bits(u64::MAX, 64, 64), u64::MAX);
        assert_eq!(lowest_bits(u64::MAX, 64, 63), u64::MAX >> 1);
        assert_eq!(lowest_bits(0b1011_0110, 5, 4), 0b0011_0110);
        // Both paths agree with the bit-at-a-time definition.
        let mut state = 0x5EED_u64;
        for _ in 0..2000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let have = state.count_ones() as u16;
            let want = (state >> 58) as u16 % (have + 1);
            let mut reference = 0u64;
            let mut m = state;
            for _ in 0..want {
                reference |= m & m.wrapping_neg();
                m &= m - 1;
            }
            assert_eq!(
                lowest_bits(state, have, want),
                reference,
                "{state:#x} want {want}"
            );
        }
    }

    #[test]
    fn memory_constrains_placement() {
        // Frontier node: 512 GiB. Two 256 GiB ranks fill it; a third must
        // go to the next node even though cores remain.
        let mut p = pool(2);
        let req = ResourceRequest::single(1, 0).with_mem(256);
        let a = p.try_alloc(&req).unwrap();
        let b = p.try_alloc(&req).unwrap();
        assert_eq!(a.ranks[0].node, b.ranks[0].node, "both fit node 0");
        let c = p.try_alloc(&req).unwrap();
        assert_ne!(c.ranks[0].node, a.ranks[0].node, "memory spills to node 1");
        // A 513 GiB rank can never fit.
        assert!(!p.can_ever_fit(&ResourceRequest::single(1, 0).with_mem(513)));
        // Freeing returns the memory.
        let free_before_drop = p.free_cores();
        p.free(&a);
        p.free(&b);
        p.free(&c);
        assert_eq!(p.free_cores(), free_before_drop + 3);
        let big = ResourceRequest::single(1, 0).with_mem(512);
        assert!(p.try_alloc(&big).is_some(), "full-node memory free again");
    }

    /// A clone must make exactly the same alloc/free decisions as the pool
    /// it was cloned from (backfill shadow pools depend on it).
    #[test]
    fn cloned_pool_matches_original() {
        let mut state = 0xDEAD_BEEF_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut p = pool(64);
        let mut shadow = p.clone();
        let mut live: Vec<Placement> = Vec::new();
        for _ in 0..800 {
            let r = rng();
            if r % 5 < 3 || live.is_empty() {
                let req = match r % 4 {
                    0 => ResourceRequest::single(1, 0),
                    1 => ResourceRequest::single((r as u16 % 56) + 1, r as u16 % 3),
                    2 => ResourceRequest::mpi((r as u32 % 24) + 1, 56, 2),
                    _ => ResourceRequest::single(2, 1).with_mem((r as u32 % 300) + 1),
                };
                let a = p.try_alloc(&req);
                let b = shadow.try_alloc(&req);
                assert_eq!(a, b, "alloc divergence for {req:?}");
                if let Some(pl) = a {
                    live.push(pl);
                }
            } else {
                let pl = live.swap_remove(r as usize % live.len());
                p.free(&pl);
                shadow.free(&pl);
            }
            assert_eq!(p.free_cores(), shadow.free_cores());
            assert_eq!(p.free_gpus(), shadow.free_gpus());
        }
    }

    /// Exercise the indexed planner against the linear scan over a long
    /// randomized alloc/free churn covering every policy, asserting
    /// placement-for-placement equality at every step.
    #[test]
    fn indexed_plan_matches_linear_reference() {
        // Deterministic xorshift so the test is reproducible without deps.
        let mut state = 0x9E37_79B9_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut p = pool(17); // odd size: exercises segment-tree padding
        let mut held: Vec<Placement> = Vec::new();
        for step in 0..4000 {
            let r = rng();
            let req = match r % 7 {
                0 => ResourceRequest::single(1, 0),
                1 => ResourceRequest::single((r as u16 % 56) + 1, r as u16 % 3),
                2 => ResourceRequest::single(2, 1).with_mem((r as u32 % 300) + 1),
                3 => ResourceRequest::mpi((r as u32 % 6) + 1, 8, 1),
                4 => ResourceRequest {
                    ranks: (r as u32 % 3) + 1,
                    cores_per_rank: 1,
                    gpus_per_rank: 0,
                    mem_per_rank_gb: 0,
                    policy: PlacementPolicy::NodeExclusive,
                },
                5 => ResourceRequest::single(0, 1), // GPU-only rank
                _ => ResourceRequest {
                    ranks: (r as u32 % 90) + 1,
                    cores_per_rank: 3,
                    gpus_per_rank: 0,
                    mem_per_rank_gb: 2,
                    policy: PlacementPolicy::Pack,
                },
            };
            assert_eq!(
                p.plan(&req),
                p.plan_linear(&req),
                "divergence at step {step} for {req:?}"
            );
            // Mutate: alloc (keeping the placement) or free a random hold.
            if r % 3 != 0 || held.is_empty() {
                if let Some(pl) = p.try_alloc(&req) {
                    held.push(pl);
                }
            } else {
                let i = (r as usize / 7) % held.len();
                let pl = held.swap_remove(i);
                p.free(&pl);
            }
        }
        // Drain and confirm the index agrees on the fully-free pool too.
        for pl in held.drain(..) {
            p.free(&pl);
        }
        let req = ResourceRequest::mpi(17, 56, 8);
        assert_eq!(p.plan(&req), p.plan_linear(&req));
        assert_eq!(p.free_cores(), p.total_cores());
    }

    /// The `first_not_full` accelerator must interact with the index the
    /// same way it did with the linear scan: a GPU-only request must still
    /// find a node whose cores are exhausted but whose GPUs are free.
    #[test]
    fn gpu_only_request_finds_core_exhausted_node() {
        let mut p = pool(2);
        // Exhaust node 0's cores, leaving its GPUs free.
        let filler = p.try_alloc(&ResourceRequest::single(56, 0)).unwrap();
        assert_eq!(filler.ranks[0].node, NodeId(0));
        let req = ResourceRequest::single(0, 1);
        assert_eq!(p.plan(&req), p.plan_linear(&req));
        let pl = p.try_alloc(&req).expect("gpu free on node 0");
        assert_eq!(pl.ranks[0].node, NodeId(0), "must not skip node 0");
    }

    #[test]
    fn node_down_removes_capacity_and_planners_skip() {
        let mut p = pool(4);
        let total = p.free_cores();
        assert!(p.node_down(0));
        assert!(!p.node_down(0), "already down");
        assert!(p.is_node_down(0));
        assert_eq!((0..4).filter(|&i| p.is_node_down(i)).count(), 1);
        assert_eq!(p.free_cores(), total - 56);
        let pl = p.try_alloc(&ResourceRequest::single(1, 0)).unwrap();
        assert_eq!(pl.ranks[0].node, NodeId(1), "pack skips the down node");
        assert_eq!(p.plan(&pl_req()), p.plan_linear(&pl_req()));
        assert!(p.node_up(0));
        assert!(!p.node_up(0), "already up");
        assert_eq!(p.free_cores(), total - 1);
        let pl2 = p.try_alloc(&ResourceRequest::single(1, 0)).unwrap();
        assert_eq!(pl2.ranks[0].node, NodeId(0), "restored node packs first");
    }

    fn pl_req() -> ResourceRequest {
        ResourceRequest::single(1, 0)
    }

    #[test]
    fn free_on_down_node_parks_until_node_up() {
        let mut p = pool(2);
        let total = p.free_cores();
        let held = p.try_alloc(&ResourceRequest::single(8, 2)).unwrap();
        assert_eq!(held.ranks[0].node, NodeId(0));
        p.node_down(0);
        assert_eq!(p.free_cores(), 56, "only node 1 contributes");
        // Freeing the dead node's placement parks it: totals unchanged.
        p.free(&held);
        assert_eq!(p.free_cores(), 56);
        assert_eq!(p.free_gpus(), 8);
        // node_up returns the parked resources with the rest of the node.
        p.node_up(0);
        assert_eq!(p.free_cores(), total);
        assert_eq!(p.free_gpus(), 16);
        let wide = p.try_alloc(&ResourceRequest::mpi(2, 56, 8)).unwrap();
        assert_eq!(wide.node_count(), 2, "whole machine placeable again");
    }

    #[test]
    fn indexed_matches_linear_under_down_up_churn() {
        let mut state = 0xC0FF_EE00_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut p = pool(17);
        let mut held: Vec<Placement> = Vec::new();
        for step in 0..3000 {
            let r = rng();
            match r % 11 {
                0 => {
                    p.node_down((r as usize / 11) % 17);
                }
                1 => {
                    p.node_up((r as usize / 11) % 17);
                }
                2..=7 => {
                    let req = match r % 3 {
                        0 => ResourceRequest::single(1, 0),
                        1 => ResourceRequest::single((r as u16 % 56) + 1, r as u16 % 3),
                        _ => ResourceRequest::mpi((r as u32 % 6) + 1, 8, 1),
                    };
                    assert_eq!(
                        p.plan(&req),
                        p.plan_linear(&req),
                        "divergence at step {step} for {req:?}"
                    );
                    if let Some(pl) = p.try_alloc(&req) {
                        for rk in &pl.ranks {
                            assert!(
                                !p.is_node_down(rk.node_idx as usize),
                                "placed on a down node at step {step}"
                            );
                        }
                        held.push(pl);
                    }
                }
                _ => {
                    if !held.is_empty() {
                        let pl = held.swap_remove((r as usize / 11) % held.len());
                        p.free(&pl);
                    }
                }
            }
        }
        // Restore all nodes, drain all holds: the pool must be whole again.
        for pl in held.drain(..) {
            p.free(&pl);
        }
        for i in 0..17 {
            p.node_up(i);
        }
        assert_eq!(p.free_cores(), p.total_cores());
        assert_eq!(p.free_gpus(), p.total_gpus());
    }

    /// A free that panics on a bad rank must leave the pool exactly as it
    /// was: no earlier rank returned, counts and index unchanged.
    #[test]
    fn failed_free_leaves_pool_untouched() {
        let mut p = pool(6);
        let a = p.try_alloc(&ResourceRequest::mpi(4, 56, 8)).unwrap();
        p.free(&a);
        // Ranks 0-2 of `a` are busy again; rank 3 is already free.
        let b = p.try_alloc(&ResourceRequest::mpi(3, 56, 8)).unwrap();
        assert_eq!(&b.ranks[..], &a.ranks[..3]);
        let probe = ResourceRequest::mpi(3, 56, 8);
        let before = (p.free_cores(), p.free_gpus(), p.plan(&probe));
        assert!(free_panic(&mut p, &a).contains("not busy"));
        assert_eq!((p.free_cores(), p.free_gpus(), p.plan(&probe)), before);
        assert_eq!(p.plan(&probe), p.plan_linear(&probe));
        check_invariants(&p);
        p.free(&b);
        assert_eq!(p.free_cores(), p.total_cores());
        check_invariants(&p);
    }

    /// The message of the panic `p.free(pl)` must raise.
    fn free_panic(p: &mut ResourcePool, pl: &Placement) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.free(pl)))
            .expect_err("free must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// A placement listing one busy core twice on the same node is caught
    /// by the per-node running union before anything is returned.
    #[test]
    fn free_validates_repeated_node_ranks_together() {
        let mut p = pool(2);
        let a = p.try_alloc(&ResourceRequest::single(1, 0)).unwrap();
        let twice = Placement {
            ranks: vec![a.ranks[0].clone(), a.ranks[0].clone()],
        };
        assert!(free_panic(&mut p, &twice).contains("not busy"));
        assert_eq!(p.busy_cores(), 1);
        check_invariants(&p);
        p.free(&a);
        assert_eq!(p.free_cores(), p.total_cores());
    }

    /// Ranks must come in node order, or the per-node union above could
    /// miss a repeat; each rank of this placement is valid on its own.
    #[test]
    fn free_refuses_ranks_out_of_node_order() {
        let mut p = pool(2);
        let a = p.try_alloc(&ResourceRequest::single(56, 0)).unwrap();
        let b = p.try_alloc(&ResourceRequest::single(56, 0)).unwrap();
        let backwards = Placement {
            ranks: vec![b.ranks[0].clone(), a.ranks[0].clone()],
        };
        assert!(free_panic(&mut p, &backwards).contains("out of node order"));
        assert_eq!(p.free_cores(), 0);
        check_invariants(&p);
    }

    /// Every structural invariant of the pool: stored counts equal the
    /// mask popcounts, each index leaf equals its node's counts (zero when
    /// down, zero for padding), each internal maximum is the max of its
    /// children, the totals sum the up nodes, and no up node below
    /// `first_not_full` has anything free.
    fn check_invariants(p: &ResourcePool) {
        let idx = &p.index;
        let (mut cores, mut gpus) = (0u64, 0u64);
        for (i, n) in p.nodes.iter().enumerate() {
            assert_eq!(n.ncores as u32, n.cores.count_ones(), "node {i} core count");
            assert_eq!(n.ngpus as u32, n.gpus.count_ones(), "node {i} gpu count");
            let want = if n.down {
                Fit::default()
            } else {
                cores += n.ncores as u64;
                gpus += n.ngpus as u64;
                Fit {
                    cores: n.ncores,
                    gpus: n.ngpus,
                    mem: n.mem_gb,
                }
            };
            assert_eq!(idx.max[idx.base + i], want, "leaf {i}");
            if i < p.first_not_full && !n.down {
                assert_eq!((n.cores, n.gpus), (0, 0), "node {i} below first_not_full");
            }
        }
        for pad in idx.base + p.nodes.len()..2 * idx.base {
            assert_eq!(idx.max[pad], Fit::default(), "padding leaf {pad}");
        }
        for i in 1..idx.base {
            assert_eq!(
                idx.max[i],
                idx.max[2 * i].max(idx.max[2 * i + 1]),
                "inner {i}"
            );
        }
        assert_eq!(
            (p.free_cores(), p.free_gpus()),
            (cores, gpus),
            "pool totals"
        );
    }

    /// Seeded churn over every policy at every width — including the
    /// `ranks >= nodes/8` requests that once bypassed the index — with
    /// random-order frees and node faults, checking the production plan
    /// against the linear reference and every invariant after each step.
    #[test]
    fn index_invariants_hold_under_churn() {
        const NODES: u32 = 33; // not a power of two: padding leaves exist
        let mut state = 0x1DEA_5EED_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut p = pool(NODES);
        let mut held: Vec<Placement> = Vec::new();
        for step in 0..6000 {
            let r = rng();
            match r % 16 {
                0 => {
                    p.node_down((r as usize >> 8) % NODES as usize);
                }
                1 => {
                    p.node_up((r as usize >> 8) % NODES as usize);
                }
                2..=9 => {
                    let ranks = match (r >> 8) % 3 {
                        0 => 1,
                        1 => (r >> 12) as u32 % 4 + 1,
                        _ => (r >> 12) as u32 % NODES + 1,
                    };
                    let policy = match (r >> 20) % 3 {
                        0 => PlacementPolicy::Pack,
                        1 => PlacementPolicy::Spread,
                        _ => PlacementPolicy::NodeExclusive,
                    };
                    let cores_per_rank = match (r >> 24) % 5 {
                        0 => 1,
                        1 => 56,
                        2 => 0, // GPU-only, or nothing at all
                        _ => (r >> 28) as u16 % 56 + 1,
                    };
                    let req = ResourceRequest {
                        ranks,
                        cores_per_rank,
                        gpus_per_rank: (r >> 36) as u16 % 9,
                        mem_per_rank_gb: if r >> 40 & 1 == 0 {
                            0
                        } else {
                            (r >> 44) as u32 % 513
                        },
                        policy,
                    };
                    assert_eq!(
                        p.plan(&req),
                        p.plan_linear(&req),
                        "divergence at step {step} for {req:?}"
                    );
                    if p.fits_now(&req) {
                        held.push(p.try_alloc(&req).expect("fits_now said it fits"));
                    }
                }
                _ => {
                    if !held.is_empty() {
                        let pl = held.swap_remove((r as usize >> 8) % held.len());
                        p.free(&pl);
                    }
                }
            }
            check_invariants(&p);
        }
        for pl in held.drain(..) {
            p.free(&pl);
        }
        for i in 0..NODES as usize {
            p.node_up(i);
        }
        check_invariants(&p);
        assert_eq!(p.free_cores(), p.total_cores());
        assert_eq!(p.free_gpus(), p.total_gpus());
    }

    /// The wide path at IMPECCABLE scale: whole-node Spread and
    /// NodeExclusive requests of 4-128 ranks (0 or 8 GPUs, 384 GiB) churned
    /// over a 1,100-node pool (eleven tree levels, padding leaves) with node
    /// faults interleaved. Every step plans one such request against the
    /// linear reference, then allocates it, frees a held placement or
    /// flips a node, and checks every invariant.
    #[test]
    fn wide_placements_hold_invariants_at_scale() {
        const NODES: u32 = 1_100;
        let mut state = 0x5CA1_AB1E_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut p = pool(NODES);
        let mut held: Vec<Placement> = Vec::new();
        let mut placed = 0;
        for step in 0..2500 {
            let r = rng();
            let req = ResourceRequest {
                ranks: 4 + (r >> 8) as u32 % 125,
                cores_per_rank: 56,
                gpus_per_rank: if r >> 16 & 1 == 0 { 0 } else { 8 },
                mem_per_rank_gb: 384,
                policy: if r >> 17 & 3 == 0 {
                    PlacementPolicy::NodeExclusive
                } else {
                    PlacementPolicy::Spread
                },
            };
            assert_eq!(
                p.plan(&req),
                p.plan_linear(&req),
                "divergence at step {step} for {req:?}"
            );
            let node = (r >> 24) as usize % NODES as usize;
            match r % 16 {
                0 => {
                    p.node_down(node);
                }
                1 => {
                    p.node_up(node);
                }
                2..=8 => {
                    if let Some(pl) = p.try_alloc(&req) {
                        assert_eq!(pl.node_count(), req.ranks as usize);
                        placed += 1;
                        held.push(pl);
                    }
                }
                _ => {
                    if !held.is_empty() {
                        let pl = held.swap_remove((r >> 32) as usize % held.len());
                        p.free(&pl);
                    }
                }
            }
            check_invariants(&p);
        }
        assert!(placed > 500, "the churn must place wide requests: {placed}");
        for pl in held.drain(..) {
            p.free(&pl);
        }
        for i in 0..NODES as usize {
            p.node_up(i);
        }
        check_invariants(&p);
        assert_eq!(p.free_cores(), p.total_cores());
        assert_eq!(p.free_gpus(), p.total_gpus());
    }

    #[test]
    fn seven_k_core_task_geometry() {
        // The IMPECCABLE upper bound: 7,168 cores = 128 Frontier nodes.
        let mut p = pool(128);
        let req = ResourceRequest::mpi(128, 56, 0);
        assert_eq!(req.total_cores(), 7_168);
        let pl = p.try_alloc(&req).unwrap();
        assert_eq!(pl.node_count(), 128);
        assert_eq!(p.free_cores(), 0);
    }
}
