//! Node and machine descriptions.

use std::fmt;

/// Identifies a compute node within a machine (global, stable index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{:05}", self.0)
    }
}

/// Per-node resource inventory visible to user jobs.
///
/// `cores` is the count of *usable* cores after the system reserves its
/// share (Frontier exposes 56 of 64 cores with SMT=1, matching the paper's
/// 224 cores across 4 nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// Usable CPU cores per node.
    pub cores: u16,
    /// Usable GPUs per node (Frontier: 8 MI250X GCDs).
    pub gpus: u16,
    /// Usable DDR memory per node, GiB (Frontier: 512 GiB; jobspecs may
    /// carry per-rank memory constraints, §3.2.1).
    pub mem_gb: u32,
}

impl NodeSpec {
    /// Panics if the spec is degenerate (zero cores) or exceeds the bitmask
    /// widths used by the resource pool (64 cores, 16 GPUs per node).
    pub fn validate(self) {
        assert!(self.cores >= 1, "node must have at least one core");
        assert!(self.cores <= 64, "core bitmask is 64 bits wide");
        assert!(self.gpus <= 16, "gpu bitmask is 16 bits wide");
        assert!(self.mem_gb >= 1, "node must have memory");
    }
}

/// A machine preset: node shape plus the largest job it can host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpec {
    /// Human-readable machine name.
    pub name: &'static str,
    /// The per-node inventory.
    pub node: NodeSpec,
    /// Maximum nodes a single allocation may request.
    pub max_nodes: u32,
}

/// The Frontier preset used throughout the paper's experiments:
/// 56 usable cores (SMT=1) and 8 GPU compute dies per node, 9,408 nodes.
pub fn frontier() -> MachineSpec {
    MachineSpec {
        name: "frontier",
        node: NodeSpec {
            cores: 56,
            gpus: 8,
            mem_gb: 512,
        },
        max_nodes: 9_408,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_matches_paper_geometry() {
        let m = frontier();
        m.node.validate();
        // The srun experiment: 4 nodes, SMT=1 => 224 cores total.
        assert_eq!(4 * m.node.cores as u32, 224);
        assert_eq!(m.node.gpus, 8);
        assert!(m.max_nodes >= 1024);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_spec_rejected() {
        NodeSpec {
            cores: 0,
            gpus: 0,
            mem_gb: 1,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "must have memory")]
    fn zero_mem_spec_rejected() {
        NodeSpec {
            cores: 1,
            gpus: 0,
            mem_gb: 0,
        }
        .validate();
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "node00007");
    }
}
