//! # graph-part — multilevel multi-constraint k-way graph partitioning
//!
//! EpiSimdemics "supports an interface to apply external partitioning
//! methods, such as METIS" and specifically uses METIS's *multi-constraint*
//! mode, assigning "a vector of weights to each vertex … each element of the
//! vector is associated with a unique load balancing constraint for a
//! specific phase of the computation" (paper §III-A). METIS itself is not a
//! Rust library, so this crate implements the same algorithm family from
//! scratch (the substitution is recorded in DESIGN.md):
//!
//! * [`graph`] — CSR graphs with multi-constraint (vector) vertex weights,
//! * [`coarsen`] — heavy-edge matching (HEM) coarsening and contraction,
//! * [`initpart`] — greedy graph-growing initial partitioning,
//! * [`refine`] — boundary refinement with per-constraint balance limits,
//! * [`kway`] — the multilevel driver tying the phases together,
//! * [`rb`] — recursive bisection, the other METIS-family driver (ablation),
//! * [`rr`] — the round-robin baseline the paper labels `RR`,
//! * [`metrics`] — edge cut, **maximum per-partition edge cut** (Figure 14)
//!   and per-constraint imbalance.
//!
//! Like METIS, the partitioner minimizes total edge cut subject to balance
//! constraints; unlike METIS it is deterministic for a fixed seed.

pub mod coarsen;
pub mod graph;
pub mod initpart;
pub mod kway;
pub mod metrics;
pub mod rb;
pub mod refine;
pub mod rr;

pub use graph::{CsrGraph, GraphBuilder};
pub use kway::{kway_partition, kway_partition_from, PartitionConfig};
pub use metrics::{
    imbalances, max_partition_cut, partition_loads, total_edge_cut, PartitionQuality,
};
pub use rb::recursive_bisection;
pub use rr::round_robin;

/// A partition assignment: `assignment[v]` is the partition of vertex `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Number of partitions (`k`).
    pub k: u32,
    /// Partition id per vertex.
    pub assignment: Vec<u32>,
}

impl Partition {
    /// Validate that every vertex is assigned to a partition `< k`.
    pub fn validate(&self) -> Result<(), String> {
        match self.assignment.iter().position(|&p| p >= self.k) {
            None => Ok(()),
            Some(v) => Err(format!(
                "vertex {v} assigned to partition {} ≥ k = {}",
                self.assignment[v], self.k
            )),
        }
    }
}
