//! The multilevel k-way driver: coarsen → initial partition → uncoarsen
//! with refinement at every level (the METIS recipe).

use crate::coarsen::{coarsen_to, CoarseLevel};
use crate::graph::CsrGraph;
use crate::initpart::greedy_growing;
use crate::refine::{refine_targets, RefineConfig, RefineScratch};
use crate::Partition;

/// Coarsening stops at `COARSEN_FACTOR × k` vertices (256 at least): enough
/// for a meaningful initial partition, few enough that growing it is cheap.
const COARSEN_FACTOR: u32 = 16;

/// Partitioning parameters.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Number of partitions.
    pub k: u32,
    /// Balance limit per constraint (≥ 1.0). METIS calls this the
    /// "tolerable variance in the sum of vertex weights per partition"
    /// (paper §III-A).
    pub ubfactor: f64,
    /// RNG seed (the partitioner is deterministic given the seed).
    pub seed: u64,
}

impl PartitionConfig {
    /// Reasonable defaults for `k` partitions.
    pub fn new(k: u32) -> Self {
        PartitionConfig {
            k,
            ubfactor: 1.05,
            seed: 1,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style balance override.
    pub fn with_ubfactor(mut self, ub: f64) -> Self {
        self.ubfactor = ub.max(1.0);
        self
    }

    /// The vertex count at which [`kway_partition`] stops coarsening.
    pub fn coarsen_target(&self) -> u32 {
        COARSEN_FACTOR.saturating_mul(self.k.max(1)).max(256)
    }

    /// The refinement parameters both drivers derive from this config.
    pub(crate) fn refine_config(&self) -> RefineConfig {
        RefineConfig {
            ubfactor: self.ubfactor,
            seed: self.seed,
        }
    }
}

/// Multilevel k-way partitioning of `g`.
///
/// Deterministic: the same graph (adjacency order included) and seed give
/// the same `Partition`, bit for bit, in every build; `tests/pins.rs`
/// holds the hashes.
pub fn kway_partition(g: &CsrGraph, cfg: &PartitionConfig) -> Partition {
    kway_partition_from(g, None, cfg)
}

/// [`kway_partition`] from a caller's first coarse level of `g`: matching
/// continues on `first`'s graph, and the partition is projected through
/// `first` and refined on `g` like any other level's.
pub fn kway_partition_from(
    g: &CsrGraph,
    first: Option<CoarseLevel>,
    cfg: &PartitionConfig,
) -> Partition {
    let k = cfg.k.max(1);
    let n = g.n();
    if k == 1 {
        return Partition {
            k,
            assignment: vec![0; n as usize],
        };
    }
    if n <= k {
        return Partition {
            k,
            assignment: (0..n).collect(),
        };
    }

    let start = first.as_ref().map_or(g, |l| &l.graph);
    let hem = coarsen_to(start, cfg.coarsen_target(), cfg.seed);
    let mut levels: Vec<CoarseLevel> = first.into_iter().chain(hem).collect();
    let rcfg = cfg.refine_config();
    let mut scratch = RefineScratch::default();

    // Initial partition on the coarsest graph.
    let coarsest = levels.last().map_or(g, |l| &l.graph);
    let mut part = greedy_growing(coarsest, k, cfg.seed);
    refine_targets(coarsest, &mut part, &rcfg, None, &mut scratch);

    // Uncoarsen: project through each level and refine on the finer graph.
    // A level's graph is freed once the partition has left it, so the
    // stack shrinks as the graphs being refined grow.
    while let Some(CoarseLevel { graph, map }) = levels.pop() {
        drop(graph);
        let fine = levels.last().map_or(g, |l| &l.graph);
        part.assignment = map.iter().map(|&c| part.assignment[c as usize]).collect();
        refine_targets(fine, &mut part, &rcfg, None, &mut scratch);
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure2_example, GraphBuilder};
    use crate::metrics::{imbalances, total_edge_cut, PartitionQuality};
    use crate::rr::round_robin;
    use ptts::CounterRng;

    fn grid_graph(side: u32) -> CsrGraph {
        let n = side * side;
        let mut b = GraphBuilder::new(n, 1);
        for v in 0..n {
            b.set_vwgt(v, &[1]);
        }
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    b.add_edge(v, v + 1, 1);
                }
                if r + 1 < side {
                    b.add_edge(v, v + side, 1);
                }
            }
        }
        b.build()
    }

    #[test]
    fn grid_4way_close_to_optimal() {
        let g = grid_graph(16); // 256 vertices, optimal 4-way cut = 32
        let p = kway_partition(&g, &PartitionConfig::new(4));
        p.validate().unwrap();
        let cut = total_edge_cut(&g, &p);
        // Greedy k-way refinement typically lands within ~3× of the optimal
        // 32 on a grid (METIS gets ~36); anything materially above that
        // signals a regression.
        assert!(cut <= 100, "cut {cut}, optimal 32");
        let imb = imbalances(&g, &p);
        assert!(imb[0] <= 1.15, "imbalance {}", imb[0]);
    }

    #[test]
    fn beats_round_robin_on_cut() {
        let g = grid_graph(20);
        let gp = kway_partition(&g, &PartitionConfig::new(8));
        let rr = round_robin(g.n(), 8);
        let cut_gp = total_edge_cut(&g, &gp);
        let cut_rr = total_edge_cut(&g, &rr);
        assert!(
            (cut_gp as f64) < 0.5 * cut_rr as f64,
            "GP {cut_gp} vs RR {cut_rr}"
        );
    }

    #[test]
    fn k_exceeding_n() {
        let g = grid_graph(3);
        let p = kway_partition(&g, &PartitionConfig::new(64));
        p.validate().unwrap();
        assert_eq!(p.assignment, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic() {
        let g = grid_graph(12);
        let a = kway_partition(&g, &PartitionConfig::new(6).with_seed(9));
        let b = kway_partition(&g, &PartitionConfig::new(6).with_seed(9));
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn heavy_tailed_graph_respects_minmax() {
        // Power-law-ish: one hub of weight 100, many leaves of weight 1.
        // Perfect balance is impossible; the partitioner must isolate the
        // hub rather than pile more onto its partition.
        let n = 101u32;
        let mut b = GraphBuilder::new(n, 1);
        b.set_vwgt(0, &[100]);
        for v in 1..n {
            b.set_vwgt(v, &[1]);
            b.add_edge(0, v, 1);
        }
        let g = b.build();
        let p = kway_partition(&g, &PartitionConfig::new(4));
        let q = PartitionQuality::compute(&g, &p);
        // Lmax is bounded below by lmax = 100; accept a small margin.
        assert!(q.max_load(0) <= 110, "Lmax {}", q.max_load(0));
    }

    #[test]
    fn figure2_partitioner_finds_good_tradeoff() {
        let g = figure2_example();
        let p = kway_partition(&g, &PartitionConfig::new(5).with_ubfactor(1.7));
        let q = PartitionQuality::compute(&g, &p);
        // The two caption optima are (cut 8, Lmax 8) and (cut 6, Lmax 10);
        // any sane result lies in that envelope.
        assert!(q.edge_cut <= 10, "cut {}", q.edge_cut);
        assert!(q.max_load(0) <= 12, "Lmax {}", q.max_load(0));
    }

    #[test]
    fn two_constraint_partitioning() {
        // 2-constraint random graph: both constraints must end up balanced.
        let n = 400u32;
        let mut b = GraphBuilder::new(n, 2);
        let mut rng = CounterRng::from_key(&[77]);
        for v in 0..n {
            b.set_vwgt(v, &[1 + rng.uniform_u64(5), 1 + rng.uniform_u64(5)]);
        }
        for v in 0..n {
            for _ in 0..3 {
                let u = rng.uniform_u64(n as u64) as u32;
                if u != v {
                    b.add_edge(v, u, 1);
                }
            }
        }
        let g = b.build();
        let p = kway_partition(&g, &PartitionConfig::new(8).with_seed(3));
        let imb = imbalances(&g, &p);
        assert!(imb[0] < 1.35 && imb[1] < 1.35, "imbalances {imb:?}");
    }

    #[test]
    fn large_k_on_modest_graph() {
        let g = grid_graph(32); // 1024 vertices
        let p = kway_partition(&g, &PartitionConfig::new(128));
        p.validate().unwrap();
        let q = PartitionQuality::compute(&g, &p);
        assert!(q.imbalance[0] < 2.0, "imbalance {}", q.imbalance[0]);
    }
}
