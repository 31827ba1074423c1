//! Recursive bisection — the other classic METIS-family driver, kept as an
//! ablation against the direct k-way partitioner.
//!
//! Splits the graph into two sides with target fractions `⌈k/2⌉ : ⌊k/2⌋`
//! (so odd k works), refines the bisection, then recurses on the induced
//! subgraphs. Compared to direct k-way it optimizes each cut locally and
//! can miss globally better arrangements, but its bisections are usually
//! tighter — the classic tradeoff this module lets the benches measure.

use crate::graph::{CsrGraph, GraphBuilder};
use crate::initpart::LoadTracker;
use crate::refine::{refine_targets, RefineScratch};
use crate::{kway::PartitionConfig, Partition};
use ptts::CounterRng;
use std::collections::BinaryHeap;

/// Recursive-bisection k-way partitioning with the same configuration type
/// as [`crate::kway_partition`].
pub fn recursive_bisection(g: &CsrGraph, cfg: &PartitionConfig) -> Partition {
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
    let mut assignment = vec![0u32; n as usize];
    let all: Vec<u32> = (0..n).collect();
    let mut bufs = (vec![u32::MAX; n as usize], RefineScratch::default());
    split(g, &all, 0, k, cfg, &mut assignment, &mut bufs);
    Partition { k, assignment }
}

/// Recursively split `vertices` (ids into `g`) into partitions
/// `base..base + parts`, writing into `assignment`. `bufs` holds
/// [`induced_subgraph`]'s scratch and the refinement's, shared by every
/// node of the recursion.
fn split(
    g: &CsrGraph,
    vertices: &[u32],
    base: u32,
    parts: u32,
    cfg: &PartitionConfig,
    assignment: &mut [u32],
    bufs: &mut (Vec<u32>, RefineScratch),
) {
    if parts == 1 || vertices.is_empty() {
        for &v in vertices {
            assignment[v as usize] = base;
        }
        return;
    }
    let left_parts = parts.div_ceil(2);
    let right_parts = parts - left_parts;
    let sub = induced_subgraph(g, vertices, &mut bufs.0);
    let frac_left = left_parts as f64 / parts as f64;
    let side = bisect(&sub, frac_left, cfg, &mut bufs.1);

    let mut left = Vec::with_capacity((vertices.len() as f64 * frac_left) as usize);
    let mut right = Vec::new();
    for (i, &v) in vertices.iter().enumerate() {
        if side[i] == 0 {
            left.push(v);
        } else {
            right.push(v);
        }
    }
    split(g, &left, base, left_parts, cfg, assignment, bufs);
    let base = base + left_parts;
    split(g, &right, base, right_parts, cfg, assignment, bufs);
}

/// Build the subgraph induced by `vertices`; its vertex `i` is
/// `vertices[i]`. `local` is all `u32::MAX` on entry and on return.
fn induced_subgraph(g: &CsrGraph, vertices: &[u32], local: &mut [u32]) -> CsrGraph {
    for (i, &v) in vertices.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    let mut b = GraphBuilder::new(vertices.len() as u32, g.ncon());
    for (i, &v) in vertices.iter().enumerate() {
        b.set_vwgt(i as u32, g.vwgts(v));
        for (u, w) in g.neighbors(v) {
            let lu = local[u as usize];
            if lu != u32::MAX && (i as u32) < lu {
                b.add_edge(i as u32, lu, w);
            }
        }
    }
    for &v in vertices {
        local[v as usize] = u32::MAX;
    }
    b.build()
}

/// Greedy-grow one side to `frac_left` of the total weight, then refine the
/// 2-way cut. Returns 0/1 per vertex.
fn bisect(g: &CsrGraph, frac_left: f64, cfg: &PartitionConfig, rs: &mut RefineScratch) -> Vec<u32> {
    let n = g.n();
    if n <= 1 {
        return vec![0; n as usize];
    }
    let fractions = [frac_left, (1.0 - frac_left).max(1e-9)];
    // Everything starts on side 1.
    let mut side = vec![1u32; n as usize];
    let mut tracker = LoadTracker::default();
    tracker.reset(g, 2, Some(&fractions), &side);
    // Grow side 0 from the highest-degree vertex by strongest connection.
    let seed_v = (0..n).max_by_key(|&v| g.degree(v)).unwrap_or(0);
    let mut rng = CounterRng::from_key(&[cfg.seed, 0xB15E]);
    let mut frontier: BinaryHeap<(u64, u64, u32)> = BinaryHeap::new();
    frontier.push((0, 0, seed_v));
    while tracker.fullness(0) < 1.0 {
        let v = match frontier.pop() {
            Some((_, _, v)) => v,
            None => {
                // Disconnected remainder: seed from any side-1 vertex.
                match side.iter().position(|&s| s == 1) {
                    Some(v) => v as u32,
                    None => break,
                }
            }
        };
        if side[v as usize] == 0 {
            continue;
        }
        side[v as usize] = 0;
        tracker.remove(g, 1, v);
        tracker.add(g, 0, v);
        for (u, w) in g.neighbors(v) {
            if side[u as usize] == 1 {
                frontier.push((w as u64, rng.uniform_u64(u64::MAX), u));
            }
        }
    }
    let mut part = Partition {
        k: 2,
        assignment: side,
    };
    refine_targets(g, &mut part, &cfg.refine_config(), Some(&fractions), rs);
    part.assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::kway::kway_partition;
    use crate::metrics::{imbalances, total_edge_cut, PartitionQuality};

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
    fn rb_4way_grid_quality() {
        let g = grid_graph(16);
        let p = recursive_bisection(&g, &PartitionConfig::new(4));
        p.validate().unwrap();
        let cut = total_edge_cut(&g, &p);
        assert!(cut <= 100, "cut {cut}, optimal 32");
        let imb = imbalances(&g, &p);
        assert!(imb[0] <= 1.2, "imbalance {}", imb[0]);
    }

    #[test]
    fn rb_handles_odd_k() {
        let g = grid_graph(15); // 225 vertices
        for k in [3u32, 5, 7, 9] {
            let p = recursive_bisection(&g, &PartitionConfig::new(k));
            p.validate().unwrap();
            let imb = imbalances(&g, &p);
            assert!(imb[0] <= 1.35, "k={k} imbalance {}", imb[0]);
            // Every partition non-empty.
            let mut seen = vec![false; k as usize];
            for &a in &p.assignment {
                seen[a as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "k={k}: empty partition");
        }
    }

    #[test]
    fn rb_comparable_to_kway() {
        // RB and direct k-way should land in the same quality class on a
        // grid (within 2× of each other's cut).
        let g = grid_graph(20);
        let rb = recursive_bisection(&g, &PartitionConfig::new(8));
        let kw = kway_partition(&g, &PartitionConfig::new(8));
        let cut_rb = total_edge_cut(&g, &rb) as f64;
        let cut_kw = total_edge_cut(&g, &kw) as f64;
        assert!(
            cut_rb < 2.0 * cut_kw && cut_kw < 2.0 * cut_rb,
            "RB {cut_rb} vs kway {cut_kw}"
        );
    }

    #[test]
    fn rb_multiconstraint() {
        let mut b = GraphBuilder::new(100, 2);
        for v in 0..100u32 {
            b.set_vwgt(v, &[1 + (v % 3) as u64, 1 + (v % 5) as u64]);
        }
        for v in 0..99 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        let p = recursive_bisection(&g, &PartitionConfig::new(4));
        let q = PartitionQuality::compute(&g, &p);
        assert!(
            q.imbalance[0] < 1.4 && q.imbalance[1] < 1.4,
            "{:?}",
            q.imbalance
        );
    }

    #[test]
    fn rb_k_one_and_k_ge_n() {
        let g = grid_graph(3);
        let p1 = recursive_bisection(&g, &PartitionConfig::new(1));
        assert!(p1.assignment.iter().all(|&a| a == 0));
        let p16 = recursive_bisection(&g, &PartitionConfig::new(16));
        p16.validate().unwrap();
    }

    #[test]
    fn induced_subgraph_preserves_structure() {
        let g = grid_graph(4);
        // Take the left 2×4 column block.
        let vs: Vec<u32> = (0..16).filter(|v| v % 4 < 2).collect();
        let mut local = vec![u32::MAX; 16];
        let sub = induced_subgraph(&g, &vs, &mut local);
        sub.validate().unwrap();
        assert_eq!(sub.n(), 8);
        assert!(local.iter().all(|&l| l == u32::MAX));
        // Internal edges: vertical (3 per column × 2) + horizontal (4).
        assert_eq!(sub.m(), 10);
        assert_eq!(sub.total_weights()[0], 8);
    }
}
