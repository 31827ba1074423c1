//! Greedy graph-growing initial partitioning (on the coarsest graph).
//!
//! Grows the k regions one at a time from high-degree seeds, preferring the
//! frontier vertex most strongly connected to the growing region, and stops
//! each region once its *fullness* — the maximum over constraints of
//! load/target — reaches 1. Leftover vertices are placed heaviest-first
//! onto the least-full partition (a 2-approximation for makespan, which is
//! exactly the `Lmax` quantity §III-B analyzes).

use crate::graph::CsrGraph;
use crate::Partition;
use ptts::CounterRng;
use std::collections::BinaryHeap;

/// Track per-partition loads and fullness for multi-constraint balance.
#[derive(Debug, Clone, Default)]
pub struct LoadTracker {
    /// loads[p * ncon + c]
    loads: Vec<u64>,
    /// Target load per partition per constraint, `targets[p * ncon + c]`
    /// (uniform total/k unless built with explicit fractions).
    targets: Vec<f64>,
    /// `fullness[p]`: max over constraints of load/target, recomputed by
    /// every `add`/`remove` so that reading it costs no division.
    fullness: Vec<f64>,
    ncon: usize,
}

impl LoadTracker {
    /// Start over on graph `g` with `k` partitions, reusing this tracker's
    /// buffers. Targets are `fractions` of the total weight (positive, need
    /// not sum to 1; uniform when `None`); loads come from `assignment`,
    /// which names a partition per vertex or is empty (nothing placed yet).
    pub fn reset(&mut self, g: &CsrGraph, k: u32, fractions: Option<&[f64]>, assignment: &[u32]) {
        let totals = g.total_weights();
        let ncon = g.ncon();
        self.ncon = ncon;
        self.targets.clear();
        assert!(fractions.is_none_or(|f| f.len() == k as usize));
        for p in 0..k as usize {
            let f = fractions.map_or(1.0 / k as f64, |f| f[p]);
            assert!(f > 0.0, "target fractions must be positive");
            self.targets
                .extend(totals.iter().map(|&t| (t as f64 * f).max(1.0)));
        }
        self.loads.clear();
        self.loads.resize(k as usize * ncon, 0);
        for (v, &p) in assignment.iter().enumerate() {
            let base = p as usize * ncon;
            for (load, w) in self.loads[base..base + ncon]
                .iter_mut()
                .zip(g.vwgts(v as u32))
            {
                *load += w;
            }
        }
        self.fullness.clear();
        self.fullness.resize(k as usize, 0.0);
        for p in 0..k {
            self.update_fullness(p);
        }
    }

    fn update_fullness(&mut self, p: u32) {
        let base = p as usize * self.ncon;
        self.fullness[p as usize] = (0..self.ncon)
            .map(|c| self.loads[base + c] as f64 / self.targets[base + c])
            .fold(0.0, f64::max);
    }

    /// Add vertex `v`'s weights to partition `p`.
    #[inline]
    pub fn add(&mut self, g: &CsrGraph, p: u32, v: u32) {
        let base = p as usize * self.ncon;
        for (c, &w) in g.vwgts(v).iter().enumerate() {
            self.loads[base + c] += w;
        }
        self.update_fullness(p);
    }

    /// Remove vertex `v`'s weights from partition `p`.
    #[inline]
    pub fn remove(&mut self, g: &CsrGraph, p: u32, v: u32) {
        let base = p as usize * self.ncon;
        for (c, &w) in g.vwgts(v).iter().enumerate() {
            self.loads[base + c] -= w;
        }
        self.update_fullness(p);
    }

    /// Fullness of partition `p`: max over constraints of load/target.
    #[inline]
    pub fn fullness(&self, p: u32) -> f64 {
        self.fullness[p as usize]
    }

    /// Fullness of `p` if vertex `v` were added.
    #[inline]
    pub fn fullness_with(&self, g: &CsrGraph, p: u32, v: u32) -> f64 {
        let base = p as usize * self.ncon;
        g.vwgts(v)
            .iter()
            .enumerate()
            .map(|(c, &w)| (self.loads[base + c] + w) as f64 / self.targets[base + c])
            .fold(0.0, f64::max)
    }
}

/// Greedy growing k-way initial partition.
pub fn greedy_growing(g: &CsrGraph, k: u32, seed: u64) -> Partition {
    let n = g.n();
    assert!(k >= 1);
    if k == 1 {
        return Partition {
            k,
            assignment: vec![0; n as usize],
        };
    }
    if n <= k {
        // One vertex per partition; extra partitions stay empty.
        return Partition {
            k,
            assignment: (0..n).collect(),
        };
    }

    const UNASSIGNED: u32 = u32::MAX;
    let mut part = vec![UNASSIGNED; n as usize];
    let mut tracker = LoadTracker::default();
    tracker.reset(g, k, None, &[]);
    let mut rng = CounterRng::from_key(&[seed, 0x1417]);

    // Vertices by descending degree: good seeds first.
    let mut by_degree: Vec<u32> = (0..n).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut seed_cursor = 0usize;

    for p in 0..k - 1 {
        // Pick the highest-degree unassigned vertex as seed.
        while seed_cursor < by_degree.len() && part[by_degree[seed_cursor] as usize] != UNASSIGNED {
            seed_cursor += 1;
        }
        let Some(&sv) = by_degree.get(seed_cursor) else {
            break;
        };
        // Max-heap of (connection weight to region, tie-break rand, vertex).
        let mut frontier: BinaryHeap<(u64, u64, u32)> = BinaryHeap::new();
        frontier.push((0, rng.uniform_u64(u64::MAX), sv));
        while tracker.fullness(p) < 1.0 {
            let Some((_, _, v)) = frontier.pop() else {
                break;
            };
            if part[v as usize] != UNASSIGNED {
                continue;
            }
            part[v as usize] = p;
            tracker.add(g, p, v);
            for (u, w) in g.neighbors(v) {
                if part[u as usize] == UNASSIGNED {
                    frontier.push((w as u64, rng.uniform_u64(u64::MAX), u));
                }
            }
        }
    }

    // Leftovers (including everything destined for the last partition):
    // heaviest-first onto the least-full partition. A lazy min-heap keyed
    // by fullness keeps this O((n + k) log k) — the paper partitions into
    // up to 196,608 parts, so a linear scan per vertex would be quadratic.
    let mut leftovers: Vec<u32> = (0..n).filter(|&v| part[v as usize] == UNASSIGNED).collect();
    leftovers.sort_by_key(|&v| std::cmp::Reverse(g.vwgts(v).iter().copied().max().unwrap_or(0)));
    // Heap of (Reverse(fullness as sortable bits), partition); entries go
    // stale after other insertions and are re-validated on pop.
    let key = |f: f64| -> u64 { (f.max(0.0) * 1e12) as u64 };
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = (0..k)
        .map(|p| std::cmp::Reverse((key(tracker.fullness(p)), p)))
        .collect();
    for v in leftovers {
        let p = loop {
            let std::cmp::Reverse((stale, p)) = heap.pop().expect("heap never empties");
            let current = key(tracker.fullness(p));
            if current <= stale {
                break p;
            }
            heap.push(std::cmp::Reverse((current, p)));
        };
        part[v as usize] = p;
        tracker.add(g, p, v);
        heap.push(std::cmp::Reverse((key(tracker.fullness(p)), p)));
    }

    Partition {
        k,
        assignment: part,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure2_example, GraphBuilder};
    use crate::metrics::{imbalances, partition_loads};

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
    fn all_vertices_assigned() {
        let g = grid_graph(12);
        let p = greedy_growing(&g, 4, 1);
        p.validate().unwrap();
        assert_eq!(p.assignment.len(), 144);
    }

    #[test]
    fn balance_on_uniform_grid() {
        let g = grid_graph(16);
        let p = greedy_growing(&g, 4, 3);
        let loads = partition_loads(&g, &p);
        let imb = imbalances(&g, &p);
        assert!(imb[0] < 1.25, "imbalance {} loads {loads:?}", imb[0]);
    }

    #[test]
    fn k_equals_one() {
        let g = grid_graph(4);
        let p = greedy_growing(&g, 1, 1);
        assert!(p.assignment.iter().all(|&x| x == 0));
    }

    #[test]
    fn k_ge_n_gives_identity_prefix() {
        let g = grid_graph(2);
        let p = greedy_growing(&g, 16, 1);
        p.validate().unwrap();
        assert_eq!(p.assignment, vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_constraints_both_balanced() {
        // Vertices heavy in constraint 0 (even ids) vs constraint 1 (odd).
        let mut b = GraphBuilder::new(64, 2);
        for v in 0..64u32 {
            if v % 2 == 0 {
                b.set_vwgt(v, &[10, 1]);
            } else {
                b.set_vwgt(v, &[1, 10]);
            }
        }
        for v in 0..63 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        let p = greedy_growing(&g, 4, 5);
        let imb = imbalances(&g, &p);
        assert!(imb[0] < 1.5 && imb[1] < 1.5, "imbalances {imb:?}");
    }

    #[test]
    fn figure2_load_optimal_is_reachable() {
        // With the heavy vertex alone, max load per partition is 8 —
        // greedy growing should land at most a whisker above that.
        let g = figure2_example();
        let p = greedy_growing(&g, 5, 11);
        let loads = partition_loads(&g, &p);
        let max = loads.iter().map(|l| l[0]).max().unwrap();
        assert!(max <= 10, "max load {max} (caption's two options: 8 or 10)");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid_graph(10);
        let a = greedy_growing(&g, 5, 42);
        let b = greedy_growing(&g, 5, 42);
        assert_eq!(a.assignment, b.assignment);
    }
}
