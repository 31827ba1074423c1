//! Greedy boundary refinement with multi-constraint balance.
//!
//! After each uncoarsening step the projected partition is improved by
//! moving boundary vertices between partitions. A move is accepted when it
//! reduces the edge cut without violating the balance limit, or when it
//! strictly improves the worst fullness (balance moves). This is the
//! k-way analogue of Fiduccia–Mattheyses used by METIS's refinement phase.
//! As in METIS, a vertex is judged from its *row*, its connectivity to each
//! partition its neighbours lie in: tallied once a call, updated by moves.

use crate::graph::CsrGraph;
use crate::initpart::LoadTracker;
use crate::Partition;
use ptts::CounterRng;

/// Full passes over the vertices per refinement call, at most; a pass
/// that moves nothing ends the call early.
pub const MAX_PASSES: u32 = 8;

/// Refinement parameters.
#[derive(Debug, Clone, Copy)]
pub struct RefineConfig {
    /// Balance limit: a partition may hold up to `ubfactor ×` the average
    /// load per constraint (METIS's default is 1.03–1.05; heavy-tailed
    /// graphs need more slack).
    pub ubfactor: f64,
    /// RNG seed for visitation order.
    pub seed: u64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            ubfactor: 1.05,
            seed: 1,
        }
    }
}

/// A row entry: `edges` of the vertex's edges, weighing `weight`, reach `part`.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    part: u32,
    edges: u32,
    weight: u64,
}

/// The buffers of one refinement call. A driver that refines at every
/// level of a V-cycle (or bisection) keeps one and passes it to each call,
/// so they are allocated once at the largest graph's size.
#[derive(Debug, Default)]
pub struct RefineScratch {
    tracker: LoadTracker,
    /// Visitation order, reshuffled every pass.
    order: Vec<u32>,
    /// `settled[v]`: when `v` was last examined, its own partition held
    /// strictly more of its edge weight than any other, and neither `v`
    /// nor a neighbour has moved since. Such a vertex (every interior
    /// vertex is one) can only leave an overloaded partition, so otherwise
    /// it is passed over without reading its row.
    settled: Vec<bool>,
    /// The rows, pooled: `v`'s is `links[at..at + len]` for `(at, len) =
    /// span[v]`, one link per partition an edge of `v` leads into, unordered.
    /// Its capacity `min(deg v, k)` keeps the pool O(m) at any k.
    links: Vec<Link>,
    span: Vec<(u32, u32)>,
    /// Per partition: its link's index while a row is tallied, else
    /// `u32::MAX`. `ties`: the candidates tied for the best move.
    slot: Vec<u32>,
    ties: Vec<u32>,
}

/// Refine `p` in place. Returns the total cut improvement achieved.
pub fn refine(g: &CsrGraph, p: &mut Partition, cfg: &RefineConfig) -> u64 {
    refine_targets(g, p, cfg, None, &mut RefineScratch::default())
}

/// Like [`refine`] but with optional per-partition target fractions of the
/// total weight (recursive bisection refines 2-way cuts with unequal
/// sides; `None` means uniform) and caller-kept buffers.
pub fn refine_targets(
    g: &CsrGraph,
    p: &mut Partition,
    cfg: &RefineConfig,
    fractions: Option<&[f64]>,
    scratch: &mut RefineScratch,
) -> u64 {
    let n = g.n();
    let k = p.k;
    if k <= 1 || n == 0 {
        return 0;
    }
    let RefineScratch {
        tracker,
        order,
        settled,
        links,
        span,
        slot,
        ties,
    } = scratch;
    tracker.reset(g, k, fractions, &p.assignment);
    order.clear();
    order.extend(0..n);
    settled.clear();
    settled.resize(n as usize, false);
    slot.resize(k as usize, u32::MAX);
    span.clear();
    links.clear();
    for v in 0..n {
        let at = links.len();
        for (u, w) in g.neighbors(v) {
            let part = p.assignment[u as usize] as usize;
            if slot[part] == u32::MAX {
                slot[part] = links.len() as u32;
                links.push(Link::default());
            }
            let link = &mut links[slot[part] as usize];
            (link.part, link.edges, link.weight) =
                (part as u32, link.edges + 1, link.weight + w as u64);
        }
        links[at..]
            .iter()
            .for_each(|l| slot[l.part as usize] = u32::MAX);
        span.push((at as u32, (links.len() - at) as u32));
        links.resize(at + g.degree(v).min(k) as usize, Link::default());
    }

    let mut rng = CounterRng::from_key(&[cfg.seed, 0x0EF1]);
    let mut total_improvement = 0u64;

    for _ in 0..MAX_PASSES {
        // Shuffle visitation order each pass.
        for i in (1..n as usize).rev() {
            let j = rng.uniform_u64((i + 1) as u64) as usize;
            order.swap(i, j);
        }
        let mut pass_improvement = 0u64;
        let mut moved = false;
        // Least-full partition at pass start: the escape hatch for
        // *internal* vertices of overloaded partitions (e.g. a partition
        // holding the entire graph), which have no boundary candidates.
        let lightest = (0..k)
            .min_by(|&a, &b| {
                tracker
                    .fullness(a)
                    .partial_cmp(&tracker.fullness(b))
                    .unwrap()
            })
            .unwrap_or(0);

        for &v in order.iter() {
            let from = p.assignment[v as usize];
            let from_fullness = tracker.fullness(from);
            let overloaded = from_fullness > cfg.ubfactor;
            if settled[v as usize] && !overloaded {
                continue;
            }
            let (at, len) = span[v as usize];
            let row = &links[at as usize..][..len as usize];
            let conn_from = row.iter().find(|l| l.part == from).map_or(0, |l| l.weight);

            // Best candidate partition among neighbors (plus the lightest
            // partition when the source is overloaded). An edge into a
            // partition makes it a candidate, whatever the edge's weight.
            let mut best: Option<(u32, i64, f64)> = None; // (to, gain, to_fullness_after)
            let mut contested = false;
            let extra = overloaded && lightest != from && row.iter().all(|l| l.part != lightest);
            let extra = extra.then_some((lightest, 0));
            for (to, conn_to) in row.iter().map(|l| (l.part, l.weight)).chain(extra) {
                if to == from {
                    continue;
                }
                let gain = conn_to as i64 - conn_from as i64;
                if gain < 0 && !overloaded {
                    // A cut-worsening move is only ever taken to drain an
                    // overloaded source; skip the divisions.
                    continue;
                }
                contested |= gain >= 0;
                if best.is_some_and(|(_, bg, _)| gain < bg) {
                    continue; // the key compares gain first: cannot win
                }
                let to_after = tracker.fullness_with(g, to, v);
                let acceptable = if gain > 0 {
                    // Cut-improving: target must stay within the balance
                    // limit, or at least not become worse than the source
                    // already is (min-max fallback for infeasible graphs).
                    to_after <= cfg.ubfactor || to_after < from_fullness
                } else {
                    // Sideways, or cut-worsening out of an overloaded
                    // source: only if the target remains strictly less
                    // full than the source was.
                    to_after < from_fullness - 1e-12
                };
                match best {
                    _ if !acceptable => {}
                    Some((_, bg, bf)) if (bg, -bf) > (gain, -to_after) => {}
                    Some((_, bg, bf)) if (bg, -bf) == (gain, -to_after) => ties.push(to),
                    _ => {
                        best = Some((to, gain, to_after));
                        ties.clear();
                        ties.push(to);
                    }
                }
            }
            let Some((mut to, gain, _)) = best else {
                settled[v as usize] = !contested;
                continue;
            };
            if ties.len() > 1 {
                // Equal keys go to the partition v's neighbours name first,
                // `lightest` last, as in the plain loop; rows lose that order.
                let mut named = g.neighbors(v).map(|(u, _)| p.assignment[u as usize]);
                to = named.find(|pu| ties.contains(pu)).unwrap();
            }
            tracker.remove(g, from, v);
            tracker.add(g, to, v);
            p.assignment[v as usize] = to;
            settled[v as usize] = false;
            for (u, w) in g.neighbors(v) {
                settled[u as usize] = false;
                // Move the edge in u's row from `from` to `to`, removing
                // before adding so that the row never outgrows its capacity.
                let (at, len) = &mut span[u as usize];
                let row = &mut links[*at as usize..][..*len as usize];
                let i = row.iter().position(|l| l.part == from).unwrap();
                (row[i].edges, row[i].weight) = (row[i].edges - 1, row[i].weight - w as u64);
                if row[i].edges == 0 {
                    row.swap(i, *len as usize - 1);
                    *len -= 1;
                }
                let end = (*at + *len) as usize;
                let j = links[*at as usize..end].iter().position(|l| l.part == to);
                let j = j.map_or(end, |j| *at as usize + j);
                if j == end {
                    (links[end].part, links[end].edges, links[end].weight) = (to, 0, 0);
                    *len += 1;
                }
                (links[j].edges, links[j].weight) =
                    (links[j].edges + 1, links[j].weight + w as u64);
            }
            pass_improvement += gain.max(0) as u64;
            moved = true;
        }
        if cfg!(debug_assertions) {
            // Counting v's edges out of a copy of its row, each through
            // `slot` (a partition missing from the row indexes out of
            // bounds), must take every link to zero exactly once.
            for (v, &(at, len)) in (0..n).zip(span.iter()) {
                let mut row = links[at as usize..][..len as usize].to_vec();
                row.iter()
                    .zip(0..)
                    .for_each(|(l, x)| slot[l.part as usize] = x);
                let mut emptied = 0;
                for (u, w) in g.neighbors(v) {
                    let l = &mut row[slot[p.assignment[u as usize] as usize] as usize];
                    (l.edges, l.weight) = (l.edges - 1, l.weight - w as u64);
                    emptied += (l.edges == 0) as u32;
                }
                row.iter().for_each(|l| slot[l.part as usize] = u32::MAX);
                let exact = emptied == len && row.iter().all(|l| l.weight == 0);
                assert!(exact, "refinement row of vertex {v} is stale");
            }
        }
        total_improvement += pass_improvement;
        if !moved {
            break;
        }
    }
    total_improvement
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::metrics::{imbalances, total_edge_cut};
    use proptest::prelude::*;

    fn ring(n: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(n, 1);
        for v in 0..n {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..n {
            b.add_edge(v, (v + 1) % n, 1);
        }
        b.build()
    }

    /// The loop as it was before `settled` and the negative-gain skip:
    /// every vertex walks its adjacency in every pass and every candidate
    /// pays for `fullness_with`. Same shuffle, same tie-breaks.
    fn refine_reference(
        g: &CsrGraph,
        p: &mut Partition,
        cfg: &RefineConfig,
        fractions: Option<&[f64]>,
    ) -> u64 {
        let (n, k) = (g.n(), p.k);
        if k <= 1 || n == 0 {
            return 0;
        }
        let mut tracker = LoadTracker::default();
        tracker.reset(g, k, fractions, &p.assignment);
        let mut rng = CounterRng::from_key(&[cfg.seed, 0x0EF1]);
        let mut order: Vec<u32> = (0..n).collect();
        let mut total_improvement = 0u64;
        for _ in 0..MAX_PASSES {
            for i in (1..n as usize).rev() {
                let j = rng.uniform_u64((i + 1) as u64) as usize;
                order.swap(i, j);
            }
            let mut moved = false;
            let lightest = (0..k)
                .min_by(|&a, &b| {
                    tracker
                        .fullness(a)
                        .partial_cmp(&tracker.fullness(b))
                        .unwrap()
                })
                .unwrap_or(0);
            for &v in &order {
                let from = p.assignment[v as usize];
                let mut conn = vec![0u64; k as usize];
                let mut touched: Vec<u32> = Vec::new();
                for (u, w) in g.neighbors(v) {
                    let pu = p.assignment[u as usize];
                    if conn[pu as usize] == 0 {
                        touched.push(pu);
                    }
                    conn[pu as usize] += w as u64;
                }
                let from_fullness = tracker.fullness(from);
                let overloaded = from_fullness > cfg.ubfactor;
                if touched.iter().all(|&t| t == from) && !overloaded {
                    continue;
                }
                if overloaded && lightest != from && !touched.contains(&lightest) {
                    touched.push(lightest);
                }
                let mut best: Option<(u32, i64, f64)> = None;
                for &to in touched.iter().filter(|&&to| to != from) {
                    let gain = conn[to as usize] as i64 - conn[from as usize] as i64;
                    let to_after = tracker.fullness_with(g, to, v);
                    let acceptable = if gain > 0 {
                        to_after <= cfg.ubfactor || to_after < from_fullness
                    } else if gain == 0 {
                        to_after < from_fullness - 1e-12
                    } else {
                        overloaded && to_after < from_fullness - 1e-12
                    };
                    if acceptable {
                        match best {
                            Some((_, bg, bf)) if (bg, -bf) >= (gain, -to_after) => {}
                            _ => best = Some((to, gain, to_after)),
                        }
                    }
                }
                if let Some((to, gain, _)) = best {
                    tracker.remove(g, from, v);
                    tracker.add(g, to, v);
                    p.assignment[v as usize] = to;
                    total_improvement += gain.max(0) as u64;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        total_improvement
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The row loop takes exactly the moves the plain loop takes, on
        /// random graphs (isolated vertices, zero-weight vertices and
        /// edges, two constraints, k above the largest degree) from random
        /// starting partitions, skewed ones that overload a partition
        /// included, with one scratch reused across calls on a larger and
        /// then a smaller graph the way a driver reuses it.
        #[test]
        fn lean_loop_equals_reference(
            n in 2u32..70,
            ncon in 1usize..3,
            k in 2u32..41,
            skew in 0u32..3,
            edges in collection::vec((0u32..70, 0u32..70, 0u32..5), 0..220),
            ub_step in 0u32..4,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = CounterRng::from_key(&[seed]);
            let fractions: Vec<f64> = (0..k).map(|p| (1 + p % 2) as f64 / k as f64).collect();
            let cfg = RefineConfig { ubfactor: 1.0 + 0.05 * ub_step as f64, seed };
            let mut scratch = RefineScratch::default();
            for n in [n, 1 + n / 3] {
                let mut b = GraphBuilder::new(n, ncon);
                for v in 0..n {
                    for c in 0..ncon {
                        b.add_vwgt(v, c, rng.uniform_u64(5));
                    }
                }
                for &(u, v, w) in &edges {
                    b.add_edge(u % n, v % n, w);
                }
                let g = b.build();
                for fractions in [None, Some(&fractions[..])] {
                    // skew 0: uniform start; otherwise most vertices start
                    // in partition 0, far over any balance limit.
                    let start: Vec<u32> = (0..n)
                        .map(|_| if skew > 0 && rng.uniform_u64(4) != 0 { 0 } else { rng.uniform_u64(k as u64) as u32 })
                        .collect();
                    let mut lean = Partition { k, assignment: start.clone() };
                    let mut plain = Partition { k, assignment: start };
                    let gained = refine_targets(&g, &mut lean, &cfg, fractions, &mut scratch);
                    let expected = refine_reference(&g, &mut plain, &cfg, fractions);
                    prop_assert_eq!(&lean.assignment, &plain.assignment);
                    prop_assert_eq!(gained, expected);
                }
            }
        }
    }

    /// Vertex 0 ends up tied between b = 2, reached through vertex 1,
    /// which moves there from 0's own partition, and a = 1, reached
    /// through vertex 2: equal connection, equal load. The swap-remove
    /// leaves 0's row listing a before b, but its neighbours name b first,
    /// so b wins, whatever order the vertices are visited in.
    #[test]
    fn equal_keys_go_to_the_partition_neighbours_name_first() {
        let mut b = GraphBuilder::new(6, 1);
        b.set_vwgt(0, &[1]);
        for (u, v, w) in [(0, 1, 2), (0, 2, 2), (1, 3, 5), (3, 5, 9), (2, 4, 5)] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let start = vec![0, 0, 1, 2, 1, 2];
        for seed in 0..8 {
            let cfg = RefineConfig {
                seed,
                ..Default::default()
            };
            let mut rows = Partition {
                k: 3,
                assignment: start.clone(),
            };
            let mut plain = rows.clone();
            refine_targets(&g, &mut rows, &cfg, None, &mut RefineScratch::default());
            refine_reference(&g, &mut plain, &cfg, None);
            assert_eq!(rows.assignment, plain.assignment, "seed {seed}");
            assert_eq!(rows.assignment, [2, 2, 1, 2, 1, 2], "seed {seed}");
        }
    }

    #[test]
    fn refinement_reduces_cut_of_scrambled_partition() {
        let g = ring(64);
        // Worst case: alternate partitions → cut = 64.
        let mut p = Partition {
            k: 2,
            assignment: (0..64).map(|v| v % 2).collect(),
        };
        let before = total_edge_cut(&g, &p);
        assert_eq!(before, 64);
        refine(&g, &mut p, &RefineConfig::default());
        let after = total_edge_cut(&g, &p);
        assert!(after < before, "cut {after} !< {before}");
        // Ring bisection optimum is 2; greedy should get close.
        assert!(after <= 8, "cut after refine = {after}");
        // Balance must be maintained.
        let imb = imbalances(&g, &p);
        assert!(imb[0] <= 1.1, "imbalance {}", imb[0]);
    }

    #[test]
    fn refinement_improves_cut_or_balance() {
        let g = ring(40);
        for seed in 0..5u64 {
            let mut rng = CounterRng::from_key(&[seed]);
            let mut p = Partition {
                k: 4,
                assignment: (0..40).map(|_| rng.uniform_u64(4) as u32).collect(),
            };
            let cut_before = total_edge_cut(&g, &p);
            let imb_before = imbalances(&g, &p)[0];
            refine(
                &g,
                &mut p,
                &RefineConfig {
                    seed,
                    ..Default::default()
                },
            );
            let cut_after = total_edge_cut(&g, &p);
            let imb_after = imbalances(&g, &p)[0];
            // Refinement may trade a little cut for balance on unbalanced
            // input, but must never worsen both.
            assert!(
                cut_after <= cut_before || imb_after < imb_before,
                "seed {seed}: cut {cut_before}→{cut_after}, imb {imb_before}→{imb_after}"
            );
            p.validate().unwrap();
        }
    }

    #[test]
    fn balance_moves_fix_overload() {
        // All vertices initially in partition 0 of 2: refinement must move
        // roughly half across even though the cut temporarily dislikes it.
        let g = ring(32);
        let mut p = Partition {
            k: 2,
            assignment: vec![0; 32],
        };
        refine(&g, &mut p, &RefineConfig::default());
        let imb = imbalances(&g, &p);
        assert!(imb[0] < 1.6, "imbalance {} — balance moves failed", imb[0]);
    }

    #[test]
    fn single_partition_noop() {
        let g = ring(8);
        let mut p = Partition {
            k: 1,
            assignment: vec![0; 8],
        };
        assert_eq!(refine(&g, &mut p, &RefineConfig::default()), 0);
    }

    #[test]
    fn multiconstraint_balance_respected() {
        // Two constraints where naive cut-chasing would pile constraint-1
        // weight into one partition.
        let mut b = GraphBuilder::new(32, 2);
        for v in 0..32u32 {
            b.set_vwgt(v, &[1, if v < 16 { 10 } else { 1 }]);
        }
        for v in 0..32 {
            b.add_edge(v, (v + 1) % 32, 1);
        }
        let g = b.build();
        let mut rng = CounterRng::from_key(&[3]);
        let mut p = Partition {
            k: 4,
            assignment: (0..32).map(|_| rng.uniform_u64(4) as u32).collect(),
        };
        refine(&g, &mut p, &RefineConfig::default());
        let imb = imbalances(&g, &p);
        // Constraint 1 is lumpy (half the vertices carry 10×); just require
        // that it did not collapse into a single partition.
        assert!(imb[1] < 2.5, "imbalances {imb:?}");
    }
}
