//! Heavy-edge matching (HEM) coarsening.
//!
//! The classic multilevel first phase (Karypis & Kumar): repeatedly contract
//! a matching that prefers heavy edges, so that the edge weight hidden
//! inside coarse vertices — weight refinement can no longer cut — is
//! maximized. [`contract`] takes any cluster map, so a caller can also
//! build a first level of its own ([`crate::kway::kway_partition_from`]).

use crate::graph::CsrGraph;
use ptts::CounterRng;

/// One coarsening level: the coarse graph and the fine→coarse vertex map.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The contracted graph.
    pub graph: CsrGraph,
    /// `map[v_fine] = v_coarse`.
    pub map: Vec<u32>,
}

/// Contract one heavy-edge matching. Returns `None` when the graph shrank
/// by less than 10% (coarsening has stalled, e.g. a star graph).
pub fn coarsen_once(g: &CsrGraph, seed: u64) -> Option<CoarseLevel> {
    let n = g.n();
    if n < 2 {
        return None;
    }
    // Random visitation order for matching (deterministic via seed).
    let mut order: Vec<u32> = (0..n).collect();
    let mut rng = CounterRng::from_key(&[seed, 0xC0A5]);
    // Fisher–Yates.
    for i in (1..n as usize).rev() {
        let j = rng.uniform_u64((i + 1) as u64) as usize;
        order.swap(i, j);
    }

    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n as usize];
    for &v in &order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(u32, u32)> = None;
        for (u, w) in g.neighbors(v) {
            if mate[u as usize] == UNMATCHED && u != v {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((u, w)),
                }
            }
        }
        match best {
            Some((u, _)) => {
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
            None => mate[v as usize] = v, // matched with itself
        }
    }

    let (map, coarse_n) = coarse_ids(&mate);
    if (coarse_n as f64) > 0.9 * n as f64 {
        return None;
    }
    Some(CoarseLevel {
        graph: contract(g, &map, coarse_n),
        map,
    })
}

/// Coarse ids for a matching (`mate[v] == v` for a singleton): one per
/// pair, ascending in the pair's smaller member. Returns the fine→coarse
/// map and the number of coarse vertices, as [`contract`] takes them.
fn coarse_ids(mate: &[u32]) -> (Vec<u32>, u32) {
    let mut map = vec![0u32; mate.len()];
    let mut next = 0u32;
    for (v, &m) in mate.iter().enumerate() {
        if v as u32 <= m {
            map[v] = next;
            map[m as usize] = next;
            next += 1;
        }
    }
    (map, next)
}

/// The graph `g` becomes when every vertex `v` merges into cluster
/// `map[v]` (`< coarse_n`): vertex weights add per constraint, parallel
/// edges add (saturating), edges inside a cluster vanish.
///
/// Built as a transpose: cluster `c`, taken in ascending order with its
/// members in ascending vertex order, appends itself to the list of every
/// neighbouring cluster `d`, so each list fills in ascending id order
/// ([`CsrGraph`]'s invariant) and a repeated `(c, d)` is always the entry
/// last written to `d`'s list. Lists start at upper-bound offsets (the
/// members' fine degrees) and are closed up afterwards: O(m), no sort, no
/// per-vertex allocation.
pub fn contract(g: &CsrGraph, map: &[u32], coarse_n: u32) -> CsrGraph {
    let ncon = g.ncon();
    let coarse_n = coarse_n as usize;
    let mut vwgt = vec![0u64; coarse_n * ncon];
    // `xadj[c]` is where c's list starts, `fill[c]` where its next entry
    // goes; `first[c]..first[c + 1]` are c's members in `members`.
    let mut xadj = vec![0u32; coarse_n + 1];
    let mut first = vec![0u32; coarse_n + 1];
    for v in 0..g.n() {
        let c = map[v as usize] as usize;
        xadj[c + 1] += g.degree(v);
        first[c + 1] += 1;
        for (acc, w) in vwgt[c * ncon..(c + 1) * ncon].iter_mut().zip(g.vwgts(v)) {
            *acc += w;
        }
    }
    for c in 0..coarse_n {
        xadj[c + 1] += xadj[c];
        first[c + 1] += first[c];
    }
    let mut members = vec![0u32; g.n() as usize];
    let mut fill = first[..coarse_n].to_vec();
    for v in 0..g.n() {
        let at = &mut fill[map[v as usize] as usize];
        members[*at as usize] = v;
        *at += 1;
    }
    fill.copy_from_slice(&xadj[..coarse_n]);
    let mut adjncy = vec![0u32; xadj[coarse_n] as usize];
    let mut adjwgt = vec![0u32; xadj[coarse_n] as usize];
    for c in 0..coarse_n {
        for &member in &members[first[c] as usize..first[c + 1] as usize] {
            for (u, w) in g.neighbors(member) {
                let d = map[u as usize] as usize;
                if d == c {
                    continue;
                }
                let at = fill[d] as usize;
                if at > xadj[d] as usize && adjncy[at - 1] == c as u32 {
                    adjwgt[at - 1] = adjwgt[at - 1].saturating_add(w);
                } else {
                    adjncy[at] = c as u32;
                    adjwgt[at] = w;
                    fill[d] += 1;
                }
            }
        }
    }
    // Close the gaps the upper bound left between lists.
    let mut end = 0usize;
    for c in 0..coarse_n {
        let (lo, hi) = (xadj[c] as usize, fill[c] as usize);
        adjncy.copy_within(lo..hi, end);
        adjwgt.copy_within(lo..hi, end);
        xadj[c] = end as u32;
        end += hi - lo;
    }
    xadj[coarse_n] = end as u32;
    adjncy.truncate(end);
    adjncy.shrink_to_fit();
    adjwgt.truncate(end);
    adjwgt.shrink_to_fit();
    CsrGraph::from_parts(ncon, xadj, adjncy, adjwgt, vwgt)
}

/// A level that keeps more than this share of the last kept level's edges
/// is folded into the next level (see [`coarsen_to`]).
const FOLD_EDGE_SHARE: f64 = 0.9;

/// Coarsen until at most `target_n` vertices remain or progress stalls.
/// Returns the levels from finest to coarsest; each map takes the previous
/// returned level's vertices (`g`'s for the first) to its own. Every level
/// is built by [`CsrGraph::from_parts`], which validates it in debug builds.
///
/// A level that sheds less than 10% of the edges of the last level kept
/// (HEM on a hub-heavy graph merges many vertices and few edges) is folded
/// unless it is the coarsest: the next level is matched and contracted from
/// it as usual, then its map is composed into the next one's and its graph
/// is freed. So every returned graph is the one the unfolded chain of
/// [`coarsen_once`] builds at that size, and a V-cycle neither holds nor
/// refines a near-copy of the level above it.
pub fn coarsen_to(g: &CsrGraph, target_n: u32, seed: u64) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut folding: Option<CoarseLevel> = None;
    for round in 0u64.. {
        let current = folding.as_ref().or(levels.last()).map_or(g, |l| &l.graph);
        if current.n() <= target_n {
            break;
        }
        let Some(mut level) = coarsen_once(current, seed.wrapping_add(round)) else {
            break;
        };
        if let Some(CoarseLevel { mut map, .. }) = folding.take() {
            map.iter_mut().for_each(|c| *c = level.map[*c as usize]);
            level.map = map;
        }
        let kept_m = levels.last().map_or(g, |l| &l.graph).m();
        if level.graph.m() as f64 > FOLD_EDGE_SHARE * kept_m as f64 {
            folding = Some(level);
        } else {
            levels.push(level);
        }
    }
    levels.extend(folding);
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure2_example, GraphBuilder};
    use proptest::prelude::*;

    fn grid(side: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(side * side, 1);
        for v in 0..side * side {
            b.set_vwgt(v, &[1]);
            if v % side + 1 < side {
                b.add_edge(v, v + 1, 1);
            }
            if v + side < side * side {
                b.add_edge(v, v + side, 1);
            }
        }
        b.build()
    }

    fn path_graph(n: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(n, 1);
        for v in 0..n {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..n - 1 {
            b.add_edge(v, v + 1, 1);
        }
        b.build()
    }

    #[test]
    fn weights_conserved_across_levels() {
        let g = path_graph(64);
        let levels = coarsen_to(&g, 8, 1);
        assert!(!levels.is_empty());
        for level in &levels {
            level.graph.validate().unwrap();
        }
        let coarsest = &levels.last().unwrap().graph;
        assert_eq!(coarsest.total_weights(), g.total_weights());
        assert!(coarsest.n() <= 12, "coarsest n = {}", coarsest.n());
    }

    #[test]
    fn map_is_total_and_in_range() {
        let g = path_graph(33);
        let level = coarsen_once(&g, 2).unwrap();
        assert_eq!(level.map.len(), 33);
        let cn = level.graph.n();
        assert!(level.map.iter().all(|&c| c < cn));
        // Every coarse vertex has at least one fine vertex.
        let mut seen = vec![false; cn as usize];
        for &c in &level.map {
            seen[c as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn matching_halves_path_graph() {
        let g = path_graph(100);
        let level = coarsen_once(&g, 3).unwrap();
        // A path admits a near-perfect matching.
        assert!(level.graph.n() <= 66, "coarse n = {}", level.graph.n());
    }

    #[test]
    fn star_graph_stalls_gracefully() {
        // A star only admits one matched pair per round; shrinkage is
        // 1/n and coarsening must refuse rather than loop forever.
        let mut b = GraphBuilder::new(50, 1);
        for v in 0..50 {
            b.set_vwgt(v, &[1]);
        }
        for v in 1..50 {
            b.add_edge(0, v, 1);
        }
        let g = b.build();
        let levels = coarsen_to(&g, 4, 7);
        // Must terminate; the coarsest graph keeps total weight.
        if let Some(last) = levels.last() {
            assert_eq!(last.graph.total_weights(), g.total_weights());
        }
    }

    #[test]
    fn edge_weight_accumulates_on_contraction() {
        // Triangle with unit weights: contracting one edge produces a
        // single vertex pair joined by weight 2.
        let mut b = GraphBuilder::new(3, 1);
        for v in 0..3 {
            b.set_vwgt(v, &[1]);
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(0, 2, 1);
        let g = b.build();
        let level = coarsen_once(&g, 1).unwrap();
        assert_eq!(level.graph.n(), 2);
        assert_eq!(level.graph.total_edge_weight(), 2);
    }

    #[test]
    fn multiconstraint_weights_summed() {
        let mut b = GraphBuilder::new(4, 2);
        for v in 0..4 {
            b.set_vwgt(v, &[v as u64 + 1, 10 * (v as u64 + 1)]);
        }
        b.add_edge(0, 1, 5);
        b.add_edge(2, 3, 5);
        let g = b.build();
        let level = coarsen_once(&g, 1).unwrap();
        assert_eq!(level.graph.n(), 2);
        assert_eq!(level.graph.total_weights(), vec![10, 100]);
    }

    #[test]
    fn figure2_coarsens_validly() {
        let g = figure2_example();
        let levels = coarsen_to(&g, 4, 9);
        for l in &levels {
            l.graph.validate().unwrap();
        }
    }

    /// The contraction this module replaced: hand every surviving fine
    /// edge to `GraphBuilder` and let it sort and merge.
    fn contract_reference(g: &CsrGraph, map: &[u32], coarse_n: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(coarse_n, g.ncon());
        for v in 0..g.n() {
            for (c, &w) in g.vwgts(v).iter().enumerate() {
                b.add_vwgt(map[v as usize], c, w);
            }
            for (u, w) in g.neighbors(v) {
                if v < u {
                    b.add_edge(map[v as usize], map[u as usize], w);
                }
            }
        }
        b.build()
    }

    /// Contract `g` along `mate` both ways and compare everything:
    /// structure, edge and vertex weights, neighbour order.
    fn assert_matches_reference(g: &CsrGraph, mate: &[u32]) {
        let (map, coarse_n) = coarse_ids(mate);
        assert_clusters_match_reference(g, &map, coarse_n);
    }

    /// Contract `g` along any cluster map both ways and compare
    /// everything; also check per-constraint vertex weights cluster by
    /// cluster and that no edge inside a cluster survives.
    fn assert_clusters_match_reference(g: &CsrGraph, map: &[u32], coarse_n: u32) {
        let direct = contract(g, map, coarse_n);
        direct.validate().unwrap();
        assert_eq!(direct, contract_reference(g, map, coarse_n));
        assert_eq!(direct.total_weights(), g.total_weights());
        let mut want = vec![0u64; coarse_n as usize * g.ncon()];
        for v in 0..g.n() {
            for (c, &w) in g.vwgts(v).iter().enumerate() {
                want[map[v as usize] as usize * g.ncon() + c] += w;
            }
        }
        for c in 0..coarse_n {
            assert_eq!(direct.vwgts(c), &want[c as usize * g.ncon()..][..g.ncon()]);
            assert!(direct.neighbors(c).all(|(d, _)| d != c), "self-loop at {c}");
        }
    }

    /// A random matching along edges of `g`: each vertex, in id order,
    /// pairs with one of its still-free neighbours or stays single.
    fn random_matching(g: &CsrGraph, rng: &mut CounterRng) -> Vec<u32> {
        let mut mate: Vec<u32> = (0..g.n()).collect();
        for v in 0..g.n() {
            let free: Vec<u32> = g
                .neighbors(v)
                .map(|(u, _)| u)
                .filter(|&u| mate[v as usize] == v && mate[u as usize] == u)
                .collect();
            if !free.is_empty() && rng.uniform_u64(4) != 0 {
                let u = free[rng.uniform_u64(free.len() as u64) as usize];
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
        }
        mate
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Direct contraction `==` the `GraphBuilder` reference for random
        /// graphs (isolated vertices, parallel input edges, near-saturating
        /// weights) and random matchings.
        #[test]
        fn contraction_equals_builder_reference(
            n in 1u32..48,
            ncon in 1usize..4,
            edges in collection::vec((0u32..48, 0u32..48, 0u32..6), 0..160),
            seed in 0u64..1_000_000,
        ) {
            let mut rng = CounterRng::from_key(&[seed]);
            let mut b = GraphBuilder::new(n, ncon);
            for v in 0..n {
                for c in 0..ncon {
                    b.add_vwgt(v, c, rng.uniform_u64(9));
                }
            }
            for (u, v, w) in edges {
                // One weight in six is heavy enough that merging it with
                // almost any other edge passes `u32::MAX`.
                let w = if w == 0 { u32::MAX - 2 } else { w };
                b.add_edge(u % n, v % n, w);
            }
            let g = b.build();
            assert_matches_reference(&g, &random_matching(&g, &mut rng));
        }

        /// The same for random cluster maps: singletons, clusters of any
        /// size (the whole graph included), clusters that are not
        /// connected, isolated and zero-weight vertices, empty clusters,
        /// and parallel edges merged across clusters.
        #[test]
        fn cluster_contraction_equals_builder_reference(
            n in 1u32..48,
            ncon in 1usize..4,
            coarse_n in 1u32..48,
            edges in collection::vec((0u32..48, 0u32..48, 0u32..6), 0..160),
            seed in 0u64..1_000_000,
        ) {
            let mut rng = CounterRng::from_key(&[seed, 1]);
            let mut b = GraphBuilder::new(n, ncon);
            for v in 0..n {
                for c in 0..ncon {
                    // One weight in three is zero.
                    b.add_vwgt(v, c, rng.uniform_u64(9).saturating_sub(3));
                }
            }
            for (u, v, w) in edges {
                let w = if w == 0 { u32::MAX - 2 } else { w };
                b.add_edge(u % n, v % n, w);
            }
            let g = b.build();
            let map: Vec<u32> = (0..n)
                .map(|_| rng.uniform_u64(coarse_n as u64) as u32)
                .collect();
            assert_clusters_match_reference(&g, &map, coarse_n);
        }
    }

    #[test]
    fn hub_and_shared_neighbours_contract_like_the_reference() {
        // Two 5000-neighbour hubs over the same leaves, matched with each
        // other: every coarse edge merges one edge from each mate.
        let leaves = 5_000u32;
        let mut b = GraphBuilder::new(leaves + 2, 2);
        for v in 0..leaves + 2 {
            b.set_vwgt(v, &[1, v as u64 % 3]);
        }
        b.add_edge(0, 1, 7);
        for leaf in 2..leaves + 2 {
            b.add_edge(0, leaf, 1 + leaf % 4);
            b.add_edge(1, leaf, 2);
        }
        let g = b.build();
        let mut mate: Vec<u32> = (0..g.n()).collect();
        mate.swap(0, 1);
        assert_matches_reference(&g, &mate);
        // One hub matched with a leaf instead, the other single.
        let mut mate: Vec<u32> = (0..g.n()).collect();
        mate.swap(0, 4_000);
        assert_matches_reference(&g, &mate);
    }

    #[test]
    fn merged_parallel_edges_saturate() {
        // 0 and 1 merge; both reach 2 with weights that sum past u32::MAX.
        let mut b = GraphBuilder::new(4, 1);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, u32::MAX - 1);
        b.add_edge(1, 2, 5);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let mate = vec![1, 0, 2, 3];
        assert_matches_reference(&g, &mate);
        let (map, coarse_n) = coarse_ids(&mate);
        let coarse = contract(&g, &map, coarse_n);
        assert_eq!(coarse.neighbors(0).collect::<Vec<_>>(), [(1, u32::MAX)]);
    }

    #[test]
    fn clusters_of_any_size_contract_like_the_reference() {
        // 0..=3 form one cluster (with 4, which is isolated and weighs
        // nothing), 5 and 6 stay single, 7 and 8 pair up; 0, 1 and 2 all
        // reach 5, so three fine edges merge into one.
        let mut b = GraphBuilder::new(9, 2);
        for v in 0..9u32 {
            b.set_vwgt(v, &[u64::from(v != 4), u64::from(v % 3)]);
        }
        for (u, v, w) in [(0, 1, 4), (1, 2, 1), (2, 3, 9), (0, 5, 1), (1, 5, 2)] {
            b.add_edge(u, v, w);
        }
        for (u, v, w) in [(2, 5, 3), (3, 6, 1), (5, 7, 2), (6, 8, 5), (7, 8, 1)] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let map = [0, 0, 0, 0, 0, 1, 2, 3, 3];
        assert_clusters_match_reference(&g, &map, 4);
        let coarse = contract(&g, &map, 4);
        assert_eq!(coarse.neighbors(0).collect::<Vec<_>>(), [(1, 6), (2, 1)]);
        assert_eq!(coarse.vwgts(0), [4, 4]);
    }

    /// The unfolded chain: [`coarsen_once`] repeated with [`coarsen_to`]'s
    /// seeds and stop rules, every level kept.
    fn unfolded_chain(g: &CsrGraph, target_n: u32, seed: u64) -> Vec<CoarseLevel> {
        let mut levels: Vec<CoarseLevel> = Vec::new();
        for round in 0u64.. {
            let current = levels.last().map_or(g, |l| &l.graph);
            if current.n() <= target_n {
                break;
            }
            let Some(level) = coarsen_once(current, seed.wrapping_add(round)) else {
                break;
            };
            levels.push(level);
        }
        levels
    }

    /// Check `coarsen_to` against the unfolded chain: each returned graph
    /// is the chain's graph of the same size, bit for bit; each map is the
    /// composition of the chain's maps from the level kept before it;
    /// weights are conserved; and every level but the coarsest sheds at
    /// least 10% of the last kept level's edges. Returns the levels folded.
    fn assert_folds_the_chain(g: &CsrGraph, target_n: u32, seed: u64) -> usize {
        let chain = unfolded_chain(g, target_n, seed);
        let kept = coarsen_to(g, target_n, seed);
        let mut steps = chain.iter();
        let mut fine = g;
        for (i, level) in kept.iter().enumerate() {
            let mut map: Vec<u32> = (0..fine.n()).collect();
            let same = loop {
                let step = steps.next().expect("a kept level the chain never built");
                map.iter_mut().for_each(|c| *c = step.map[*c as usize]);
                if step.graph.n() == level.graph.n() {
                    break step;
                }
            };
            assert_eq!(level.graph, same.graph, "level {i}");
            assert_eq!(level.map, map, "level {i}");
            assert_eq!(level.graph.total_weights(), g.total_weights());
            if i + 1 < kept.len() {
                let (m, kept_m) = (level.graph.m() as f64, fine.m() as f64);
                assert!(
                    m <= FOLD_EDGE_SHARE * kept_m,
                    "level {i}: {m} of {kept_m} edges"
                );
            }
            fine = &level.graph;
        }
        assert!(
            steps.next().is_none(),
            "the chain coarsened past the last kept level"
        );
        chain.len() - kept.len()
    }

    /// `hubs` vertices joined to about half of all the others each, over
    /// random edges of mean degree `degree`. Once that passes 10 on a graph
    /// sparse enough that a matched pair rarely shares a neighbour, HEM
    /// merges many vertices and sheds few edges, as on the location graph.
    fn hub_graph(n: u32, ncon: usize, hubs: u32, degree: u32, rng: &mut CounterRng) -> CsrGraph {
        let mut b = GraphBuilder::new(n, ncon);
        for v in 0..n {
            for c in 0..ncon {
                b.add_vwgt(v, c, 1 + rng.uniform_u64(4));
            }
        }
        for hub in 0..hubs.min(n) {
            for v in 0..n {
                if v != hub && rng.uniform_u64(2) == 0 {
                    b.add_edge(hub, v, 1 + rng.uniform_u64(3) as u32);
                }
            }
        }
        for _ in 0..n * degree / 2 {
            let (u, v) = (rng.uniform_u64(n as u64), rng.uniform_u64(n as u64));
            b.add_edge(u as u32, v as u32, 1 + rng.uniform_u64(5) as u32);
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Folding drops levels and never changes one it keeps.
        #[test]
        fn folding_keeps_the_chains_levels(
            n in 2u32..2_000,
            ncon in 1usize..3,
            hubs in 0u32..4,
            degree in 0u32..32,
            target_n in 1u32..40,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = CounterRng::from_key(&[seed, 2]);
            let g = hub_graph(n, ncon, hubs, degree, &mut rng);
            assert_folds_the_chain(&g, target_n, seed);
        }
    }

    #[test]
    fn a_hub_heavy_graph_folds_and_the_pinned_graphs_do_not() {
        let mut rng = CounterRng::from_key(&[3]);
        let hubs = hub_graph(10_000, 2, 4, 24, &mut rng);
        assert!(assert_folds_the_chain(&hubs, 16, 5) >= 2);
        let mut star = GraphBuilder::new(601, 1);
        for v in 1..601 {
            star.add_edge(0, v, 1 + v % 3);
        }
        for (name, g) in [
            ("grid", grid(48)),
            ("star", star.build()),
            ("figure 2", figure2_example()),
        ] {
            for target_n in [1, 4, 256] {
                assert_eq!(assert_folds_the_chain(&g, target_n, 11), 0, "{name}");
            }
        }
    }

    #[test]
    fn every_level_of_a_real_hierarchy_matches_the_reference() {
        // The driver's own matchings on a two-constraint random graph.
        let n = 2_000u32;
        let mut rng = CounterRng::from_key(&[5]);
        let mut b = GraphBuilder::new(n, 2);
        for v in 0..n {
            b.set_vwgt(v, &[1 + rng.uniform_u64(4), rng.uniform_u64(3)]);
            for _ in 0..3 {
                b.add_edge(v, rng.uniform_u64(n as u64) as u32, 1);
            }
        }
        let g = b.build();
        let levels = coarsen_to(&g, 32, 3);
        assert!(levels.len() >= 4, "only {} levels", levels.len());
        let mut fine = &g;
        for level in &levels {
            assert_eq!(
                level.graph,
                contract_reference(fine, &level.map, level.graph.n())
            );
            fine = &level.graph;
        }
    }
}
