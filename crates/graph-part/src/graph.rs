//! CSR graphs with multi-constraint vertex weights.
//!
//! The layout mirrors METIS: `xadj`/`adjncy`/`adjwgt` for the structure and
//! a flat `vwgt` array of `ncon` weights per vertex, where each constraint
//! corresponds to one phase of the application's computation (persons /
//! locations in EpiSimdemics).

/// An undirected graph in CSR form with weighted edges and `ncon`
/// weights per vertex.
///
/// **Invariant:** every vertex's neighbour list is in strictly ascending
/// id order (hence duplicate-free), holds no self-loop, and mirrors the
/// list of each neighbour with the same weight. Results rest on the
/// order: heavy-edge matching keeps the *first* of equally heavy
/// neighbours and refinement gives equally good moves to the partition a
/// vertex's neighbours name first, so two graphs that differ only in
/// adjacency order partition differently. [`GraphBuilder::build`]
/// establishes the invariant, [`CsrGraph::from_parts`] requires it, and
/// [`CsrGraph::validate`] checks it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    ncon: usize,
    /// Offsets: neighbors of `v` are `adjncy[xadj[v]..xadj[v+1]]`.
    xadj: Vec<u32>,
    /// Neighbor vertex ids (each undirected edge appears twice).
    adjncy: Vec<u32>,
    /// Edge weights, parallel to `adjncy`.
    adjwgt: Vec<u32>,
    /// Vertex weights, `vwgt[v*ncon + c]`.
    vwgt: Vec<u64>,
}

impl CsrGraph {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> u32 {
        (self.xadj.len() - 1) as u32
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> u64 {
        (self.adjncy.len() / 2) as u64
    }

    /// Number of balance constraints.
    #[inline]
    pub fn ncon(&self) -> usize {
        self.ncon
    }

    /// Neighbors of `v` with edge weights.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (nbrs, wgts) = self.adjacency(v);
        nbrs.iter().copied().zip(wgts.iter().copied())
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Weight of `v` under constraint `c`.
    #[inline]
    pub fn vwgt(&self, v: u32, c: usize) -> u64 {
        self.vwgt[v as usize * self.ncon + c]
    }

    /// All weights of `v`.
    #[inline]
    pub fn vwgts(&self, v: u32) -> &[u64] {
        let base = v as usize * self.ncon;
        &self.vwgt[base..base + self.ncon]
    }

    /// Total weight per constraint.
    pub fn total_weights(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.ncon];
        for v in 0..self.n() {
            for (c, t) in totals.iter_mut().enumerate() {
                *t += self.vwgt(v, c);
            }
        }
        totals
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> u64 {
        self.adjwgt.iter().map(|&w| w as u64).sum::<u64>() / 2
    }

    /// Assemble a graph from CSR arrays laid out as the fields are, for
    /// producers that emit sorted, symmetric adjacency in O(m) themselves
    /// (contraction, the bipartite workload graph) and so have no use for
    /// [`GraphBuilder`]'s sort.
    ///
    /// # Panics
    /// If the array lengths disagree; in debug builds also if the
    /// [type-level invariant](CsrGraph) does not hold.
    pub fn from_parts(
        ncon: usize,
        xadj: Vec<u32>,
        adjncy: Vec<u32>,
        adjwgt: Vec<u32>,
        vwgt: Vec<u64>,
    ) -> CsrGraph {
        assert!(ncon >= 1, "need at least one constraint");
        assert_eq!(xadj.last().map(|&e| e as usize), Some(adjncy.len()));
        assert_eq!(adjncy.len(), adjwgt.len());
        assert_eq!(vwgt.len(), (xadj.len() - 1) * ncon);
        let g = CsrGraph {
            ncon,
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Check the [type-level invariant](CsrGraph): a consistent layout,
    /// strictly ascending neighbour lists without self-loops, symmetric
    /// edges of equal weight. O(m log d), affordable on a full-size world.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        if self.adjncy.len() != self.adjwgt.len() || self.vwgt.len() != n as usize * self.ncon {
            return Err("adjncy/adjwgt/vwgt length mismatch".into());
        }
        if self.xadj[0] != 0
            || self.xadj[n as usize] as usize != self.adjncy.len()
            || self.xadj.windows(2).any(|w| w[0] > w[1])
        {
            return Err("xadj is not a monotone offset array over adjncy".into());
        }
        for v in 0..n {
            let (nbrs, wgts) = self.adjacency(v);
            if let Some(w) = nbrs.windows(2).find(|w| w[0] >= w[1]) {
                return Err(format!(
                    "neighbours of {v} not strictly ascending ({} then {})",
                    w[0], w[1]
                ));
            }
            for (&u, &w) in nbrs.iter().zip(wgts) {
                if u >= n {
                    return Err(format!("edge ({v},{u}) out of range"));
                }
                if u == v {
                    return Err(format!("self-loop at {v}"));
                }
                let (back, back_w) = self.adjacency(u);
                if !back.binary_search(&v).is_ok_and(|i| back_w[i] == w) {
                    return Err(format!("asymmetric edge ({v},{u})"));
                }
            }
        }
        Ok(())
    }

    /// Neighbour ids and edge weights of `v` as parallel slices.
    #[inline]
    fn adjacency(&self, v: u32) -> (&[u32], &[u32]) {
        let lo = self.xadj[v as usize] as usize;
        let hi = self.xadj[v as usize + 1] as usize;
        (&self.adjncy[lo..hi], &self.adjwgt[lo..hi])
    }
}

/// Incremental builder: add undirected edges (duplicates accumulate their
/// weights), then `build()`.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: u32,
    ncon: usize,
    vwgt: Vec<u64>,
    /// (u, v, w) with u < v.
    edges: Vec<(u32, u32, u32)>,
}

impl GraphBuilder {
    /// A builder for `n` vertices with `ncon` constraints; vertex weights
    /// start at zero.
    pub fn new(n: u32, ncon: usize) -> Self {
        assert!(ncon >= 1, "need at least one constraint");
        GraphBuilder {
            n,
            ncon,
            vwgt: vec![0; n as usize * ncon],
            edges: Vec::new(),
        }
    }

    /// Set all weights of vertex `v`.
    pub fn set_vwgt(&mut self, v: u32, weights: &[u64]) {
        assert_eq!(weights.len(), self.ncon);
        let base = v as usize * self.ncon;
        self.vwgt[base..base + self.ncon].copy_from_slice(weights);
    }

    /// Add weight to one constraint of vertex `v`.
    pub fn add_vwgt(&mut self, v: u32, c: usize, w: u64) {
        self.vwgt[v as usize * self.ncon + c] += w;
    }

    /// Add an undirected edge. Parallel edges merge by weight addition;
    /// self-loops are ignored.
    pub fn add_edge(&mut self, u: u32, v: u32, w: u32) {
        if u == v {
            return;
        }
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    /// Build the CSR graph (sorts and merges edges).
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        // Merge parallel edges (saturating to keep u32 weights safe).
        let mut merged: Vec<(u32, u32, u32)> = Vec::with_capacity(self.edges.len());
        for &(u, v, w) in &self.edges {
            match merged.last_mut() {
                Some(last) if last.0 == u && last.1 == v => {
                    last.2 = last.2.saturating_add(w);
                }
                _ => merged.push((u, v, w)),
            }
        }
        let n = self.n as usize;
        let mut deg = vec![0u32; n + 1];
        for &(u, v, _) in &merged {
            deg[u as usize + 1] += 1;
            deg[v as usize + 1] += 1;
        }
        for i in 1..=n {
            deg[i] += deg[i - 1];
        }
        let xadj = deg.clone();
        let mut cursor = deg;
        let m2 = merged.len() * 2;
        let mut adjncy = vec![0u32; m2];
        let mut adjwgt = vec![0u32; m2];
        for &(u, v, w) in &merged {
            let cu = cursor[u as usize] as usize;
            adjncy[cu] = v;
            adjwgt[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            adjncy[cv] = u;
            adjwgt[cv] = w;
            cursor[v as usize] += 1;
        }
        CsrGraph {
            ncon: self.ncon,
            xadj,
            adjncy,
            adjwgt,
            vwgt: self.vwgt,
        }
    }
}

/// The 13-vertex example of the paper's Figure 2 (vertex 1 has weight 8 and
/// the most edges; vertices 7 and 9 have weight 1; the rest weight 2), used
/// in tests and the partition-study example. Vertex ids are zero-based
/// (paper's node 1 → vertex 0).
pub fn figure2_example() -> CsrGraph {
    // Node weights from the caption: node 1 → 8, nodes 7 and 9 → 1. The
    // remaining weights and the topology (a star of 8 around node 1 plus two
    // short chains) are chosen to reproduce the caption's arithmetic
    // exactly: total weight 24 (avg 4.8 over 5 partitions), a load-optimal
    // partitioning with 8 cuts and max load 8 (ratio 8/4.8 ≈ 1.67), and a
    // cut-optimal partitioning with 6 cuts and max load 10 (10/4.8 ≈ 2.08).
    let weights: [u64; 13] = [8, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1];
    let mut b = GraphBuilder::new(13, 1);
    for (v, &w) in weights.iter().enumerate() {
        b.set_vwgt(v as u32, &[w]);
    }
    // Star: node 1 (id 0) connects to ids 1..=8.
    for v in 1..=8u32 {
        b.add_edge(0, v, 1);
    }
    // Periphery pairs among the remaining vertices.
    b.add_edge(9, 10, 1);
    b.add_edge(11, 12, 1);
    b.add_edge(1, 9, 1);
    b.add_edge(2, 11, 1);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_symmetric_csr() {
        let mut b = GraphBuilder::new(4, 2);
        b.set_vwgt(0, &[1, 10]);
        b.set_vwgt(1, &[2, 20]);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 5);
        let g = b.build();
        g.validate().unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.vwgt(0, 1), 10);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.total_edge_weight(), 9);
    }

    #[test]
    fn parallel_edges_merge() {
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 0, 3);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.neighbors(0).next(), Some((1, 5)));
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 0, 9);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.m(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn totals() {
        let mut b = GraphBuilder::new(3, 2);
        b.set_vwgt(0, &[1, 4]);
        b.set_vwgt(1, &[2, 5]);
        b.set_vwgt(2, &[3, 6]);
        let g = b.build();
        assert_eq!(g.total_weights(), vec![6, 15]);
    }

    #[test]
    fn isolated_vertices_ok() {
        let b = GraphBuilder::new(5, 1);
        let g = b.build();
        g.validate().unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn validate_rejects_each_broken_invariant() {
        // Path 0-1-2 with vertex 1's list [0, 2]; each case breaks one thing.
        let path = |xadj: &[u32], adjncy: &[u32], adjwgt: &[u32]| CsrGraph {
            ncon: 1,
            xadj: xadj.to_vec(),
            adjncy: adjncy.to_vec(),
            adjwgt: adjwgt.to_vec(),
            vwgt: vec![1; xadj.len() - 1],
        };
        path(&[0, 1, 3, 4], &[1, 0, 2, 1], &[5, 5, 6, 6])
            .validate()
            .unwrap();
        let err = |g: CsrGraph| g.validate().unwrap_err();
        let unsorted = err(path(&[0, 1, 3, 4], &[1, 2, 0, 1], &[5, 6, 5, 6]));
        assert!(unsorted.contains("ascending"), "{unsorted}");
        let duplicate = err(path(&[0, 2, 4, 4], &[1, 1, 0, 0], &[1, 1, 1, 1]));
        assert!(duplicate.contains("ascending"), "{duplicate}");
        let weight = err(path(&[0, 1, 3, 4], &[1, 0, 2, 1], &[5, 4, 6, 6]));
        assert!(weight.contains("asymmetric"), "{weight}");
        let one_way = err(path(&[0, 1, 1, 1], &[1], &[5]));
        assert!(one_way.contains("asymmetric"), "{one_way}");
        let self_loop = err(path(&[0, 1, 1, 1], &[0], &[5]));
        assert!(self_loop.contains("self-loop"), "{self_loop}");
        let offsets = err(path(&[0, 3, 1, 4], &[1, 0, 2, 1], &[5, 5, 6, 6]));
        assert!(offsets.contains("xadj"), "{offsets}");
    }

    #[test]
    fn validate_is_affordable_on_a_hub() {
        // 20k leaves on one hub: the old per-edge linear scan made this
        // 4 × 10^8 compares; binary search makes it a few hundred thousand.
        let n = 20_001u32;
        let mut b = GraphBuilder::new(n, 1);
        for v in 1..n {
            b.add_edge(0, v, 1);
        }
        b.build().validate().unwrap();
    }

    #[test]
    fn from_parts_round_trips_a_built_graph() {
        let g = figure2_example();
        let again = CsrGraph::from_parts(
            g.ncon,
            g.xadj.clone(),
            g.adjncy.clone(),
            g.adjwgt.clone(),
            g.vwgt.clone(),
        );
        assert_eq!(g, again);
    }

    #[test]
    fn figure2_matches_caption_arithmetic() {
        let g = figure2_example();
        g.validate().unwrap();
        assert_eq!(g.n(), 13);
        // Total weight 24 ⇒ 5-way average load is 4.8, so the caption's
        // max/avg ratios are 8/4.8 ≈ 1.67 and 10/4.8 ≈ 2.08.
        let total: u64 = g.total_weights()[0];
        assert_eq!(total, 24);
        assert!((8.0 / (total as f64 / 5.0) - 1.67).abs() < 0.01);
        assert!((10.0 / (total as f64 / 5.0) - 2.08).abs() < 0.01);
        // Heaviest vertex has the most edges.
        let dmax_v = (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap();
        assert_eq!(dmax_v, 0);
        assert_eq!(g.degree(0), 8);
        assert_eq!(g.vwgt(0, 0), 8);
    }
}
