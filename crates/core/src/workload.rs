//! Building the partitioner input graph (§III-A).
//!
//! Vertices are persons followed by locations; each vertex carries a
//! 2-element weight vector — one balance constraint per computation phase:
//!
//! * constraint 0 (person phase): person load = number of visit messages
//!   generated ("no significant variance"); locations weigh 0.
//! * constraint 1 (location phase): location load = the piecewise static
//!   model evaluated at the location's event count; persons weigh 0.
//!
//! Edges connect persons to the locations they visit, weighted by the
//! number of daily visits (= messages crossing that edge).

use graph_part::coarsen::{contract, CoarseLevel};
use graph_part::{kway_partition_from, CsrGraph, Partition, PartitionConfig};
use load_model::{LoadUnits, PiecewiseModel};
use synthpop::Population;

/// Index helpers tying graph vertices back to persons/locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadLayout {
    /// Number of person vertices (ids `0..n_people`).
    pub n_people: u32,
    /// Number of location vertices (ids `n_people..n_people+n_locations`).
    pub n_locations: u32,
}

impl WorkloadLayout {
    /// Graph vertex of a person.
    #[inline]
    pub fn person_vertex(&self, p: u32) -> u32 {
        p
    }

    /// Graph vertex of a location.
    #[inline]
    pub fn location_vertex(&self, l: u32) -> u32 {
        self.n_people + l
    }

    /// Total vertices.
    pub fn n_vertices(&self) -> u32 {
        self.n_people + self.n_locations
    }
}

/// Build the 2-constraint workload graph for a population, with the
/// static model's location loads ([`location_static_loads`]).
pub fn build_workload_graph(
    pop: &Population,
    model: &PiecewiseModel,
    units: LoadUnits,
) -> (CsrGraph, WorkloadLayout) {
    build_workload_graph_with(pop, &location_static_loads(pop, model, units))
}

/// Build the 2-constraint workload graph for a population whose location
/// `l` weighs `location_loads[l]` in the location phase.
///
/// The CSR is written directly, in O(visits): a person's visits are
/// contiguous, so their few locations are sorted and merged in place to
/// give the person's row, and the location rows are the transpose, filled
/// in ascending person order. Both sides come out in the ascending
/// neighbour order `CsrGraph` requires.
///
/// # Panics
/// If `pop.visits` is not grouped by person as `pop.person_offsets` says.
fn build_workload_graph_with(
    pop: &Population,
    location_loads: &[u64],
) -> (CsrGraph, WorkloadLayout) {
    let layout = WorkloadLayout {
        n_people: pop.n_people(),
        n_locations: pop.n_locations(),
    };
    let n_people = layout.n_people as usize;
    let n = layout.n_vertices() as usize;

    // Person rows: one entry per distinct location, weight = visit count;
    // the person's own weight is their visit count too.
    // `xadj[v + 1]` first counts v's entries, then becomes v's end offset.
    let mut vwgt = vec![0u64; 2 * n];
    let mut xadj = vec![0u32; n + 1];
    let mut adjncy: Vec<u32> = Vec::with_capacity(2 * pop.visits.len());
    let mut adjwgt: Vec<u32> = Vec::with_capacity(2 * pop.visits.len());
    let mut row: Vec<u32> = Vec::new();
    for (p, visits) in pop.iter_people() {
        vwgt[2 * p.0 as usize] = visits.len().max(1) as u64;
        row.clear();
        for v in visits {
            assert_eq!(v.person, p, "visits must be grouped by person");
            row.push(layout.location_vertex(v.location.0));
        }
        row.sort_unstable();
        let start = adjncy.len();
        for &l in &row {
            if adjncy.len() > start && adjncy.last() == Some(&l) {
                let w = adjwgt.last_mut().expect("parallel to adjncy");
                *w = w.saturating_add(1);
            } else {
                adjncy.push(l);
                adjwgt.push(1);
                xadj[l as usize + 1] += 1;
            }
        }
        xadj[p.0 as usize + 1] = (adjncy.len() - start) as u32;
    }
    for v in 0..n {
        xadj[v + 1] += xadj[v];
    }
    // Location rows: the transpose of the person rows.
    let person_entries = adjncy.len();
    adjncy.resize(2 * person_entries, 0);
    adjwgt.resize(2 * person_entries, 0);
    let mut fill = xadj[n_people..n].to_vec();
    for p in 0..n_people {
        for e in xadj[p] as usize..xadj[p + 1] as usize {
            let at = &mut fill[adjncy[e] as usize - n_people];
            adjncy[*at as usize] = p as u32;
            adjwgt[*at as usize] = adjwgt[e];
            *at += 1;
        }
    }

    for (l, &load) in location_loads.iter().enumerate() {
        vwgt[2 * (n_people + l) + 1] = load;
    }
    (CsrGraph::from_parts(2, xadj, adjncy, adjwgt, vwgt), layout)
}

/// The one way a workload graph is partitioned: the V-cycle starts from
/// the [`person_level`] if there is one.
pub fn partition_workload(
    graph: &CsrGraph,
    layout: &WorkloadLayout,
    cfg: &PartitionConfig,
) -> Partition {
    kway_partition_from(graph, person_level(graph, layout, cfg), cfg)
}

/// The person-first coarse level. Persons, 80% of the vertices and of
/// near-constant degree, are what heavy-edge matching does worst on; one
/// O(m) contraction merges each into the location it visits most (the
/// first in adjacency order among equals, HEM's tie rule) and leaves the
/// location graph. Locations keep their ids; a person with no visits stays
/// alone, numbered after them. `None` when at most `cfg.coarsen_target()`
/// vertices would remain, where coarsening stops anyway.
pub fn person_level(
    graph: &CsrGraph,
    layout: &WorkloadLayout,
    cfg: &PartitionConfig,
) -> Option<CoarseLevel> {
    let mut map = Vec::with_capacity(layout.n_vertices() as usize);
    let mut coarse_n = layout.n_locations;
    for p in 0..layout.n_people {
        let heaviest = graph
            .neighbors(layout.person_vertex(p))
            .reduce(|best, next| if next.1 > best.1 { next } else { best });
        map.push(heaviest.map_or(coarse_n, |(l, _)| l - layout.n_people));
        coarse_n += u32::from(heaviest.is_none());
    }
    (coarse_n > cfg.coarsen_target()).then(|| {
        map.extend(0..layout.n_locations);
        let graph = contract(graph, &map, coarse_n);
        CoarseLevel { graph, map }
    })
}

/// The per-location static loads used for Table II / Figures 4–8 (the
/// location side of constraint 1).
pub fn location_static_loads(
    pop: &Population,
    model: &PiecewiseModel,
    units: LoadUnits,
) -> Vec<u64> {
    let mut events = vec![0u64; pop.locations.len()];
    for v in &pop.visits {
        events[v.location.0 as usize] += 2;
    }
    events
        .iter()
        .map(|&e| model.eval_units(e as f64, units.per_second))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitloc::{split_heavy_locations, SplitConfig};
    use graph_part::GraphBuilder;
    use synthpop::PopulationConfig;

    fn setup() -> (Population, CsrGraph, WorkloadLayout) {
        let pop = Population::generate(&PopulationConfig::small("T", 2000, 9));
        let (g, layout) = build_workload_graph(
            &pop,
            &PiecewiseModel::paper_constants(),
            LoadUnits::default(),
        );
        (pop, g, layout)
    }

    /// The construction this module replaced: every visit as a unit edge,
    /// sorted and merged by `GraphBuilder`.
    fn reference_graph(pop: &Population, loads: &[u64]) -> CsrGraph {
        let layout = WorkloadLayout {
            n_people: pop.n_people(),
            n_locations: pop.n_locations(),
        };
        let mut b = GraphBuilder::new(layout.n_vertices(), 2);
        for p in 0..pop.n_people() {
            let visits = pop.person_offsets[p as usize + 1] - pop.person_offsets[p as usize];
            b.set_vwgt(layout.person_vertex(p), &[visits.max(1) as u64, 0]);
        }
        for l in 0..pop.n_locations() {
            b.set_vwgt(layout.location_vertex(l), &[0, loads[l as usize]]);
        }
        for v in &pop.visits {
            b.add_edge(
                layout.person_vertex(v.person.0),
                layout.location_vertex(v.location.0),
                1,
            );
        }
        b.build()
    }

    #[test]
    fn direct_csr_equals_builder_reference() {
        for (people, seed) in [(1u32, 3u64), (40, 1), (700, 2), (2_500, 77), (6_000, 5)] {
            let pop = Population::generate(&PopulationConfig::small("W", people, seed));
            let split = split_heavy_locations(
                &pop,
                &SplitConfig {
                    max_partitions: 512,
                    threshold_override: None,
                },
            )
            .pop;
            assert!(people < 2_000 || split.n_locations() > pop.n_locations());
            for pop in [&pop, &split] {
                let (g, _) = build_workload_graph(
                    pop,
                    &PiecewiseModel::paper_constants(),
                    LoadUnits::default(),
                );
                g.validate().unwrap();
                let loads = location_static_loads(
                    pop,
                    &PiecewiseModel::paper_constants(),
                    LoadUnits::default(),
                );
                assert_eq!(
                    g,
                    reference_graph(pop, &loads),
                    "{people} people, seed {seed}"
                );
                // Any load vector, not only the static model's.
                let measured: Vec<u64> = (0..pop.n_locations() as u64)
                    .map(|l| (l * 7919 + seed) % 53 + 1)
                    .collect();
                let (g, _) = build_workload_graph_with(pop, &measured);
                assert_eq!(g, reference_graph(pop, &measured), "measured loads");
            }
        }
    }

    #[test]
    fn person_level_merges_each_person_into_its_heaviest_location() {
        // 300 locations, above the 256-vertex coarsening target at k = 2.
        // Person 0 visits nothing; person 1 visits 9 and 5 twice each (a
        // tie: 5 comes first); person 2 visits 7 once and 3 three times.
        let layout = WorkloadLayout {
            n_people: 3,
            n_locations: 300,
        };
        let mut b = GraphBuilder::new(layout.n_vertices(), 2);
        for p in 0..3 {
            b.set_vwgt(layout.person_vertex(p), &[1 + p as u64, 0]);
        }
        for l in 0..300 {
            b.set_vwgt(layout.location_vertex(l), &[0, 1 + l as u64 % 4]);
        }
        for (p, l, w) in [(1, 9, 2), (1, 5, 2), (2, 7, 1), (2, 3, 3)] {
            b.add_edge(layout.person_vertex(p), layout.location_vertex(l), w);
        }
        let g = b.build();
        let level = person_level(&g, &layout, &PartitionConfig::new(2)).unwrap();
        assert_eq!(level.map[..3], [300, 5, 3]);
        assert!(level.map[3..].iter().copied().eq(0..300));
        assert_eq!(level.graph.n(), 301);
        assert_eq!(level.graph.vwgts(300), [1, 0]);
        assert_eq!(level.graph.total_weights(), g.total_weights());
        assert_eq!(level.graph.neighbors(5).collect::<Vec<_>>(), [(9, 2)]);
        assert_eq!(level.graph.neighbors(3).collect::<Vec<_>>(), [(7, 1)]);
        // At k = 32 coarsening stops at 512 vertices: no person level.
        assert!(person_level(&g, &layout, &PartitionConfig::new(32)).is_none());

        let (_, g, layout) = setup();
        let level = person_level(&g, &layout, &PartitionConfig::new(2)).unwrap();
        assert_eq!(level.graph.n(), layout.n_locations);
        for p in 0..layout.n_people {
            let row: Vec<(u32, u32)> = g.neighbors(layout.person_vertex(p)).collect();
            let heaviest = row.iter().map(|&(_, w)| w).max().unwrap();
            let first = row.iter().find(|&&(_, w)| w == heaviest).unwrap().0;
            assert_eq!(level.map[p as usize], first - layout.n_people, "person {p}");
        }
    }

    #[test]
    #[should_panic(expected = "grouped by person")]
    fn visits_out_of_person_order_are_refused() {
        let mut pop = Population::generate(&PopulationConfig::small("W", 50, 1));
        let last = pop.visits.len() - 1;
        pop.visits.swap(0, last);
        build_workload_graph(
            &pop,
            &PiecewiseModel::paper_constants(),
            LoadUnits::default(),
        );
    }

    #[test]
    fn graph_is_bipartite_sized() {
        let (pop, g, layout) = setup();
        assert_eq!(g.n(), pop.n_people() + pop.n_locations());
        assert_eq!(layout.n_vertices(), g.n());
        assert_eq!(g.ncon(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn constraints_are_disjoint() {
        let (pop, g, layout) = setup();
        for p in 0..pop.n_people() {
            let w = g.vwgts(layout.person_vertex(p));
            assert!(w[0] > 0);
            assert_eq!(w[1], 0);
        }
        for l in 0..pop.n_locations() {
            let w = g.vwgts(layout.location_vertex(l));
            assert_eq!(w[0], 0);
        }
    }

    #[test]
    fn person_constraint_totals_visits() {
        let (pop, g, _) = setup();
        let totals = g.total_weights();
        assert_eq!(totals[0], pop.n_visits());
    }

    #[test]
    fn edges_only_cross_the_bipartition() {
        let (_, g, layout) = setup();
        for v in 0..g.n() {
            let v_is_person = v < layout.n_people;
            for (u, _) in g.neighbors(v) {
                let u_is_person = u < layout.n_people;
                assert_ne!(v_is_person, u_is_person, "edge within one side");
            }
        }
    }

    #[test]
    fn edge_weight_counts_visits() {
        let (pop, g, layout) = setup();
        // Total edge weight = number of visits (each visit contributes 1).
        assert_eq!(g.total_edge_weight(), pop.n_visits());
        // A person with two home visits has a weight-2 edge to home.
        let home = pop.people[0].home.0;
        let w = g
            .neighbors(layout.person_vertex(0))
            .find(|&(u, _)| u == layout.location_vertex(home))
            .map(|(_, w)| w)
            .unwrap();
        assert!(w >= 2, "home edge weight {w}");
    }

    #[test]
    fn heavy_location_heavy_weight() {
        let (pop, g, layout) = setup();
        // The heaviest-degree location gets the largest constraint-1 weight.
        let mut deg = vec![0u64; pop.locations.len()];
        for v in &pop.visits {
            deg[v.location.0 as usize] += 1;
        }
        let dmax_l = (0..deg.len()).max_by_key(|&l| deg[l]).unwrap() as u32;
        let wmax_l = (0..pop.n_locations())
            .max_by_key(|&l| g.vwgt(layout.location_vertex(l), 1))
            .unwrap();
        assert_eq!(dmax_l, wmax_l);
    }

    #[test]
    fn static_loads_match_graph_weights() {
        let (pop, g, layout) = setup();
        let loads = location_static_loads(
            &pop,
            &PiecewiseModel::paper_constants(),
            LoadUnits::default(),
        );
        for l in 0..pop.n_locations() {
            assert_eq!(loads[l as usize], g.vwgt(layout.location_vertex(l), 1));
        }
    }
}
