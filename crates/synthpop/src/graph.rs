//! CSR views of the bipartite person–location graph and degree statistics.
//!
//! The generator stores visits sorted by person; partitioning, splitLoc and
//! the location phase all need the transpose (visits grouped by location).
//! [`BipartiteGraph`] holds both directions plus the degree statistics used
//! throughout §III.

use crate::generator::Population;
use crate::{LocationId, PersonId};

/// Both CSR directions of the person–location graph.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    n_people: u32,
    n_locations: u32,
    /// For each location, the indices (into `Population::visits`) of its
    /// visits: `visit_idx[loc_offsets[l] .. loc_offsets[l+1]]`.
    loc_offsets: Vec<u32>,
    visit_idx: Vec<u32>,
}

impl BipartiteGraph {
    /// Build the location-side CSR from a population (counting sort; O(V)).
    pub fn build(pop: &Population) -> Self {
        let n_locations = pop.n_locations();
        let mut counts = vec![0u32; n_locations as usize + 1];
        for v in &pop.visits {
            counts[v.location.0 as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let loc_offsets = counts.clone();
        let mut cursor = counts;
        let mut visit_idx = vec![0u32; pop.visits.len()];
        for (i, v) in pop.visits.iter().enumerate() {
            let slot = cursor[v.location.0 as usize];
            visit_idx[slot as usize] = i as u32;
            cursor[v.location.0 as usize] += 1;
        }
        BipartiteGraph {
            n_people: pop.n_people(),
            n_locations,
            loc_offsets,
            visit_idx,
        }
    }

    /// Number of person nodes.
    pub fn n_people(&self) -> u32 {
        self.n_people
    }

    /// Number of location nodes.
    pub fn n_locations(&self) -> u32 {
        self.n_locations
    }

    /// Indices into `Population::visits` for one location's visits.
    pub fn visits_at(&self, l: LocationId) -> &[u32] {
        let lo = self.loc_offsets[l.0 as usize] as usize;
        let hi = self.loc_offsets[l.0 as usize + 1] as usize;
        &self.visit_idx[lo..hi]
    }

    /// In-degree (visit count) of a location.
    #[inline]
    pub fn location_degree(&self, l: LocationId) -> u32 {
        self.loc_offsets[l.0 as usize + 1] - self.loc_offsets[l.0 as usize]
    }

    /// Number of *unique* visitors of a location (the paper's Fig. 3c
    /// plots "in-degree per location which is the number of unique
    /// visitors").
    pub fn unique_visitors(&self, pop: &Population, l: LocationId) -> u32 {
        let mut ps: Vec<PersonId> = self
            .visits_at(l)
            .iter()
            .map(|&i| pop.visits[i as usize].person)
            .collect();
        ps.sort_unstable();
        ps.dedup();
        ps.len() as u32
    }

    /// Degree statistics of the location side.
    pub fn location_degree_stats(&self) -> DegreeStats {
        DegreeStats::from_degrees(
            (0..self.n_locations).map(|l| self.location_degree(LocationId(l))),
        )
    }

    /// Degree statistics of the person side.
    pub fn person_degree_stats(&self, pop: &Population) -> DegreeStats {
        DegreeStats::from_degrees(
            (0..self.n_people).map(|p| pop.visits_of(PersonId(p)).len() as u32),
        )
    }
}

/// Simple degree statistics: average, standard deviation, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Node count.
    pub n: u64,
    /// Mean degree (`davg` in §III-B).
    pub avg: f64,
    /// Standard deviation.
    pub sd: f64,
    /// Maximum degree (`dmax` in §III-B).
    pub max: u32,
}

impl DegreeStats {
    /// Compute from an iterator of degrees.
    pub fn from_degrees(degrees: impl IntoIterator<Item = u32>) -> Self {
        let (mut n, mut sum, mut sumsq, mut max) = (0u64, 0f64, 0f64, 0u32);
        for d in degrees {
            n += 1;
            sum += d as f64;
            sumsq += (d as f64) * (d as f64);
            max = max.max(d);
        }
        if n == 0 {
            return DegreeStats {
                n: 0,
                avg: 0.0,
                sd: 0.0,
                max: 0,
            };
        }
        let avg = sum / n as f64;
        let var = (sumsq / n as f64 - avg * avg).max(0.0);
        DegreeStats {
            n,
            avg,
            sd: var.sqrt(),
            max,
        }
    }
}

/// Compute, per location, the number of arrive+depart events its DES will
/// process (2 × visits) — the `X` input of the paper's static load model.
pub fn events_per_location(graph: &BipartiteGraph) -> Vec<u64> {
    (0..graph.n_locations())
        .map(|l| 2 * graph.location_degree(LocationId(l)) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::PopulationConfig;

    fn small() -> (Population, BipartiteGraph) {
        let pop = Population::generate(&PopulationConfig::small("T", 3000, 21));
        let g = BipartiteGraph::build(&pop);
        (pop, g)
    }

    #[test]
    fn transpose_is_consistent() {
        let (pop, g) = small();
        // Every visit appears in exactly one location bucket, the right one.
        let mut seen = vec![false; pop.visits.len()];
        for l in 0..g.n_locations() {
            for &i in g.visits_at(LocationId(l)) {
                assert_eq!(pop.visits[i as usize].location, LocationId(l));
                assert!(!seen[i as usize], "visit listed twice");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn degrees_sum_to_visit_count() {
        let (pop, g) = small();
        let total: u64 = (0..g.n_locations())
            .map(|l| g.location_degree(LocationId(l)) as u64)
            .sum();
        assert_eq!(total, pop.n_visits());
    }

    #[test]
    fn unique_visitors_le_degree() {
        let (pop, g) = small();
        for l in 0..g.n_locations() {
            let l = LocationId(l);
            assert!(g.unique_visitors(&pop, l) <= g.location_degree(l));
        }
    }

    #[test]
    fn stats_match_hand_computation() {
        let s = DegreeStats::from_degrees([2u32, 4, 6]);
        assert_eq!(s.n, 3);
        assert!((s.avg - 4.0).abs() < 1e-12);
        assert!((s.sd - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.max, 6);
    }

    #[test]
    fn empty_stats() {
        let s = DegreeStats::from_degrees(std::iter::empty());
        assert_eq!(s.n, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn person_side_stats_match_paper_shape() {
        let (pop, g) = small();
        let s = g.person_degree_stats(&pop);
        assert!((s.avg - 5.5).abs() < 0.8, "avg {}", s.avg);
        assert!(s.sd < 3.5, "sd {}", s.sd);
    }

    #[test]
    fn events_are_twice_degree() {
        let (_, g) = small();
        let ev = events_per_location(&g);
        for l in 0..g.n_locations() {
            assert_eq!(ev[l as usize], 2 * g.location_degree(LocationId(l)) as u64);
        }
    }
}
