//! The four data distributions of the evaluation (§III-B labels):
//! `RR`, `GP`, `RR-splitLoc`, `GP-splitLoc`.

use crate::seq::{SweepCell, SweepLayout};
use crate::splitloc::{split_heavy_locations, SplitConfig};
use crate::workload::{build_workload_graph, WorkloadLayout};
use graph_part::{kway_partition, round_robin, PartitionConfig, PartitionQuality};
use load_model::{LoadUnits, PiecewiseModel};
use std::sync::Arc;
use synthpop::Population;

/// Distribution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Strategy {
    /// Round-robin object → chare assignment (the original EpiSimdemics
    /// default).
    RoundRobin,
    /// Multi-constraint graph partitioning on the workload graph.
    GraphPartition,
    /// splitLoc preprocessing, then round-robin.
    RoundRobinSplit,
    /// splitLoc preprocessing, then graph partitioning — the paper's best
    /// configuration.
    GraphPartitionSplit,
}

impl Strategy {
    /// The four strategies in the order the paper's figures list them.
    pub const ALL: [Strategy; 4] = [
        Strategy::RoundRobin,
        Strategy::GraphPartition,
        Strategy::RoundRobinSplit,
        Strategy::GraphPartitionSplit,
    ];

    /// The paper's label.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::RoundRobin => "RR",
            Strategy::GraphPartition => "GP",
            Strategy::RoundRobinSplit => "RR-splitLoc",
            Strategy::GraphPartitionSplit => "GP-splitLoc",
        }
    }

    /// Does this strategy run splitLoc first?
    pub fn splits(&self) -> bool {
        matches!(
            self,
            Strategy::RoundRobinSplit | Strategy::GraphPartitionSplit
        )
    }

    /// Does this strategy use the graph partitioner?
    pub fn partitions(&self) -> bool {
        matches!(
            self,
            Strategy::GraphPartition | Strategy::GraphPartitionSplit
        )
    }
}

/// A complete data distribution: the (possibly split) population plus the
/// person/location → partition assignments.
#[derive(Debug)]
pub struct DataDistribution {
    /// Strategy used.
    pub strategy: Strategy,
    /// Number of partitions.
    pub k: u32,
    /// The population objects are drawn from (split if the strategy splits).
    ///
    /// Held behind an `Arc` so simulators and ensemble members share one
    /// immutable copy — cloning a distribution (or building many worlds from
    /// it) never deep-copies the synthetic population.
    pub pop: Arc<Population>,
    /// Partition per person.
    pub person_part: Vec<u32>,
    /// Partition per location.
    pub location_part: Vec<u32>,
    /// location id → original location id (identity when not split).
    pub orig_of_location: Vec<u32>,
    /// Partition quality of the workload graph (GP strategies only).
    pub quality: Option<PartitionQuality>,
    /// The sweep layout over every partition, built on first use.
    sweep: SweepCell,
}

/// A clone starts without a sweep layout: its partition fields may be
/// rewritten (the rebalancer does), and the layout is ordered by them.
impl Clone for DataDistribution {
    fn clone(&self) -> Self {
        DataDistribution {
            strategy: self.strategy,
            k: self.k,
            pop: self.pop.clone(),
            person_part: self.person_part.clone(),
            location_part: self.location_part.clone(),
            orig_of_location: self.orig_of_location.clone(),
            quality: self.quality.clone(),
            sweep: SweepCell::default(),
        }
    }
}

impl DataDistribution {
    /// Build a distribution of `pop` over `k` partitions.
    ///
    /// The split threshold targets 8× the requested partition count (at
    /// least 256), mirroring the paper's practice of preprocessing once for
    /// "the maximum number of partitions to use" rather than re-splitting
    /// per run.
    pub fn build(pop: &Population, strategy: Strategy, k: u32, seed: u64) -> DataDistribution {
        Self::build_with(
            pop,
            strategy,
            k,
            seed,
            &SplitConfig {
                max_partitions: k.saturating_mul(8).max(256),
                threshold_override: None,
            },
            &PiecewiseModel::paper_constants(),
        )
    }

    /// Build with explicit split and load-model parameters.
    pub fn build_with(
        pop: &Population,
        strategy: Strategy,
        k: u32,
        seed: u64,
        split_cfg: &SplitConfig,
        model: &PiecewiseModel,
    ) -> DataDistribution {
        let (pop, orig_of_location) = if strategy.splits() {
            let res = split_heavy_locations(pop, split_cfg);
            (Arc::new(res.pop), res.orig_of_location)
        } else {
            (Arc::new(pop.clone()), (0..pop.n_locations()).collect())
        };

        let (person_part, location_part, quality) = if strategy.partitions() {
            let (graph, layout) = build_workload_graph(&pop, model, LoadUnits::default());
            let cfg = PartitionConfig::new(k).with_seed(seed).with_ubfactor(1.10);
            let part = kway_partition(&graph, &cfg);
            let quality = PartitionQuality::compute(&graph, &part);
            let (pp, lp) = split_assignment(&part.assignment, &layout);
            (pp, lp, Some(quality))
        } else {
            let pp = round_robin(pop.n_people(), k).assignment;
            let lp = round_robin(pop.n_locations(), k).assignment;
            (pp, lp, None)
        };

        DataDistribution {
            strategy,
            k,
            pop,
            person_part,
            location_part,
            orig_of_location,
            quality,
            sweep: SweepCell::default(),
        }
    }

    /// The [`SweepLayout`] of every partition, built on the first call and
    /// shared after it. The partition fields must not change once it is
    /// built.
    pub fn sweep_layout(&self) -> Arc<SweepLayout> {
        let (part, orig) = (&self.location_part, &self.orig_of_location);
        self.sweep.full(&self.pop, self.k, part, orig)
    }

    /// The cell [`DataDistribution::sweep_layout`] fills, for the holders
    /// that share it.
    pub(crate) fn sweep_cell(&self) -> &SweepCell {
        &self.sweep
    }

    /// Bytes this distribution holds on the heap: the population's node,
    /// visit and offset arrays, the three assignment vectors, and the sweep
    /// layout once built, each as length × element size. A cache of built
    /// worlds charges this against its budget.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let pop = &self.pop;
        pop.code.len()
            + size_of_val(pop.people.as_slice())
            + size_of_val(pop.locations.as_slice())
            + size_of_val(pop.visits.as_slice())
            + size_of_val(pop.person_offsets.as_slice())
            + size_of_val(self.person_part.as_slice())
            + size_of_val(self.location_part.as_slice())
            + size_of_val(self.orig_of_location.as_slice())
            + self.sweep.get().map_or(0, SweepLayout::heap_bytes)
    }

    /// Persons assigned to partition `p`, ascending.
    pub fn persons_of(&self, p: u32) -> Vec<u32> {
        (0..self.pop.n_people())
            .filter(|&i| self.person_part[i as usize] == p)
            .collect()
    }

    /// Locations assigned to partition `p`, ascending.
    pub fn locations_of(&self, p: u32) -> Vec<u32> {
        (0..self.pop.n_locations())
            .filter(|&i| self.location_part[i as usize] == p)
            .collect()
    }

    /// Per-partition location-phase load (visit-count proxy), for quick
    /// balance checks.
    pub fn location_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.k as usize];
        for v in &self.pop.visits {
            loads[self.location_part[v.location.0 as usize] as usize] += 1;
        }
        loads
    }

    /// Fraction of visits whose person and location live on different
    /// partitions (remote visit messages — the communication the paper's
    /// GP strategies minimize).
    pub fn remote_visit_fraction(&self) -> f64 {
        if self.pop.visits.is_empty() {
            return 0.0;
        }
        let remote = self
            .pop
            .visits
            .iter()
            .filter(|v| {
                self.person_part[v.person.0 as usize] != self.location_part[v.location.0 as usize]
            })
            .count();
        remote as f64 / self.pop.visits.len() as f64
    }
}

fn split_assignment(assignment: &[u32], layout: &WorkloadLayout) -> (Vec<u32>, Vec<u32>) {
    let pp = assignment[..layout.n_people as usize].to_vec();
    let lp = assignment[layout.n_people as usize..].to_vec();
    (pp, lp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthpop::PopulationConfig;

    fn pop() -> Population {
        Population::generate(&PopulationConfig::small("T", 4000, 17))
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Strategy::RoundRobin.label(), "RR");
        assert_eq!(Strategy::GraphPartitionSplit.label(), "GP-splitLoc");
    }

    #[test]
    fn rr_assigns_everything_mod_k() {
        let p = pop();
        let d = DataDistribution::build(&p, Strategy::RoundRobin, 8, 1);
        assert_eq!(d.person_part[9], 1);
        assert_eq!(d.location_part[10], 2);
        assert_eq!(d.person_part.len(), p.n_people() as usize);
        assert!(d.quality.is_none());
    }

    #[test]
    fn gp_reduces_remote_visits_vs_rr() {
        let p = pop();
        let rr = DataDistribution::build(&p, Strategy::RoundRobin, 8, 1);
        let gp = DataDistribution::build(&p, Strategy::GraphPartition, 8, 1);
        let f_rr = rr.remote_visit_fraction();
        let f_gp = gp.remote_visit_fraction();
        // RR has essentially no locality: ~ (k−1)/k remote.
        assert!(f_rr > 0.8, "RR remote fraction {f_rr}");
        assert!(f_gp < 0.75 * f_rr, "GP {f_gp} vs RR {f_rr}");
    }

    #[test]
    fn split_strategies_extend_locations() {
        let p = pop();
        let d = DataDistribution::build(&p, Strategy::GraphPartitionSplit, 64, 1);
        assert!(d.pop.n_locations() >= p.n_locations());
        assert_eq!(d.orig_of_location.len(), d.pop.n_locations() as usize);
        assert_eq!(d.location_part.len(), d.pop.n_locations() as usize);
    }

    #[test]
    fn split_improves_location_balance_at_scale() {
        let p = pop();
        let k = 64;
        let plain = DataDistribution::build(&p, Strategy::GraphPartition, k, 1);
        let split = DataDistribution::build(&p, Strategy::GraphPartitionSplit, k, 1);
        let max_plain = *plain.location_loads().iter().max().unwrap();
        let max_split = *split.location_loads().iter().max().unwrap();
        assert!(
            max_split <= max_plain,
            "split Lmax {max_split} vs plain {max_plain}"
        );
    }

    #[test]
    fn partitions_cover_all_objects() {
        let p = pop();
        for strategy in Strategy::ALL {
            let d = DataDistribution::build(&p, strategy, 5, 3);
            assert!(d.person_part.iter().all(|&x| x < 5), "{strategy:?}");
            assert!(d.location_part.iter().all(|&x| x < 5), "{strategy:?}");
            let total: usize = (0..5).map(|q| d.persons_of(q).len()).sum();
            assert_eq!(total, d.pop.n_people() as usize);
        }
    }

    #[test]
    fn heap_bytes_grows_with_the_population() {
        let small = DataDistribution::build(&pop(), Strategy::RoundRobin, 4, 1);
        let big = DataDistribution::build(
            &Population::generate(&PopulationConfig::small("T", 8000, 17)),
            Strategy::RoundRobin,
            4,
            1,
        );
        // The visit array dominates, and it grows with the population.
        let visits = std::mem::size_of_val(small.pop.visits.as_slice());
        assert!(visits < small.heap_bytes() && small.heap_bytes() < 2 * visits);
        assert!(big.heap_bytes() > small.heap_bytes() * 3 / 2);
    }

    #[test]
    fn persons_of_is_sorted_and_disjoint() {
        let p = pop();
        let d = DataDistribution::build(&p, Strategy::GraphPartition, 4, 1);
        let mut seen = vec![false; d.pop.n_people() as usize];
        for q in 0..4 {
            let ps = d.persons_of(q);
            assert!(ps.windows(2).all(|w| w[0] < w[1]));
            for id in ps {
                assert!(!seen[id as usize]);
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
