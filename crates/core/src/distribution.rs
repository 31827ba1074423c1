//! The four data distributions of the evaluation (§III-B labels):
//! `RR`, `GP`, `RR-splitLoc`, `GP-splitLoc`, and [`DataDistribution`], the
//! one immutable world every run loads, as the paper partitions once,
//! offline, and every run loads the result (§II-C, §III).

use crate::layout::SweepLayout;
use crate::splitloc::{split_heavy_locations, SplitConfig};
use crate::workload::{build_workload_graph, partition_workload};
use graph_part::{round_robin, PartitionConfig};
use load_model::{LoadUnits, PiecewiseModel};
use std::sync::{Arc, OnceLock};
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

/// A complete data distribution: the (possibly split) population, its
/// person/location → partition assignments, each partition's objects by
/// local slot (the §II-C index maps), and the [`SweepLayout`] of every
/// partition, built on first use. Every array sits behind an `Arc`: a
/// clone copies none and shares the layout whichever of them builds it.
/// The partition is read through accessors
///
/// ```
/// # use episim_core::{DataDistribution, Strategy};
/// # use synthpop::{Population, PopulationConfig};
/// let pop = Population::generate(&PopulationConfig::small("D", 200, 1));
/// let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 2, 1);
/// assert_eq!(dist.location_part()[1], 1);
/// ```
///
/// and cannot be written; a new partition is a new
/// [`DataDistribution::build`].
///
/// ```compile_fail,E0615
/// # use episim_core::{DataDistribution, Strategy};
/// # use synthpop::{Population, PopulationConfig};
/// let pop = Population::generate(&PopulationConfig::small("D", 200, 1));
/// let mut dist = DataDistribution::build(&pop, Strategy::RoundRobin, 2, 1);
/// dist.location_part[0] = 0;
/// ```
#[derive(Debug, Clone)]
pub struct DataDistribution {
    /// Strategy used.
    pub strategy: Strategy,
    /// The population objects are drawn from (split if the strategy splits).
    pub pop: Arc<Population>,
    /// location id → original location id (identity when not split).
    pub orig_of_location: Arc<[u32]>,
    part: Arc<Partition>,
}

/// The partition of a population and everything derived from it.
#[derive(Debug)]
struct Partition {
    k: u32,
    persons: Grouping,
    locations: Grouping,
    sweep: OnceLock<Arc<SweepLayout>>,
}

/// One kind of object grouped by partition: the §II-C index maps.
#[derive(Debug)]
struct Grouping {
    /// object → partition.
    part: Vec<u32>,
    /// object → its slot among its partition's objects.
    local: Vec<u32>,
    /// The objects by partition, ascending within each; partition `p`'s
    /// are `members[start[p]..start[p + 1]]`.
    members: Vec<u32>,
    start: Vec<u32>,
}

impl Grouping {
    /// A counting sort of the objects by their partition in `part`.
    fn new(part: Vec<u32>, k: u32) -> Grouping {
        let mut start = vec![0u32; k as usize + 1];
        for &p in &part {
            assert!(p < k, "partition {p} out of range for k = {k}");
            start[p as usize + 1] += 1;
        }
        for p in 0..k as usize {
            start[p + 1] += start[p];
        }
        let mut next = start.clone();
        let (mut local, mut members) = (vec![0; part.len()], vec![0; part.len()]);
        for (i, &p) in part.iter().enumerate() {
            let slot = &mut next[p as usize];
            local[i] = *slot - start[p as usize];
            members[*slot as usize] = i as u32;
            *slot += 1;
        }
        Grouping {
            part,
            local,
            members,
            start,
        }
    }

    fn of(&self, p: u32) -> &[u32] {
        &self.members[self.start[p as usize] as usize..self.start[p as usize + 1] as usize]
    }

    fn heap_bytes(&self) -> usize {
        4 * (self.part.len() + self.local.len() + self.members.len() + self.start.len())
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

        let (person_part, location_part) = if strategy.partitions() {
            let (graph, layout) = build_workload_graph(&pop, model, LoadUnits::default());
            let cfg = PartitionConfig::new(k).with_seed(seed).with_ubfactor(1.10);
            let mut pp = partition_workload(&graph, &layout, &cfg).assignment;
            let lp = pp.split_off(layout.n_people as usize);
            (pp, lp)
        } else {
            let pp = round_robin(pop.n_people(), k).assignment;
            let lp = round_robin(pop.n_locations(), k).assignment;
            (pp, lp)
        };

        DataDistribution {
            strategy,
            pop,
            orig_of_location: orig_of_location.into(),
            part: Arc::new(Partition {
                k,
                persons: Grouping::new(person_part, k),
                locations: Grouping::new(location_part, k),
                sweep: OnceLock::new(),
            }),
        }
    }

    /// Number of partitions.
    pub fn k(&self) -> u32 {
        self.part.k
    }

    /// The workload graph's edge cut (GP strategies only): an edge joins a
    /// person to a location and weighs their visits, so the cut is the
    /// number of remote visits. Counted on each call, off the build path.
    pub fn edge_cut(&self) -> Option<u64> {
        self.strategy.partitions().then(|| self.remote_visits())
    }

    /// Partition per person.
    pub fn person_part(&self) -> &[u32] {
        &self.part.persons.part
    }

    /// Partition per location.
    pub fn location_part(&self) -> &[u32] {
        &self.part.locations.part
    }

    /// Per person, its index in its partition's `persons_of`.
    pub(crate) fn local_of_person(&self) -> &[u32] {
        &self.part.persons.local
    }

    /// Per location, its index in its partition's `locations_of`.
    pub(crate) fn local_of_location(&self) -> &[u32] {
        &self.part.locations.local
    }

    /// Persons assigned to partition `p`, ascending.
    pub fn persons_of(&self, p: u32) -> &[u32] {
        self.part.persons.of(p)
    }

    /// Locations assigned to partition `p`, ascending.
    pub fn locations_of(&self, p: u32) -> &[u32] {
        self.part.locations.of(p)
    }

    /// The [`SweepLayout`] of every partition, built on the first call by
    /// this distribution or any clone of it, and shared after it.
    pub fn sweep_layout(&self) -> Arc<SweepLayout> {
        let all = vec![true; self.k() as usize];
        let layout = self
            .part
            .sweep
            .get_or_init(|| Arc::new(SweepLayout::of_world(self, &all)));
        layout.clone()
    }

    /// The sweep layout, if it is built.
    pub(crate) fn built_sweep_layout(&self) -> Option<&SweepLayout> {
        self.part.sweep.get().map(|layout| &**layout)
    }

    /// Bytes this distribution holds on the heap: the population's node,
    /// visit and offset arrays, the split map, the partition and its index
    /// maps, and the sweep layout once built, each as length × element
    /// size. A cache of built worlds charges this against its budget.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let pop = &self.pop;
        pop.code.len()
            + size_of_val(pop.people.as_slice())
            + size_of_val(pop.locations.as_slice())
            + size_of_val(pop.visits.as_slice())
            + size_of_val(pop.person_offsets.as_slice())
            + size_of_val(&*self.orig_of_location)
            + self.part.persons.heap_bytes()
            + self.part.locations.heap_bytes()
            + self.built_sweep_layout().map_or(0, SweepLayout::heap_bytes)
    }

    /// Per-partition location-phase load (visit-count proxy), for quick
    /// balance checks.
    pub fn location_loads(&self) -> Vec<u64> {
        let (mut loads, lp) = (vec![0u64; self.k() as usize], self.location_part());
        for v in &self.pop.visits {
            loads[lp[v.location.0 as usize] as usize] += 1;
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
        self.remote_visits() as f64 / self.pop.visits.len() as f64
    }

    /// Visits whose person and location sit in different partitions.
    fn remote_visits(&self) -> u64 {
        let (pp, lp) = (self.person_part(), self.location_part());
        self.pop
            .visits
            .iter()
            .filter(|v| pp[v.person.0 as usize] != lp[v.location.0 as usize])
            .count() as u64
    }
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
        assert_eq!(d.person_part()[9], 1);
        assert_eq!(d.location_part()[10], 2);
        assert_eq!(d.person_part().len(), p.n_people() as usize);
        assert!(d.edge_cut().is_none());
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

    /// The cut counted from the visits is the workload graph's cut.
    #[test]
    fn edge_cut_is_the_workload_graphs_cut() {
        for strategy in [Strategy::GraphPartition, Strategy::GraphPartitionSplit] {
            let d = DataDistribution::build(&pop(), strategy, 4, 1);
            let model = PiecewiseModel::paper_constants();
            let (graph, _) = build_workload_graph(&d.pop, &model, LoadUnits::default());
            let mut assignment = d.person_part().to_vec();
            assignment.extend_from_slice(d.location_part());
            let part = graph_part::Partition { k: 4, assignment };
            let want = graph_part::PartitionQuality::compute(&graph, &part).edge_cut;
            assert_eq!(d.edge_cut(), Some(want), "{strategy:?}");
        }
    }

    #[test]
    fn split_strategies_extend_locations() {
        let p = pop();
        let d = DataDistribution::build(&p, Strategy::GraphPartitionSplit, 64, 1);
        assert!(d.pop.n_locations() >= p.n_locations());
        assert_eq!(d.orig_of_location.len(), d.pop.n_locations() as usize);
        assert_eq!(d.location_part().len(), d.pop.n_locations() as usize);
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
            assert!(d.person_part().iter().all(|&x| x < 5), "{strategy:?}");
            assert!(d.location_part().iter().all(|&x| x < 5), "{strategy:?}");
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
            for &id in ps {
                assert!(!seen[id as usize]);
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// A clone copies no array: it shares the population, the split map,
    /// the partition, its index maps and the sweep layout, whichever of
    /// the two builds it.
    #[test]
    fn a_clone_shares_every_array_and_the_built_layout() {
        let d = DataDistribution::build(&pop(), Strategy::GraphPartitionSplit, 4, 1);
        let early = d.clone();
        let built = d.sweep_layout();
        let late = d.clone();
        for c in [&early, &late] {
            assert!(Arc::ptr_eq(&c.pop, &d.pop));
            assert!(Arc::ptr_eq(&c.orig_of_location, &d.orig_of_location));
            assert!(Arc::ptr_eq(&c.part, &d.part));
            for (a, b) in [
                (c.person_part(), d.person_part()),
                (c.location_part(), d.location_part()),
                (c.local_of_person(), d.local_of_person()),
                (c.local_of_location(), d.local_of_location()),
                (c.persons_of(3), d.persons_of(3)),
                (c.locations_of(3), d.locations_of(3)),
            ] {
                assert_eq!(a.as_ptr(), b.as_ptr());
            }
            assert!(Arc::ptr_eq(&c.sweep_layout(), &built));
        }
    }
}
