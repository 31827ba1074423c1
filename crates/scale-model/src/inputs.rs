//! Extracting per-partition model inputs from a concrete data
//! distribution — exact counts, no sampling.

use episim_core::distribution::DataDistribution;
use episim_core::workload::location_static_loads;
use load_model::{LoadUnits, PiecewiseModel};
use std::collections::HashMap;

/// Wire size of one visit message (matches `SimMsg::size_bytes`).
pub const VISIT_BYTES: u64 = 20;

/// Per-partition quantities the day-time model consumes.
#[derive(Debug, Clone, Default)]
pub struct PartitionInputs {
    /// Number of partitions.
    pub k: u32,
    /// Person-phase visit count per partition (messages generated).
    pub person_visits: Vec<u64>,
    /// Location-phase static load per partition, in load-model units.
    pub location_load: Vec<u64>,
    /// Remote (cross-partition) visit messages sent, per source partition.
    pub remote_out: Vec<u64>,
    /// Remote visit messages received, per destination partition.
    pub remote_in: Vec<u64>,
    /// Local (same-partition) visit messages, per partition.
    pub local: Vec<u64>,
    /// Number of distinct remote destinations per source partition
    /// (bounds aggregation: at least one packet per destination lane).
    pub fanout: Vec<u32>,
}

impl PartitionInputs {
    /// Total visits.
    pub fn total_visits(&self) -> u64 {
        self.remote_out.iter().sum::<u64>() + self.local.iter().sum::<u64>()
    }

    /// Fraction of visits that cross partitions.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_visits();
        if total == 0 {
            return 0.0;
        }
        self.remote_out.iter().sum::<u64>() as f64 / total as f64
    }
}

/// Compute exact per-partition inputs from a distribution.
pub fn inputs_from_distribution(
    dist: &DataDistribution,
    model: &PiecewiseModel,
    units: LoadUnits,
) -> PartitionInputs {
    let k = dist.k() as usize;
    let (person_part, location_part) = (dist.person_part(), dist.location_part());
    let mut inputs = PartitionInputs {
        k: dist.k(),
        person_visits: vec![0; k],
        location_load: vec![0; k],
        remote_out: vec![0; k],
        remote_in: vec![0; k],
        local: vec![0; k],
        fanout: vec![0; k],
    };

    for (l, load) in location_static_loads(&dist.pop, model, units)
        .into_iter()
        .enumerate()
    {
        inputs.location_load[location_part[l] as usize] += load;
    }

    // Visit traffic.
    let mut pairs: HashMap<(u32, u32), u64> = HashMap::new();
    for v in &dist.pop.visits {
        let src = person_part[v.person.0 as usize];
        let dst = location_part[v.location.0 as usize];
        inputs.person_visits[src as usize] += 1;
        if src == dst {
            inputs.local[src as usize] += 1;
        } else {
            inputs.remote_out[src as usize] += 1;
            inputs.remote_in[dst as usize] += 1;
            *pairs.entry((src, dst)).or_insert(0) += 1;
        }
    }
    for &(src, _) in pairs.keys() {
        inputs.fanout[src as usize] += 1;
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use episim_core::distribution::Strategy;
    use synthpop::{Population, PopulationConfig};

    fn inputs(strategy: Strategy, k: u32) -> PartitionInputs {
        let pop = Population::generate(&PopulationConfig::small("T", 3000, 7));
        let dist = DataDistribution::build(&pop, strategy, k, 1);
        inputs_from_distribution(
            &dist,
            &PiecewiseModel::paper_constants(),
            LoadUnits::default(),
        )
    }

    #[test]
    fn totals_conserved() {
        let pop = Population::generate(&PopulationConfig::small("T", 3000, 7));
        let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 6, 1);
        let i = inputs_from_distribution(
            &dist,
            &PiecewiseModel::paper_constants(),
            LoadUnits::default(),
        );
        assert_eq!(i.total_visits(), dist.pop.n_visits());
        assert_eq!(
            i.remote_out.iter().sum::<u64>(),
            i.remote_in.iter().sum::<u64>()
        );
        assert_eq!(i.person_visits.iter().sum::<u64>(), dist.pop.n_visits());
    }

    #[test]
    fn k_one_all_local() {
        let i = inputs(Strategy::RoundRobin, 1);
        assert_eq!(i.remote_out[0], 0);
        assert_eq!(i.fanout[0], 0);
        assert_eq!(i.remote_fraction(), 0.0);
    }

    #[test]
    fn rr_mostly_remote_gp_less() {
        let rr = inputs(Strategy::RoundRobin, 8);
        let gp = inputs(Strategy::GraphPartition, 8);
        assert!(rr.remote_fraction() > 0.8);
        assert!(gp.remote_fraction() < rr.remote_fraction());
    }

    #[test]
    fn fanout_bounded_by_k_minus_one() {
        let i = inputs(Strategy::RoundRobin, 8);
        assert!(i.fanout.iter().all(|&f| f <= 7));
        assert!(i.fanout.iter().any(|&f| f > 0));
    }

    #[test]
    fn location_load_positive_everywhere_under_rr() {
        let i = inputs(Strategy::RoundRobin, 4);
        assert!(i.location_load.iter().all(|&l| l > 0));
    }
}
