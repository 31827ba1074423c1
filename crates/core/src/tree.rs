//! Transmission-tree analytics.
//!
//! Every applied infection records who transmitted and on which day
//! ([`crate::person::PersonSlot::infected_by`]/`infected_on`), so a finished
//! run carries its full transmission forest. This module computes the
//! epidemiological summaries analysts read off such trees — the case
//! reproduction number `R_t`, the generation-interval distribution, and the
//! secondary-case (offspring) distribution — the outputs EpiSimdemics-style
//! course-of-action studies report alongside attack rates.

use crate::person::PersonSlot;

/// Summary statistics of a run's transmission forest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransmissionStats {
    /// Number of infected persons (tree nodes), seeds included.
    pub cases: u64,
    /// Number of attributed transmissions (tree edges).
    pub edges: u64,
    /// Case reproduction number by infection day: `rt_by_day[d]` = mean
    /// secondary cases caused by persons infected on day `d` (entries with
    /// zero cohort size are 0).
    pub rt_by_day: Vec<f64>,
    /// Cohort size per infection day.
    pub cohort_by_day: Vec<u64>,
    /// Mean generation interval (days between an infector's own infection
    /// and their victims'), over attributed edges.
    pub mean_generation_interval: f64,
    /// Offspring distribution: `offspring[n]` = number of cases that caused
    /// exactly `n` attributed secondary cases (truncated at the max seen).
    pub offspring: Vec<u64>,
}

impl TransmissionStats {
    /// Dispersion check: the fraction of all transmissions caused by the
    /// top `fraction` of infectors (the "80/20" superspreading measure).
    pub fn top_infector_share(&self, states: &[PersonSlot], fraction: f64) -> f64 {
        let mut secondary = secondary_counts(states);
        secondary.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = secondary.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let take = ((secondary.len() as f64 * fraction).ceil() as usize).max(1);
        let top: u64 = secondary.iter().take(take).sum();
        top as f64 / total as f64
    }
}

fn secondary_counts(states: &[PersonSlot]) -> Vec<u64> {
    let mut counts = vec![0u64; states.len()];
    for s in states {
        if let Some(infector) = s.infected_by {
            counts[infector as usize] += 1;
        }
    }
    // Only infected persons can be infectors; report their counts.
    states
        .iter()
        .filter(|s| s.infected_on.is_some())
        .map(|s| counts[s.id as usize])
        .collect()
}

/// Compute transmission statistics from final person states.
pub fn transmission_stats(states: &[PersonSlot]) -> TransmissionStats {
    let mut stats = TransmissionStats::default();
    let max_day = states
        .iter()
        .filter_map(|s| s.infected_on)
        .max()
        .unwrap_or(0) as usize;
    let mut secondary = vec![0u64; states.len()];
    let mut gi_sum = 0f64;
    let mut cohort = vec![0u64; max_day + 1];

    for s in states {
        if let Some(day) = s.infected_on {
            stats.cases += 1;
            cohort[day as usize] += 1;
        }
        if let Some(infector) = s.infected_by {
            stats.edges += 1;
            secondary[infector as usize] += 1;
            let victim_day = s.infected_on.expect("infected_by implies infected_on");
            if let Some(infector_day) = states[infector as usize].infected_on {
                gi_sum += (victim_day.saturating_sub(infector_day)) as f64;
            }
        }
    }
    stats.mean_generation_interval = if stats.edges > 0 {
        gi_sum / stats.edges as f64
    } else {
        0.0
    };

    // Rt by infection day of the infector.
    let mut rt_sum = vec![0f64; max_day + 1];
    for s in states {
        if let Some(day) = s.infected_on {
            rt_sum[day as usize] += secondary[s.id as usize] as f64;
        }
    }
    stats.rt_by_day = rt_sum
        .iter()
        .zip(&cohort)
        .map(|(&sum, &n)| if n > 0 { sum / n as f64 } else { 0.0 })
        .collect();
    stats.cohort_by_day = cohort;

    // Offspring distribution.
    let per_case = secondary_counts(states);
    let max_offspring = per_case.iter().copied().max().unwrap_or(0) as usize;
    let mut offspring = vec![0u64; max_offspring + 1];
    for c in per_case {
        offspring[c as usize] += 1;
    }
    stats.offspring = offspring;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::run_sequential_with_states;
    use crate::simulator::SimConfig;
    use ptts::flu_model;
    use ptts::Ptts;
    use synthpop::{Population, PopulationConfig};

    fn slot(id: u32, ptts: &Ptts, on: Option<u32>, by: Option<u32>) -> PersonSlot {
        let mut s = PersonSlot::new(id, ptts);
        s.infected_on = on;
        s.infected_by = by;
        s
    }

    #[test]
    fn hand_built_chain() {
        // 0 (seed, day 0) → 1 (day 3) → 2 (day 7); 3 never infected.
        let ptts = flu_model();
        let states = vec![
            slot(0, &ptts, Some(0), None),
            slot(1, &ptts, Some(3), Some(0)),
            slot(2, &ptts, Some(7), Some(1)),
            slot(3, &ptts, None, None),
        ];
        let t = transmission_stats(&states);
        assert_eq!(t.cases, 3);
        assert_eq!(t.edges, 2);
        assert!((t.mean_generation_interval - 3.5).abs() < 1e-12); // (3 + 4)/2
        assert_eq!(t.rt_by_day[0], 1.0);
        assert_eq!(t.rt_by_day[3], 1.0);
        assert_eq!(t.rt_by_day[7], 0.0);
        assert_eq!(t.cohort_by_day, vec![1, 0, 0, 1, 0, 0, 0, 1]);
        // Offspring: two cases with 1 child, one with 0.
        assert_eq!(t.offspring, vec![1, 2]);
    }

    #[test]
    fn empty_states() {
        let t = transmission_stats(&[]);
        assert_eq!(t.cases, 0);
        assert_eq!(t.mean_generation_interval, 0.0);
    }

    #[test]
    fn real_run_tree_is_consistent() {
        let pop = Population::generate(&PopulationConfig::small("TR", 3000, 3));
        let cfg = SimConfig {
            days: 60,
            r: 0.0012,
            seed: 3,
            initial_infections: 5,
            ..Default::default()
        };
        let (curve, states) = run_sequential_with_states(&pop, &flu_model(), &cfg);
        let t = transmission_stats(&states);
        // Every infection is a tree node.
        assert_eq!(t.cases, curve.total_infections());
        // Edges ≤ cases − seeds (some infectors are u32::MAX-unattributed).
        assert!(t.edges <= t.cases - curve.seeds);
        assert!(t.edges > 0, "a real outbreak has attributed transmissions");
        // Generation interval sits in the flu model's latent+infectious
        // window.
        assert!(
            (1.0..12.0).contains(&t.mean_generation_interval),
            "GI {}",
            t.mean_generation_interval
        );
        // Early Rt above 1 while the epidemic grows, below 1 near the end.
        let early: f64 = t.rt_by_day[0];
        assert!(early > 1.0, "seed-cohort Rt {early}");
        let last_day = t.rt_by_day.len() - 1;
        assert!(t.rt_by_day[last_day] < 1.0, "final-cohort Rt");
        // Offspring distribution sums to the case count.
        assert_eq!(t.offspring.iter().sum::<u64>(), t.cases);
        // Superspreading: the top 20% of infectors cause well over 20%.
        let share = t.top_infector_share(&states, 0.2);
        assert!(share > 0.4, "top-20% share {share}");
    }

    #[test]
    fn parallel_and_oracle_agree_on_tree() {
        use crate::distribution::{DataDistribution, Strategy};
        use crate::simulator::Simulator;
        use chare_rt::RuntimeConfig;
        let pop = Population::generate(&PopulationConfig::small("TR2", 1500, 9));
        let cfg = SimConfig {
            days: 25,
            r: 0.0015,
            seed: 9,
            initial_infections: 5,
            ..Default::default()
        };
        let (_, oracle_states) = run_sequential_with_states(&pop, &flu_model(), &cfg);
        let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 4, 9);
        let mut carry = crate::simulator::Carry::new(cfg.interventions.clone(), 5);
        let mut sim = Simulator::new(
            &dist,
            flu_model(),
            cfg.clone(),
            RuntimeConfig::sequential(4),
        );
        sim.run_days(0, cfg.days, &mut carry);
        let (par_states, _) = sim.dismantle();
        assert_eq!(
            transmission_stats(&oracle_states),
            transmission_stats(&par_states),
            "transmission trees must match across implementations"
        );
    }
}
