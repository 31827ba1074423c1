//! Measurement-driven dynamic load balancing — the paper's §VII plan,
//! implemented.
//!
//! "The work load in EpiSimdemics contains both deterministic and
//! non-deterministic portions. … Our plan is to address the dynamism by the
//! application-specific prediction of work load. The goal is to avoid
//! incurring excessive overhead by initiating LB phases without a
//! sufficient gain in performance … by using application-specific
//! information."
//!
//! The runner splits the simulation into epochs. After each epoch it reads
//! the *measured* per-location dynamic features (events and interactions,
//! accumulated by every LocationManager), estimates each location's dynamic
//! load, and — only when the measured imbalance exceeds a threshold
//! (avoiding gainless LB phases, per the quote) — re-partitions the
//! workload graph with the measured loads and migrates person/location
//! objects to their new homes. Migration is exact: person health states
//! carry over, so **rebalancing never changes the epidemic**, a property
//! the tests assert bit-for-bit.

use crate::distribution::DataDistribution;
use crate::kernel::LocationDayFeatures;
use crate::output::EpiCurve;
use crate::simulator::{Carry, SimConfig, SimRun, Simulator};
use crate::workload::{build_workload_graph_with, partition_workload};
use chare_rt::RuntimeConfig;
use graph_part::PartitionConfig;
use ptts::Ptts;

/// Rebalancing parameters.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceConfig {
    /// Days per epoch (the LB decision cadence).
    pub epoch_days: u32,
    /// Re-partition only when `max/avg` measured location load exceeds
    /// this (§VII: skip LB phases "without a sufficient gain").
    pub imbalance_threshold: f64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            epoch_days: 10,
            imbalance_threshold: 1.15,
        }
    }
}

/// What happened at one epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// First simulated day of the epoch.
    pub start_day: u32,
    /// Days actually simulated in the epoch.
    pub days: u32,
    /// Measured dynamic-load imbalance (max/avg over partitions) during
    /// the epoch.
    pub imbalance: f64,
    /// Whether the runner re-partitioned afterwards.
    pub repartitioned: bool,
}

/// A rebalanced run: the (unchanged) epidemic plus the LB decision log.
#[derive(Debug, Clone)]
pub struct RebalanceRun {
    /// Day-by-day results, identical to a run without rebalancing.
    pub run: SimRun,
    /// One report per epoch.
    pub epochs: Vec<EpochReport>,
}

/// Estimate a location's dynamic load from its measured features. Events
/// dominate; interactions add the transmission-computation term (the same
/// two leading features as the paper's Figure 3b model).
pub fn dynamic_load(f: &LocationDayFeatures) -> u64 {
    f.events + 2 * f.interactions
}

/// Measured imbalance of per-location loads under an assignment.
pub fn measured_imbalance(loads: &[u64], assignment: &[u32], k: u32) -> f64 {
    let mut per_part = vec![0u64; k as usize];
    for (&l, &p) in loads.iter().zip(assignment) {
        per_part[p as usize] += l;
    }
    let total: u64 = per_part.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let avg = total as f64 / k as f64;
    per_part.iter().copied().max().unwrap_or(0) as f64 / avg
}

/// Re-partition the workload graph using measured location loads for the
/// location-phase constraint.
fn repartition(dist: &DataDistribution, measured: &[u64], seed: u64) -> DataDistribution {
    let loads: Vec<u64> = measured.iter().map(|&m| m.max(1)).collect();
    let (graph, layout) = build_workload_graph_with(&dist.pop, &loads);
    let cfg = PartitionConfig::new(dist.k())
        .with_seed(seed)
        .with_ubfactor(1.10);
    let mut person_part = partition_workload(&graph, &layout, &cfg).assignment;
    let location_part = person_part.split_off(layout.n_people as usize);
    dist.with_partition(person_part, location_part)
}

/// Run the simulation with measurement-based rebalancing between epochs.
pub fn run_with_rebalancing(
    dist: &DataDistribution,
    ptts: Ptts,
    cfg: SimConfig,
    rt_cfg: RuntimeConfig,
    rb: RebalanceConfig,
) -> RebalanceRun {
    let population = dist.pop.n_people() as u64;
    let seeds = cfg.initial_infections.min(dist.pop.n_people()) as u64;
    let mut carry = Carry::new(cfg.interventions.clone(), seeds);
    let mut current = dist.clone();
    let mut states = None;
    let mut all_days = Vec::new();
    let mut all_perf = Vec::new();
    let mut epochs = Vec::new();
    let mut day = 0u32;
    let mut epoch = 0u32;

    while day < cfg.days {
        let end = (day + rb.epoch_days.max(1)).min(cfg.days);
        let mut sim =
            Simulator::with_states(&current, ptts.clone(), cfg.clone(), rt_cfg, states.take());
        let (day_stats, perf, extinct) = sim.run_days(day, end, &mut carry);
        let simulated = day_stats.len() as u32;
        all_days.extend(day_stats);
        all_perf.extend(perf);
        let (new_states, features) = sim.dismantle();

        let loads: Vec<u64> = features.iter().map(dynamic_load).collect();
        let imbalance = measured_imbalance(&loads, current.location_part(), current.k());
        let done = extinct || end >= cfg.days;
        let repartitioned = !done && current.k() > 1 && imbalance > rb.imbalance_threshold;
        if repartitioned {
            current = repartition(&current, &loads, cfg.seed.wrapping_add(epoch as u64));
        }
        epochs.push(EpochReport {
            epoch,
            start_day: day,
            days: simulated,
            imbalance,
            repartitioned,
        });
        states = Some(new_states);
        day += simulated.max(1);
        epoch += 1;
        if extinct {
            break;
        }
    }

    RebalanceRun {
        run: SimRun {
            curve: EpiCurve {
                population,
                seeds,
                days: all_days,
            },
            perf: all_perf,
        },
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Strategy;
    use ptts::flu_model;
    use synthpop::{Population, PopulationConfig};

    fn pop() -> Population {
        Population::generate(&PopulationConfig::small("RB", 3000, 41))
    }

    fn cfg(days: u32) -> SimConfig {
        SimConfig {
            days,
            r: 0.0012,
            seed: 41,
            initial_infections: 10,
            stop_when_extinct: false,
            ..Default::default()
        }
    }

    #[test]
    fn rebalancing_never_changes_the_epidemic() {
        let pop = pop();
        let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 6, 41);
        let plain = Simulator::new(&dist, flu_model(), cfg(30), RuntimeConfig::sequential(3)).run();
        let rb = run_with_rebalancing(
            &dist,
            flu_model(),
            cfg(30),
            RuntimeConfig::sequential(3),
            RebalanceConfig {
                epoch_days: 7,
                imbalance_threshold: 1.0, // force LB every epoch
            },
        );
        assert_eq!(plain.curve, rb.run.curve);
        assert!(rb.epochs.iter().any(|e| e.repartitioned));
        assert_eq!(rb.epochs.len(), 5, "30 days / 7-day epochs");
    }

    #[test]
    fn threshold_suppresses_gainless_lb() {
        let pop = pop();
        let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 41);
        let rb = run_with_rebalancing(
            &dist,
            flu_model(),
            cfg(20),
            RuntimeConfig::sequential(2),
            RebalanceConfig {
                epoch_days: 5,
                imbalance_threshold: 1e9, // nothing is ever this imbalanced
            },
        );
        assert!(rb.epochs.iter().all(|e| !e.repartitioned));
    }

    #[test]
    fn repartitioning_reduces_measured_imbalance() {
        // Start from a deliberately terrible distribution: all locations on
        // one partition. Rebalancing must fix it.
        let pop = pop();
        let rr = DataDistribution::build(&pop, Strategy::RoundRobin, 4, 41);
        let dist = rr.with_partition(rr.person_part().to_vec(), vec![0; rr.location_part().len()]);
        let rb = run_with_rebalancing(
            &dist,
            flu_model(),
            cfg(20),
            RuntimeConfig::sequential(2),
            RebalanceConfig {
                epoch_days: 5,
                imbalance_threshold: 1.2,
            },
        );
        let first = &rb.epochs[0];
        let last = rb.epochs.last().unwrap();
        assert!(first.repartitioned, "epoch 0 must trigger LB");
        assert!(
            (first.imbalance - 4.0).abs() < 1e-9,
            "all-on-one imbalance is k"
        );
        assert!(
            last.imbalance < 0.6 * first.imbalance,
            "imbalance {} → {}",
            first.imbalance,
            last.imbalance
        );
    }

    #[test]
    fn epoch_days_larger_than_run() {
        let pop = pop();
        let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 2, 41);
        let rb = run_with_rebalancing(
            &dist,
            flu_model(),
            cfg(5),
            RuntimeConfig::sequential(2),
            RebalanceConfig {
                epoch_days: 100,
                imbalance_threshold: 1.1,
            },
        );
        assert_eq!(rb.epochs.len(), 1);
        assert_eq!(rb.run.curve.days.len(), 5);
        assert!(
            !rb.epochs[0].repartitioned,
            "final epoch never repartitions"
        );
    }

    #[test]
    fn dynamic_load_weighs_interactions() {
        let f = LocationDayFeatures {
            events: 10,
            interactions: 5,
            sum_reciprocal_interactions: 0.0,
        };
        assert_eq!(dynamic_load(&f), 20);
    }

    #[test]
    fn measured_imbalance_bounds() {
        // Perfect balance → 1.0; all-on-one of k=4 → 4.0.
        let loads = [5u64, 5, 5, 5];
        assert!((measured_imbalance(&loads, &[0, 1, 2, 3], 4) - 1.0).abs() < 1e-12);
        assert!((measured_imbalance(&loads, &[0, 0, 0, 0], 4) - 4.0).abs() < 1e-12);
        assert_eq!(measured_imbalance(&[0, 0], &[0, 1], 2), 1.0);
    }
}
