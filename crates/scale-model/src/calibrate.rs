//! Calibrating the machine model against measured runs of the real
//! simulator.
//!
//! The paper builds its load model "by measuring LocationManagers'
//! processing time" (§III-A); we do the same: the sequential chare engine
//! records per-PE busy nanoseconds for every phase, and this module turns a
//! measured [`episim_core::simulator::SimRun`] into the two compute
//! constants the projection needs.

use crate::machine::MachineModel;
use episim_core::simulator::SimRun;
use serde::{Deserialize, Serialize};

/// Calibrated compute constants with their supporting measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Measured nanoseconds per person-visit in phase 1.
    pub person_visit_ns: f64,
    /// Measured scale factor from load-model units to this machine's
    /// nanoseconds in phase 3.
    pub location_unit_scale: f64,
    /// Total visits observed.
    pub visits: u64,
    /// Total location-phase busy nanoseconds observed.
    pub location_busy_ns: u64,
}

/// Fit the per-visit and location-unit constants from a measured run of
/// the paper's protocol (`RuntimeConfig::no_opt`), the one the projection
/// models: a message per visit from the person phase, and every location's
/// DES. `None` for an empty run or a delta-day run (aggregation on), whose
/// person phase sends fewer messages than there are visits.
///
/// `location_units` is the summed static-model load (in `LoadUnits`) of the
/// population the run executed, so the scale is measured-ns per unit.
pub fn calibrate_from_run(run: &SimRun, location_units_per_day: u64) -> Option<Calibration> {
    let mut visits = 0u64;
    let mut visit_messages = 0u64;
    let mut person_busy = 0u64;
    let mut location_busy = 0u64;
    for (day, perf) in run.perf.iter().enumerate() {
        visits += run.curve.days.get(day).map(|d| d.visits).unwrap_or(0);
        visit_messages += perf.person_phase.totals().sent_total();
        person_busy += perf.person_phase.totals().busy_ns;
        location_busy += perf.location_phase.totals().busy_ns;
    }
    if visits == 0 || visit_messages < visits || location_units_per_day == 0 {
        return None;
    }
    let days = run.perf.len() as u64;
    Some(Calibration {
        person_visit_ns: person_busy as f64 / visits as f64,
        location_unit_scale: location_busy as f64 / (location_units_per_day * days) as f64,
        visits,
        location_busy_ns: location_busy,
    })
}

impl Calibration {
    /// Produce a machine model with this machine's measured compute
    /// constants and default (XE6) communication constants.
    pub fn apply_to(&self, mut machine: MachineModel) -> MachineModel {
        machine.person_visit_ns = self.person_visit_ns;
        machine.location_unit_scale = self.location_unit_scale;
        machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chare_rt::RuntimeConfig;
    use episim_core::distribution::{DataDistribution, Strategy};
    use episim_core::simulator::{SimConfig, Simulator};
    use load_model::{LoadUnits, PiecewiseModel};
    use ptts::flu_model;
    use synthpop::{Population, PopulationConfig};

    #[test]
    fn calibration_from_real_run_is_sane() {
        let pop = Population::generate(&PopulationConfig::small("T", 1500, 3));
        let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 2, 1);
        let units: u64 = episim_core::workload::location_static_loads(
            &dist.pop,
            &PiecewiseModel::paper_constants(),
            LoadUnits::default(),
        )
        .iter()
        .sum();
        let cfg = SimConfig {
            days: 5,
            r: 0.001,
            seed: 1,
            initial_infections: 5,
            stop_when_extinct: false,
            ..Default::default()
        };
        let no_opt = RuntimeConfig::sequential(2).no_opt();
        let run = Simulator::new(&dist, flu_model(), cfg.clone(), no_opt).run();
        let cal = calibrate_from_run(&run, units).expect("calibration");
        assert!(cal.person_visit_ns > 1.0, "{}", cal.person_visit_ns);
        assert!(cal.person_visit_ns < 1e6);
        assert!(cal.location_unit_scale > 0.0);
        let m = cal.apply_to(MachineModel::default());
        assert_eq!(m.person_visit_ns, cal.person_visit_ns);
        // A delta day prices neither constant.
        let deltas = Simulator::new(&dist, flu_model(), cfg, RuntimeConfig::sequential(2)).run();
        assert!(calibrate_from_run(&deltas, units).is_none());
    }

    #[test]
    fn empty_run_yields_none() {
        let run = SimRun::default();
        assert!(calibrate_from_run(&run, 100).is_none());
    }
}
