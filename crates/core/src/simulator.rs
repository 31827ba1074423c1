//! The parallel simulation driver: the per-day phase loop of §II-B run on
//! the chare runtime.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::distribution::DataDistribution;
use crate::ensemble::CowWorld;
use crate::kernel::LocationDayFeatures;
use crate::managers::{LocationManager, PersonManager};
use crate::messages::{slots, DayEffects, Shared, SharedRef, SimMsg};
use crate::output::{DayStats, EpiCurve};
use chare_rt::{ChareId, PhaseStats, Runtime, RuntimeConfig};
use ptts::crng::{CounterRng, Purpose};
use ptts::intervention::{DayObservables, InterventionSet};
use ptts::Ptts;
use std::fmt;
use std::sync::Arc;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Days to simulate (the paper runs 120–180).
    pub days: u32,
    /// Base transmissibility per minute of contact.
    pub r: f64,
    /// Master seed (drives every stochastic decision).
    pub seed: u64,
    /// Number of initially infected persons.
    pub initial_infections: u32,
    /// Public-policy interventions.
    pub interventions: InterventionSet,
    /// Stop early once no one is infected and nothing is pending.
    pub stop_when_extinct: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            days: 120,
            r: 0.0001,
            seed: 42,
            initial_infections: 5,
            interventions: InterventionSet::none(),
            stop_when_extinct: true,
        }
    }
}

/// Per-day runtime counters: one [`PhaseStats`] per runtime phase. A day
/// is two phases, each closed by one global sync (PAPER.md §1).
#[derive(Debug, Clone, Default)]
pub struct DayPerf {
    /// Phase 1+2: person updates and visit messages (ends at the first
    /// completion detection).
    pub person_phase: PhaseStats,
    /// Phase 3–6: location DES, infect messages, infection application on
    /// arrival, and the global reduction (ends at the second completion
    /// detection).
    pub location_phase: PhaseStats,
    /// Always `PhaseStats::default()`: infections are applied inside the
    /// location phase. Kept only because a benchmark reader still sums it.
    pub apply_phase: PhaseStats,
}

/// Result of a run: the epidemic curve plus per-day runtime counters.
#[derive(Debug, Clone, Default)]
pub struct SimRun {
    /// Day-by-day epidemic statistics.
    pub curve: EpiCurve,
    /// Day-by-day runtime counters (message/packet/busy-time), used by the
    /// performance model.
    pub perf: Vec<DayPerf>,
}

/// Epidemic bookkeeping that persists across epochs when the simulation is
/// driven in spans (the §VII rebalancing path): intervention activation
/// state and the running global counts.
#[derive(Debug, Clone)]
pub struct Carry {
    /// Intervention activation state.
    pub interventions: InterventionSet,
    /// Cumulative infections so far (seeds included).
    pub cumulative: u64,
    /// New infections on the previous day.
    pub yesterday_new: u64,
    /// Infected count at the start of the previous day.
    pub yesterday_infected: u64,
}

impl Carry {
    /// Fresh bookkeeping for a run with `seeds` initial infections.
    pub fn new(interventions: InterventionSet, seeds: u64) -> Self {
        Carry {
            interventions,
            cumulative: seeds,
            yesterday_new: 0,
            yesterday_infected: seeds,
        }
    }
}

/// A day-boundary decision for externally driven runs (the episerve
/// worker pool): keep going, pause here (checkpointable — the runtime is
/// quiescent), or stop for good (cooperative cancel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DayControl {
    /// Simulate the next day.
    Continue,
    /// Stop after this day; the caller intends to checkpoint and resume.
    Pause,
    /// Stop after this day; the run is abandoned (cancel).
    Stop,
}

/// How an observed span of days ended (see [`Simulator::run_days_observed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunHalt {
    /// Reached `end` (or the epidemic went extinct first — the same
    /// "nothing left to do" outcome [`Simulator::run_days`] reports).
    Finished {
        /// Whether extinction cut the span short.
        extinct: bool,
    },
    /// The observer requested a pause; `next_day` is the first day *not*
    /// simulated (feed it to [`crate::checkpoint::capture`]).
    Paused {
        /// The day a resumed run must start from.
        next_day: u32,
    },
    /// The observer requested a cooperative stop (cancel).
    Stopped {
        /// The first day not simulated.
        next_day: u32,
    },
}

/// Why [`Simulator::resume_from`] refused a checkpoint file.
#[derive(Debug)]
pub enum ResumeError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The bytes failed structural or CRC validation
    /// ([`CheckpointError::BadCrc`] et al.).
    Corrupt(CheckpointError),
    /// The checkpoint decodes but does not belong to this invocation:
    /// wrong population size or a resume day beyond the configured run.
    Mismatch(String),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "checkpoint read failed: {e}"),
            ResumeError::Corrupt(e) => write!(f, "checkpoint invalid: {e}"),
            ResumeError::Mismatch(why) => write!(f, "checkpoint mismatch: {why}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// A simulator rebuilt from a checkpoint by [`Simulator::resume_from`],
/// ready to continue at `next_day` with `carry` — no manual
/// load→`to_carry`→`with_states` wiring.
pub struct Resumed {
    /// The rebuilt simulator (person states restored).
    pub sim: Simulator,
    /// Epidemic bookkeeping as of the checkpoint.
    pub carry: Carry,
    /// First day to simulate.
    pub next_day: u32,
    /// Initial seeded infections (for `EpiCurve` bookkeeping).
    pub seeds: u64,
}

// Manual impl: `Simulator` holds a live runtime and has no useful Debug
// form; the resume bookkeeping is what matters in assertions.
impl std::fmt::Debug for Resumed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resumed")
            .field("next_day", &self.next_day)
            .field("seeds", &self.seeds)
            .finish_non_exhaustive()
    }
}

/// The parallel simulator.
pub struct Simulator {
    runtime: Runtime<SimMsg>,
    shared: SharedRef,
    cfg: SimConfig,
    n_pm: u32,
    n_lm: u32,
}

impl Simulator {
    /// Assemble a simulator: one PersonManager and one LocationManager
    /// chare per partition of `dist`, placed in contiguous blocks by
    /// [`crate::engine::pe_for_partition`] (placement never affects the
    /// epidemic — see the distribution tests). Persons start in the
    /// disease's start state with `initial_infections` seeded
    /// deterministically.
    pub fn new(
        dist: &DataDistribution,
        ptts: Ptts,
        cfg: SimConfig,
        rt_cfg: RuntimeConfig,
    ) -> Simulator {
        Self::with_states(dist, ptts, cfg, rt_cfg, None)
    }

    /// Like [`Simulator::new`] but resuming from pre-existing person states
    /// (indexed by person id) — the chare-migration path used between
    /// rebalancing epochs. When `states` is `None`, fresh persons are
    /// created and initial infections are seeded.
    pub fn with_states(
        dist: &DataDistribution,
        ptts: Ptts,
        cfg: SimConfig,
        rt_cfg: RuntimeConfig,
        states: Option<Vec<crate::person::PersonSlot>>,
    ) -> Simulator {
        Self::from_world(&CowWorld::build(dist, ptts), cfg, rt_cfg, states)
    }

    /// Build a simulator over a pre-built copy-on-write world: the
    /// population, disease model, and layout maps are aliased (`Arc`
    /// clones), never deep-copied. This is the entry point the ensemble
    /// scheduler uses to stamp out many members from one world.
    pub fn from_world(
        world: &CowWorld,
        cfg: SimConfig,
        rt_cfg: RuntimeConfig,
        states: Option<Vec<crate::person::PersonSlot>>,
    ) -> Simulator {
        let k = world.layout.k;
        let n_people = world.pop.n_people() as usize;
        if let Some(st) = &states {
            assert_eq!(st.len(), n_people, "states must cover every person");
        }

        let shared: SharedRef = Arc::new(Shared {
            pop: world.pop.clone(),
            ptts: world.ptts.clone(),
            layout: world.layout.clone(),
            r: cfg.r,
            seed: cfg.seed,
            lane_cap: crate::managers::lane_cap(rt_cfg.aggregation),
            exactly_once: rt_cfg.faults.is_benign(),
        });

        // Choose initial infections deterministically (fresh runs only).
        let seeds = if states.is_none() {
            let mut set = std::collections::BTreeSet::new();
            let mut rng = CounterRng::for_entity(cfg.seed, 0, 0, Purpose::Synthesis);
            let want = (cfg.initial_infections as usize).min(n_people);
            while set.len() < want {
                set.insert(rng.uniform_u64(n_people as u64) as u32);
            }
            set
        } else {
            std::collections::BTreeSet::new()
        };

        let mut runtime = Runtime::new(rt_cfg);
        let n_pes = rt_cfg.n_pes;
        for part in 0..k {
            let ids = &world.layout.persons_per_part[part as usize];
            let mut pm = match &states {
                Some(st) => PersonManager::with_states(
                    shared.clone(),
                    ids.iter().map(|&pid| st[pid as usize]).collect(),
                ),
                None => PersonManager::new(shared.clone(), ids.clone()),
            };
            for (local, &pid) in ids.iter().enumerate() {
                if seeds.contains(&pid) {
                    pm.seed_infection(local as u32);
                }
            }
            let pe = crate::engine::pe_for_partition(part, k, n_pes);
            runtime.add_chare(ChareId(part), pe, Box::new(pm));
            let lm = LocationManager::new(
                shared.clone(),
                world.layout.locations_per_part[part as usize].clone(),
            );
            runtime.add_chare(ChareId(k + part), pe, Box::new(lm));
        }

        Simulator {
            runtime,
            shared,
            cfg,
            n_pm: k,
            n_lm: k,
        }
    }

    /// Run days `start..end`, updating `carry`. Returns the day statistics,
    /// the per-day runtime counters, and whether the epidemic went extinct.
    pub fn run_days(
        &mut self,
        start: u32,
        end: u32,
        carry: &mut Carry,
    ) -> (Vec<DayStats>, Vec<DayPerf>, bool) {
        let (days, perf, halt) =
            self.run_days_observed(start, end, carry, &mut |_| DayControl::Continue);
        let extinct = matches!(halt, RunHalt::Finished { extinct: true });
        (days, perf, extinct)
    }

    /// Like [`Simulator::run_days`], but `observe` sees every finished
    /// day's [`DayStats`] *at the day boundary* — a global quiescence
    /// point — and decides whether to continue, pause (checkpoint next),
    /// or stop (cooperative cancel). This is the lifecycle hook the
    /// episerve worker pool drives: per-day curve streaming, pause, and
    /// cancel all ride on the returned [`DayControl`].
    pub fn run_days_observed(
        &mut self,
        start: u32,
        end: u32,
        carry: &mut Carry,
        observe: &mut dyn FnMut(&DayStats) -> DayControl,
    ) -> (Vec<DayStats>, Vec<DayPerf>, RunHalt) {
        let population = self.shared.pop.n_people() as u64;
        let mut days = Vec::new();
        let mut perf = Vec::new();
        let mut halt = RunHalt::Finished { extinct: false };

        for day in start..end {
            // Step 0: interventions react to yesterday's global state.
            let obs = DayObservables {
                day,
                infected_now: carry.yesterday_infected,
                new_cases: carry.yesterday_new,
                cumulative: carry.cumulative,
                population,
            };
            let fx = carry.interventions.evaluate(&obs);
            let effects = DayEffects {
                closed_kinds: DayEffects::from_flags(&fx.closed_kinds),
                r_scale: fx.r_scale,
                vaccinations: fx.vaccinations,
            };
            let r_eff = self.shared.r * effects.r_scale;

            // Phase 1+2: person phase.
            let injections: Vec<(ChareId, SimMsg)> = (0..self.n_pm)
                .map(|pm| {
                    (
                        ChareId(pm),
                        SimMsg::BeginDay {
                            day,
                            effects: effects.clone(),
                        },
                    )
                })
                .collect();
            let person_phase = self.runtime.run_phase(injections);

            // Phase 3–6: location phase; PersonManagers apply infects as
            // they arrive, so its close also carries the new infections.
            let injections: Vec<(ChareId, SimMsg)> = (0..self.n_lm)
                .map(|lm| (ChareId(self.n_pm + lm), SimMsg::ComputeDay { day, r_eff }))
                .collect();
            let location_phase = self.runtime.run_phase(injections);

            let new_infections = location_phase.reduction(slots::NEW_INFECTIONS);
            carry.cumulative += new_infections;
            let stats = DayStats {
                day,
                new_infections,
                infected_now: person_phase.reduction(slots::INFECTED_NOW),
                susceptible: person_phase.reduction(slots::SUSCEPTIBLE),
                symptomatic: person_phase.reduction(slots::SYMPTOMATIC),
                cumulative: carry.cumulative,
                visits: person_phase.reduction(slots::VISITS_SENT),
                events: location_phase.reduction(slots::EVENTS),
                interactions: location_phase.reduction(slots::INTERACTIONS),
                infects_sent: location_phase.reduction(slots::INFECTS_SENT),
                infections_by_kind: std::array::from_fn(|k| {
                    location_phase.reduction(slots::BY_KIND_BASE + k)
                }),
            };
            carry.yesterday_new = new_infections;
            carry.yesterday_infected = stats.infected_now;
            let control = observe(&stats);
            let infected_now = stats.infected_now;
            days.push(stats);
            perf.push(DayPerf {
                person_phase,
                location_phase,
                apply_phase: PhaseStats::default(),
            });
            if self.cfg.stop_when_extinct && infected_now == 0 && new_infections == 0 && day > 0 {
                halt = RunHalt::Finished { extinct: true };
                break;
            }
            match control {
                DayControl::Continue => {}
                DayControl::Pause => {
                    halt = RunHalt::Paused { next_day: day + 1 };
                    break;
                }
                DayControl::Stop => {
                    halt = RunHalt::Stopped { next_day: day + 1 };
                    break;
                }
            }
        }
        (days, perf, halt)
    }

    /// Rebuild a paused run from a checkpoint file in one step: read,
    /// CRC-validate ([`Checkpoint::decode`]), check the checkpoint against
    /// this invocation (person count must match the population, the resume
    /// day must lie inside `cfg.days`), and wire the restored person
    /// states and [`Carry`] into a fresh simulator. Replaces the manual
    /// `load` → `to_carry` → `with_states` → `run_days(next_day, …)`
    /// dance; continuing from the result is bit-exact (the checkpoint
    /// tests pin this).
    pub fn resume_from(
        path: &std::path::Path,
        dist: &DataDistribution,
        ptts: Ptts,
        cfg: SimConfig,
        rt_cfg: RuntimeConfig,
    ) -> Result<Resumed, ResumeError> {
        let data = std::fs::read(path).map_err(ResumeError::Io)?;
        let ckpt = Checkpoint::decode(&data).map_err(ResumeError::Corrupt)?;
        let n_people = dist.pop.n_people() as usize;
        if ckpt.states.len() != n_people {
            return Err(ResumeError::Mismatch(format!(
                "checkpoint holds {} persons but the population has {n_people}",
                ckpt.states.len()
            )));
        }
        if ckpt.next_day > cfg.days {
            return Err(ResumeError::Mismatch(format!(
                "checkpoint resumes at day {} but the run is only {} days",
                ckpt.next_day, cfg.days
            )));
        }
        let carry = ckpt.to_carry(&cfg.interventions);
        let next_day = ckpt.next_day;
        let seeds = ckpt.seeds;
        let sim = Simulator::with_states(dist, ptts, cfg, rt_cfg, Some(ckpt.states));
        Ok(Resumed {
            sim,
            carry,
            next_day,
            seeds,
        })
    }

    /// SPMD rank of the underlying runtime (0 outside `ExecMode::Net`).
    pub fn net_rank(&self) -> u32 {
        self.runtime.net_rank()
    }

    /// Snapshot every locally-hosted chare that carries persistent state
    /// (see [`chare_rt::Chare::snapshot`]) as `(chare id, blob)` pairs.
    /// At a day boundary the runtime is quiescent, so the blobs form this
    /// rank's shard of a consistent global checkpoint.
    pub fn snapshot_chares(&self) -> Vec<(u32, Vec<u8>)> {
        self.runtime.snapshot_local()
    }

    /// Count a committed recovery checkpoint in the runtime stats.
    pub fn note_checkpoint(&mut self) {
        self.runtime.note_checkpoint();
    }

    /// Count a rollback restore in the runtime stats.
    pub fn note_restore(&mut self) {
        self.runtime.note_restore();
    }

    /// Tear down, reclaiming per-person states (indexed by person id) and
    /// each location's accumulated dynamic features (indexed by global
    /// location id).
    pub fn dismantle(self) -> (Vec<crate::person::PersonSlot>, Vec<LocationDayFeatures>) {
        let n_people = self.shared.pop.n_people() as usize;
        let n_locations = self.shared.pop.n_locations() as usize;
        let ptts = &self.shared.ptts;
        let mut states: Vec<crate::person::PersonSlot> = (0..n_people)
            .map(|p| crate::person::PersonSlot::new(p as u32, ptts))
            .collect();
        let mut features = vec![LocationDayFeatures::default(); n_locations];
        let n_pm = self.n_pm;
        for (id, chare) in self.runtime.into_chares() {
            let any = chare.into_any();
            if id.0 < n_pm {
                let pm = any
                    .downcast::<PersonManager>()
                    .expect("PM chare ids hold PersonManagers");
                for slot in pm.into_persons() {
                    states[slot.id as usize] = slot;
                }
            } else {
                let lm = any
                    .downcast::<LocationManager>()
                    .expect("LM chare ids hold LocationManagers");
                for (li, &loc) in lm.locations().iter().enumerate() {
                    features[loc as usize] = lm.feature_totals[li];
                }
            }
        }
        (states, features)
    }

    /// Run the full simulation and also return the final person states
    /// (carrying the transmission tree) and per-location accumulated
    /// dynamic features.
    pub fn run_collecting(
        mut self,
    ) -> (
        SimRun,
        Vec<crate::person::PersonSlot>,
        Vec<LocationDayFeatures>,
    ) {
        let population = self.shared.pop.n_people() as u64;
        let seeds = self.cfg.initial_infections.min(self.shared.pop.n_people()) as u64;
        let mut carry = Carry::new(self.cfg.interventions.clone(), seeds);
        let days = self.cfg.days;
        let (day_stats, perf, _extinct) = self.run_days(0, days, &mut carry);
        let run = SimRun {
            curve: EpiCurve {
                population,
                seeds,
                days: day_stats,
            },
            perf,
        };
        let (states, features) = self.dismantle();
        (run, states, features)
    }

    /// Engine-agnostic entry point: build a simulator and run it to the
    /// epidemic curve under any [`RuntimeConfig`] — sequential, threaded,
    /// or the virtual-time DST engine with a fault plan. The conformance
    /// suites call this once per (engine, fault plan, seed) cell and
    /// compare [`EpiCurve::hash`] values; DESIGN.md §7 requires them to be
    /// identical for every engine and every benign plan.
    pub fn run_curve(
        dist: &DataDistribution,
        ptts: Ptts,
        cfg: SimConfig,
        rt_cfg: RuntimeConfig,
    ) -> EpiCurve {
        Simulator::new(dist, ptts, cfg, rt_cfg).run().curve
    }

    /// Run the full simulation.
    pub fn run(mut self) -> SimRun {
        let population = self.shared.pop.n_people() as u64;
        let seeds = self.cfg.initial_infections.min(self.shared.pop.n_people()) as u64;
        let mut carry = Carry::new(self.cfg.interventions.clone(), seeds);
        let days = self.cfg.days;
        let (day_stats, perf, _extinct) = self.run_days(0, days, &mut carry);
        SimRun {
            curve: EpiCurve {
                population,
                seeds,
                days: day_stats,
            },
            perf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Strategy;
    use ptts::flu_model;
    use synthpop::{Population, PopulationConfig};

    fn small_pop() -> Population {
        Population::generate(&PopulationConfig::small("T", 1500, 11))
    }

    fn run(strategy: Strategy, k: u32, rt: RuntimeConfig, seed: u64) -> SimRun {
        let pop = small_pop();
        let dist = DataDistribution::build(&pop, strategy, k, seed);
        let cfg = SimConfig {
            days: 40,
            r: 0.0012,
            seed,
            initial_infections: 8,
            ..Default::default()
        };
        Simulator::new(&dist, flu_model(), cfg, rt).run()
    }

    #[test]
    fn epidemic_spreads_and_ends() {
        let run = run(Strategy::RoundRobin, 4, RuntimeConfig::sequential(4), 7);
        let total = run.curve.total_infections();
        assert!(total > 50, "epidemic should take off (total {total})");
        assert!(run.curve.attack_rate() <= 1.0);
        // Daily visits roughly population × 5.5.
        let d0 = &run.curve.days[0];
        assert!(
            d0.visits > 1500 * 4 && d0.visits < 1500 * 9,
            "{}",
            d0.visits
        );
        assert_eq!(d0.events, 2 * d0.visits);
    }

    #[test]
    fn distributions_do_not_change_results() {
        // The epidemic trajectory must be identical under every data
        // distribution (including splitLoc — Figure 6a's no-added-
        // communication split is correctness-preserving).
        let base = run(Strategy::RoundRobin, 3, RuntimeConfig::sequential(3), 5);
        for strategy in [
            Strategy::GraphPartition,
            Strategy::RoundRobinSplit,
            Strategy::GraphPartitionSplit,
        ] {
            let other = run(strategy, 3, RuntimeConfig::sequential(3), 5);
            assert_eq!(
                base.curve.new_infection_series(),
                other.curve.new_infection_series(),
                "strategy {strategy:?} changed the epidemic"
            );
        }
    }

    #[test]
    fn pe_count_does_not_change_results() {
        let one = run(Strategy::GraphPartition, 4, RuntimeConfig::sequential(1), 9);
        let four = run(Strategy::GraphPartition, 4, RuntimeConfig::sequential(4), 9);
        assert_eq!(
            one.curve.new_infection_series(),
            four.curve.new_infection_series()
        );
    }

    #[test]
    fn threaded_matches_sequential() {
        let seq = run(Strategy::GraphPartition, 4, RuntimeConfig::sequential(2), 3);
        let thr = run(Strategy::GraphPartition, 4, RuntimeConfig::threaded(2), 3);
        assert_eq!(
            seq.curve.new_infection_series(),
            thr.curve.new_infection_series()
        );
        assert_eq!(seq.curve.days.len(), thr.curve.days.len());
    }

    #[test]
    fn seeds_counted_in_cumulative() {
        let r = run(Strategy::RoundRobin, 2, RuntimeConfig::sequential(2), 1);
        assert!(r.curve.total_infections() >= 8);
        assert_eq!(r.curve.seeds, 8);
    }

    #[test]
    fn perf_counters_present() {
        let r = run(Strategy::RoundRobin, 4, RuntimeConfig::sequential(4), 7);
        assert_eq!(r.perf.len(), r.curve.days.len());
        let day0 = &r.perf[0];
        assert_eq!(day0.person_phase.per_pe.len(), 4);
        // The person phase carries the visit traffic.
        assert!(day0.person_phase.totals().sent_total() > 0);
        assert!(day0.person_phase.totals().busy_ns > 0);
    }

    #[test]
    fn observed_run_matches_plain_run_and_pauses_at_boundary() {
        let pop = small_pop();
        let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 3, 5);
        let cfg = SimConfig {
            days: 20,
            r: 0.0012,
            seed: 5,
            initial_infections: 8,
            stop_when_extinct: false,
            ..Default::default()
        };
        let plain = Simulator::new(
            &dist,
            flu_model(),
            cfg.clone(),
            RuntimeConfig::sequential(3),
        )
        .run()
        .curve;

        // Observe every day, pause at day 7: the prefix must be identical
        // and the halt must name day 8 as the resume point.
        let mut sim = Simulator::new(
            &dist,
            flu_model(),
            cfg.clone(),
            RuntimeConfig::sequential(3),
        );
        let mut carry = Carry::new(cfg.interventions.clone(), 8);
        let mut seen = Vec::new();
        let (days, _, halt) = sim.run_days_observed(0, 20, &mut carry, &mut |d| {
            seen.push(d.day);
            if d.day == 7 {
                DayControl::Pause
            } else {
                DayControl::Continue
            }
        });
        assert_eq!(halt, RunHalt::Paused { next_day: 8 });
        assert_eq!(days.len(), 8);
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert_eq!(days.as_slice(), &plain.days[..8]);

        // Stop is the cooperative cancel: same boundary semantics.
        let mut sim = Simulator::new(
            &dist,
            flu_model(),
            cfg.clone(),
            RuntimeConfig::sequential(3),
        );
        let mut carry = Carry::new(cfg.interventions.clone(), 8);
        let (days, _, halt) = sim.run_days_observed(0, 20, &mut carry, &mut |d| {
            if d.day >= 3 {
                DayControl::Stop
            } else {
                DayControl::Continue
            }
        });
        assert_eq!(halt, RunHalt::Stopped { next_day: 4 });
        assert_eq!(days.len(), 4);
    }

    #[test]
    fn resume_from_is_bit_exact_and_typed_errors() {
        use crate::checkpoint::capture;
        let pop = small_pop();
        let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 3, 9);
        let cfg = SimConfig {
            days: 24,
            r: 0.0012,
            seed: 9,
            initial_infections: 8,
            stop_when_extinct: false,
            ..Default::default()
        };
        let straight = Simulator::new(
            &dist,
            flu_model(),
            cfg.clone(),
            RuntimeConfig::sequential(3),
        )
        .run()
        .curve;

        let mut sim = Simulator::new(
            &dist,
            flu_model(),
            cfg.clone(),
            RuntimeConfig::sequential(3),
        );
        let mut carry = Carry::new(cfg.interventions.clone(), 8);
        let (mut days, _, _) = sim.run_days(0, 12, &mut carry);
        let (states, _) = sim.dismantle();
        let ckpt = capture(12, 8, &carry, states);
        let dir = std::env::temp_dir().join(format!("episim-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.epck");
        ckpt.save(&path).unwrap();

        let resumed = Simulator::resume_from(
            &path,
            &dist,
            flu_model(),
            cfg.clone(),
            RuntimeConfig::sequential(3),
        )
        .expect("valid checkpoint resumes");
        assert_eq!(resumed.next_day, 12);
        assert_eq!(resumed.seeds, 8);
        let mut carry2 = resumed.carry;
        let mut sim2 = resumed.sim;
        let (tail, _, _) = sim2.run_days(12, 24, &mut carry2);
        days.extend(tail);
        assert_eq!(days, straight.days, "resume_from must be bit-exact");

        // Missing file → Io.
        let err = Simulator::resume_from(
            &dir.join("absent.epck"),
            &dist,
            flu_model(),
            cfg.clone(),
            RuntimeConfig::sequential(3),
        )
        .unwrap_err();
        assert!(matches!(err, ResumeError::Io(_)), "{err}");

        // Bit-flipped body → Corrupt (CRC).
        let mut bad = std::fs::read(&path).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let bad_path = dir.join("bad.epck");
        std::fs::write(&bad_path, &bad).unwrap();
        let err = Simulator::resume_from(
            &bad_path,
            &dist,
            flu_model(),
            cfg.clone(),
            RuntimeConfig::sequential(3),
        )
        .unwrap_err();
        assert!(matches!(err, ResumeError::Corrupt(_)), "{err}");

        // Wrong population → Mismatch.
        let other_pop = Population::generate(&PopulationConfig::small("XL", 2500, 12));
        let other_dist = DataDistribution::build(&other_pop, Strategy::RoundRobin, 3, 9);
        let err = Simulator::resume_from(
            &path,
            &other_dist,
            flu_model(),
            cfg.clone(),
            RuntimeConfig::sequential(3),
        )
        .unwrap_err();
        assert!(matches!(err, ResumeError::Mismatch(_)), "{err}");

        // Resume day beyond the configured run → Mismatch.
        let short_cfg = SimConfig { days: 5, ..cfg };
        let err = Simulator::resume_from(
            &path,
            &dist,
            flu_model(),
            short_cfg,
            RuntimeConfig::sequential(3),
        )
        .unwrap_err();
        assert!(matches!(err, ResumeError::Mismatch(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_r_means_no_spread() {
        let pop = small_pop();
        let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 2, 1);
        let cfg = SimConfig {
            days: 30,
            r: 0.0,
            seed: 1,
            initial_infections: 5,
            ..Default::default()
        };
        let run = Simulator::new(&dist, flu_model(), cfg, RuntimeConfig::sequential(2)).run();
        assert_eq!(run.curve.total_infections(), 5);
        // Early exit once the seeds recover.
        assert!(run.curve.days.len() < 30);
    }
}
