//! The parallel simulation driver: the per-day phase loop of §II-B run on
//! the chare runtime.

use crate::checkpoint::Checkpoint;
use crate::distribution::DataDistribution;
use crate::kernel::LocationDayFeatures;
use crate::layout::SweepLayout;
use crate::managers::{LocationManager, PersonManager};
use crate::messages::{slots, DayEffects, Shared, SharedRef, SimMsg};
use crate::output::{DayStats, EpiCurve};
use crate::person::PersonSlot;
use chare_rt::{ChareId, PhaseStats, RecoveryError, Runtime, RuntimeConfig};
use ptts::crng::{CounterRng, Purpose};
use ptts::intervention::{DayObservables, InterventionSet};
use ptts::Ptts;
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

/// Epidemic bookkeeping that persists from one span of days to the next
/// ([`Simulator::run_days`], a checkpoint and its resume): intervention
/// activation state and the running global counts.
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

/// A simulator rebuilt from a checkpoint by [`Simulator::resume`], ready
/// to continue at `next_day` with `carry`.
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
    /// (indexed by person id), which [`Simulator::resume`] takes from a
    /// checkpoint of any distribution of the population. When `states` is
    /// `None`, fresh persons are created and initial infections are seeded.
    fn with_states(
        dist: &DataDistribution,
        ptts: Ptts,
        cfg: SimConfig,
        rt_cfg: RuntimeConfig,
        states: Option<Vec<PersonSlot>>,
    ) -> Simulator {
        // The runtime first: under the net engine it spawns the workers,
        // which then lay out their partitions while this process lays out
        // its own.
        let mut runtime = Runtime::new(rt_cfg);
        let (k, pes) = (dist.k(), runtime.local_pes());
        let hosted: Vec<bool> = (0..k)
            .map(|part| pes.contains(&crate::engine::pe_for_partition(part, k, rt_cfg.n_pes)))
            .collect();
        let sweep = if dist.built_sweep_layout().is_some() || hosted.iter().all(|&h| h) {
            dist.sweep_layout()
        } else {
            Arc::new(SweepLayout::of_world(dist, &hosted))
        };
        let n_people = dist.pop.n_people() as usize;
        if let Some(st) = &states {
            assert_eq!(st.len(), n_people, "states must cover every person");
        }

        let shared: SharedRef = Arc::new(Shared {
            world: dist.clone(),
            ptts: Arc::new(ptts),
            sweep,
            r: cfg.r,
            seed: cfg.seed,
            aggregated: runtime.config().aggregation.enabled,
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

        let n_pes = runtime.config().n_pes;
        for part in 0..k {
            let persons = dist.persons_of(part).iter().map(|&pid| match &states {
                Some(st) => st[pid as usize],
                None => {
                    let mut slot = PersonSlot::new(pid, &shared.ptts);
                    if seeds.contains(&pid) {
                        slot.seed(&shared.ptts, cfg.seed);
                    }
                    slot
                }
            });
            let pm = PersonManager::new(shared.clone(), persons.collect());
            let pe = crate::engine::pe_for_partition(part, k, n_pes);
            runtime.add_chare(ChareId(part), pe, Box::new(pm));
            let lm = LocationManager::new(shared.clone(), part);
            runtime.add_chare(ChareId(k + part), pe, Box::new(lm));
        }

        Simulator {
            runtime,
            shared,
            cfg,
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
        let (population, k) = (
            self.shared.world.pop.n_people() as u64,
            self.shared.world.k(),
        );
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
            let injections: Vec<(ChareId, SimMsg)> = (0..k)
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
            let injections: Vec<(ChareId, SimMsg)> = (0..k)
                .map(|lm| {
                    let msg = SimMsg::ComputeDay {
                        day,
                        r_eff,
                        closed_kinds: effects.closed_kinds,
                    };
                    (ChareId(k + lm), msg)
                })
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
                visits: location_phase.reduction(slots::EVENTS) / 2,
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

    /// Rebuild a run from a checkpoint: check it against this invocation
    /// (the person count must match the population, the resume day must
    /// lie inside `cfg.days`) and wire its person states and [`Carry`]
    /// into a fresh simulator. Continuing from the result at `next_day` is
    /// bit-exact (the checkpoint tests pin this).
    pub fn resume(
        ckpt: Checkpoint,
        dist: &DataDistribution,
        ptts: Ptts,
        cfg: SimConfig,
        rt_cfg: RuntimeConfig,
    ) -> Result<Resumed, RecoveryError> {
        let n_people = dist.pop.n_people() as usize;
        if ckpt.states.len() != n_people {
            return Err(RecoveryError::ShardMismatch(format!(
                "checkpoint holds {} persons but the population has {n_people}",
                ckpt.states.len()
            )));
        }
        if ckpt.next_day > cfg.days {
            return Err(RecoveryError::ShardMismatch(format!(
                "checkpoint resumes at day {} but the run is only {} days",
                ckpt.next_day, cfg.days
            )));
        }
        let carry = ckpt.to_carry(&cfg.interventions);
        let (next_day, seeds) = (ckpt.next_day, ckpt.seeds);
        let sim = Simulator::with_states(dist, ptts, cfg, rt_cfg, Some(ckpt.states));
        Ok(Resumed {
            sim,
            carry,
            next_day,
            seeds,
        })
    }

    /// [`Checkpoint::load`] then [`Simulator::resume`].
    pub fn resume_from(
        path: &std::path::Path,
        dist: &DataDistribution,
        ptts: Ptts,
        cfg: SimConfig,
        rt_cfg: RuntimeConfig,
    ) -> Result<Resumed, RecoveryError> {
        Self::resume(Checkpoint::load(path)?, dist, ptts, cfg, rt_cfg)
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
    pub fn dismantle(self) -> (Vec<PersonSlot>, Vec<LocationDayFeatures>) {
        let n_people = self.shared.world.pop.n_people() as usize;
        let n_locations = self.shared.world.pop.n_locations() as usize;
        let ptts = &self.shared.ptts;
        let mut states: Vec<PersonSlot> = (0..n_people)
            .map(|p| PersonSlot::new(p as u32, ptts))
            .collect();
        let mut features = vec![LocationDayFeatures::default(); n_locations];
        let n_pm = self.shared.world.k();
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
                for (&loc, totals) in lm.locations().iter().zip(lm.feature_totals()) {
                    features[loc as usize] = totals;
                }
            }
        }
        (states, features)
    }

    /// Run the full simulation and also return the final person states
    /// (carrying the transmission tree).
    pub fn run_collecting(mut self) -> (SimRun, Vec<PersonSlot>) {
        let run = self.run_all();
        (run, self.dismantle().0)
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
        self.run_all()
    }

    fn run_all(&mut self) -> SimRun {
        let population = self.shared.world.pop.n_people() as u64;
        let seeds = self
            .cfg
            .initial_infections
            .min(self.shared.world.pop.n_people()) as u64;
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
        let path = dir.join("job.ckpt");
        ckpt.save(&path).unwrap();

        let resume = |path: &std::path::Path, dist: &DataDistribution, cfg: &SimConfig| {
            let rt = RuntimeConfig::sequential(3);
            Simulator::resume_from(path, dist, flu_model(), cfg.clone(), rt)
        };
        let resumed = resume(&path, &dist, &cfg).expect("valid checkpoint resumes");
        assert_eq!(resumed.next_day, 12);
        assert_eq!(resumed.seeds, 8);
        let mut carry2 = resumed.carry;
        let mut sim2 = resumed.sim;
        let (tail, _, _) = sim2.run_days(12, 24, &mut carry2);
        days.extend(tail);
        assert_eq!(days, straight.days, "resume_from must be bit-exact");

        // Missing file → Io.
        let err = resume(&dir.join("absent.ckpt"), &dist, &cfg).unwrap_err();
        assert!(matches!(err, RecoveryError::Io(_)), "{err}");

        // Bit-flipped body → Codec (CRC).
        let mut bad = std::fs::read(&path).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let bad_path = dir.join("bad.ckpt");
        std::fs::write(&bad_path, &bad).unwrap();
        let err = resume(&bad_path, &dist, &cfg).unwrap_err();
        assert!(matches!(err, RecoveryError::Codec(_)), "{err}");

        // Wrong population → ShardMismatch.
        let other_pop = Population::generate(&PopulationConfig::small("XL", 2500, 12));
        let other_dist = DataDistribution::build(&other_pop, Strategy::RoundRobin, 3, 9);
        let err = resume(&path, &other_dist, &cfg).unwrap_err();
        assert!(matches!(err, RecoveryError::ShardMismatch(_)), "{err}");

        // Resume day beyond the configured run → ShardMismatch.
        let short_cfg = SimConfig { days: 5, ..cfg };
        let err = resume(&path, &dist, &short_cfg).unwrap_err();
        assert!(matches!(err, RecoveryError::ShardMismatch(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// LocationManager caches are not checkpointed: a restored run starts
    /// them from the baseline and re-sends whoever differs from it. A
    /// vaccination before the checkpoint moves `sus_scale` and leaves the
    /// state alone, so a restore that re-sent only changed states would
    /// diverge here.
    #[test]
    fn resume_after_a_vaccination_resends_susceptibility() {
        use crate::checkpoint::capture;
        use ptts::intervention::{Action, Intervention};
        let pop = small_pop();
        let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 3, 9);
        let cfg = SimConfig {
            days: 24,
            r: 0.0012,
            seed: 9,
            initial_infections: 8,
            stop_when_extinct: false,
            interventions: InterventionSet::new(vec![Intervention {
                trigger: ptts::intervention::Trigger::Day(3),
                action: Action::Vaccinate {
                    fraction: 0.6,
                    treatment: ptts::model::TreatmentId(1),
                    efficacy_factor: 0.1,
                },
            }]),
        };
        let rt = RuntimeConfig::sequential(3);
        let straight = Simulator::new(&dist, flu_model(), cfg.clone(), rt)
            .run()
            .curve;
        assert_eq!(
            straight,
            crate::seq::run_sequential(&pop, &flu_model(), &cfg)
        );

        let mut sim = Simulator::new(&dist, flu_model(), cfg.clone(), rt);
        let mut carry = Carry::new(cfg.interventions.clone(), 8);
        let (mut days, _, _) = sim.run_days(0, 8, &mut carry);
        let (states, _) = sim.dismantle();
        assert!(states
            .iter()
            .any(|p| p.sus_scale < 1.0 && p.infected_on.is_none()));
        let dir = std::env::temp_dir().join(format!("episim-vaccinated-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.ckpt");
        capture(8, 8, &carry, states).save(&path).unwrap();
        let resumed = Simulator::resume_from(&path, &dist, flu_model(), cfg, rt).unwrap();
        let (mut sim, mut carry) = (resumed.sim, resumed.carry);
        days.extend(sim.run_days(8, 24, &mut carry).0);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            days, straight.days,
            "resume after a vaccination must be bit-exact"
        );
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
