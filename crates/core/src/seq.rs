//! A direct sequential EpiSimdemics implementation: the correctness oracle
//! that the engines' tests and the benchmark's checks compare against.
//!
//! Runs the same per-day algorithm with plain loops and no runtime. Because
//! every stochastic decision in the parallel simulator is keyed by
//! `(seed, entity, day, purpose)` rather than drawn from a shared stream,
//! this oracle must produce *bit-identical* epidemic curves; the
//! integration tests assert exactly that.
//!
//! Its day is the engines' pull over a one-partition [`SweepLayout`];
//! phase 5's minimum infect per person is the oracle's own table.

use crate::kernel::{overlap_sublocation, InfectivityClasses, KernelScratch, LocationDayFeatures};
use crate::layout::{Member, SweepLayout};
use crate::messages::{DayEffects, InfectMsg};
use crate::output::{DayStats, EpiCurve};
use crate::person::{attends, person_morning, PersonSlot};
use crate::simulator::SimConfig;
use ptts::crng::{CounterRng, Purpose};
use ptts::intervention::DayObservables;
use ptts::Ptts;
use synthpop::{PersonId, Population};

/// The oracle's phase 5: per person, the day's minimum `(time, infector)`.
struct Pending(Vec<Option<(u16, u32)>>);

impl Pending {
    fn record(&mut self, msg: &InfectMsg) {
        let key = (msg.time_min, msg.infector);
        let best = &mut self.0[msg.person as usize];
        if best.is_none_or(|best| key < best) {
            *best = Some(key);
        }
    }

    /// Infect each recorded person still susceptible, emptying the table;
    /// returns the new infections.
    fn apply(&mut self, slots: &mut [PersonSlot], ptts: &Ptts, seed: u64, day: u32) -> u64 {
        let mut new_infections = 0;
        for (slot, pending) in slots.iter_mut().zip(&mut self.0) {
            if let Some((_, infector)) = pending.take() {
                if slot.health.infect(ptts, seed, slot.id as u64, day as u64) {
                    slot.infected_on = Some(day);
                    slot.infected_by = (infector != u32::MAX).then_some(infector);
                    new_infections += 1;
                }
            }
        }
        new_infections
    }
}

/// Run the sequential reference simulation.
pub fn run_sequential(pop: &Population, ptts: &Ptts, cfg: &SimConfig) -> EpiCurve {
    run_sequential_with_states(pop, ptts, cfg).0
}

/// Like [`run_sequential`] but also returning the final person states
/// (the transmission tree lives in their provenance fields).
pub fn run_sequential_with_states(
    pop: &Population,
    ptts: &Ptts,
    cfg: &SimConfig,
) -> (EpiCurve, Vec<PersonSlot>) {
    let layout = SweepLayout::build(pop);
    let n_people = pop.n_people() as usize;
    let mut slots: Vec<PersonSlot> = (0..n_people)
        .map(|p| PersonSlot::new(p as u32, ptts))
        .collect();
    let mut stay_home = vec![false; n_people];
    let mut pending = Pending(vec![None; n_people]);
    let mut marks = vec![0u64; layout.n_groups().div_ceil(64)];
    let (mut group, mut infects) = (Vec::new(), Vec::new());
    let mut scratch = KernelScratch::new();

    // Initial infections: identical draw to `Simulator::new`.
    let mut seeds = std::collections::BTreeSet::new();
    let mut rng = CounterRng::for_entity(cfg.seed, 0, 0, Purpose::Synthesis);
    let want = (cfg.initial_infections as usize).min(n_people);
    while seeds.len() < want {
        seeds.insert(rng.uniform_u64(n_people as u64) as u32);
    }
    for &pid in &seeds {
        slots[pid as usize].seed(ptts, cfg.seed);
    }

    let classes = InfectivityClasses::new(ptts);
    let symptomatic_state = ptts.state_by_name("symptomatic");
    let mut interventions = cfg.interventions.clone();
    let population = n_people as u64;
    let mut curve = EpiCurve {
        population,
        seeds: want as u64,
        days: Vec::new(),
    };
    let mut cumulative = want as u64;
    let mut yesterday_new = 0u64;
    let mut yesterday_infected = want as u64;

    for day in 0..cfg.days {
        let obs = DayObservables {
            day,
            infected_now: yesterday_infected,
            new_cases: yesterday_new,
            cumulative,
            population,
        };
        let fx = interventions.evaluate(&obs);
        let effects = DayEffects {
            closed_kinds: DayEffects::from_flags(&fx.closed_kinds),
            r_scale: fx.r_scale,
            vaccinations: fx.vaccinations,
        };
        let r_eff = cfg.r * effects.r_scale;

        // Phase 1: persons. Everyone's morning; the infectious mark the
        // groups they attend.
        let (mut symptomatic, mut infected_now, mut susceptible, mut visits) = (0u64, 0, 0, 0);
        for (p, slot) in slots.iter_mut().enumerate() {
            let morning = person_morning(slot, ptts, &effects, symptomatic_state, cfg.seed, day);
            stay_home[p] = morning.stay_home;
            symptomatic += morning.symptomatic as u64;
            infected_now += slot.is_infected() as u64;
            susceptible += ptts.is_susceptible(slot.health.state) as u64;
            let infectious = classes.class(slot.health.state).is_some();
            if !infectious && !morning.stay_home && effects.closed_kinds == 0 {
                visits += u64::from(pop.person_offsets[p + 1] - pop.person_offsets[p]);
                continue;
            }
            // One partition: a person's one route leads to its schedule, in
            // order. The kind is the population's, not the layout's.
            for &(part, slot) in layout.routes_of(p) {
                let own = layout.own_visits(layout.visitors_of(part).start + slot as usize);
                for (v, own) in pop.visits_of(PersonId(p as u32)).iter().zip(own) {
                    let kind = pop.locations[v.location.0 as usize].kind;
                    if attends(&effects, kind, own.at_home(), morning.stay_home) {
                        visits += 1;
                        if infectious {
                            marks[own.group() / 64] |= 1 << (own.group() % 64);
                        }
                    }
                }
            }
        }

        // Phase 3: locations — the marked groups, in layout order.
        let mut features = LocationDayFeatures::default();
        let mut infections_by_kind = [0u64; 5];
        infects.clear();
        for (w, word) in marks.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let g = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let kind = pop.locations[layout.place(g).0 as usize].kind;
                let present =
                    |m: &Member| attends(&effects, kind, m.at_home(), stay_home[m.person as usize]);
                let health = |m: &Member| {
                    let slot = &slots[m.person as usize];
                    (slot.health.state, slot.sus_scale)
                };
                layout.gather(g, present, health, &mut group);
                let before = infects.len();
                overlap_sublocation(
                    &group,
                    ptts,
                    &classes,
                    r_eff,
                    cfg.seed,
                    day,
                    &mut scratch,
                    &mut infects,
                    &mut features,
                );
                infections_by_kind[kind as usize] += (infects.len() - before) as u64;
            }
        }

        // Phase 5: the day's minimum infect per person, then apply.
        for i in infects.iter() {
            pending.record(i);
        }
        let new_infections = pending.apply(&mut slots, ptts, cfg.seed, day);
        cumulative += new_infections;
        let stats = DayStats {
            day,
            new_infections,
            infected_now,
            susceptible,
            symptomatic,
            cumulative,
            visits,
            events: 2 * visits,
            interactions: features.interactions,
            infects_sent: infects.len() as u64,
            infections_by_kind,
        };
        yesterday_new = new_infections;
        yesterday_infected = infected_now;
        curve.days.push(stats);
        if cfg.stop_when_extinct && infected_now == 0 && new_infections == 0 && day > 0 {
            break;
        }
    }
    (curve, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{DataDistribution, Strategy};
    use crate::simulator::Simulator;
    use chare_rt::RuntimeConfig;
    use ptts::flu_model;
    use ptts::intervention::{Action, Intervention, InterventionSet, Trigger};
    use synthpop::PopulationConfig;

    fn small_pop() -> Population {
        Population::generate(&PopulationConfig::small("T", 1200, 23))
    }

    fn cfg(seed: u64) -> SimConfig {
        SimConfig {
            days: 35,
            r: 0.0012,
            seed,
            initial_infections: 6,
            ..Default::default()
        }
    }

    #[test]
    fn oracle_matches_parallel_simulator_exactly() {
        let pop = small_pop();
        let ptts = flu_model();
        let oracle = run_sequential(&pop, &ptts, &cfg(13));
        let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 13);
        let parallel = Simulator::new(&dist, ptts, cfg(13), RuntimeConfig::sequential(4)).run();
        assert_eq!(oracle, parallel.curve);
    }

    #[test]
    fn oracle_matches_threaded_simulator() {
        let pop = small_pop();
        let ptts = flu_model();
        let oracle = run_sequential(&pop, &ptts, &cfg(29));
        let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 3, 29);
        let parallel = Simulator::new(&dist, ptts, cfg(29), RuntimeConfig::threaded(3)).run();
        assert_eq!(oracle, parallel.curve);
    }

    #[test]
    fn interventions_flow_through_identically() {
        let pop = small_pop();
        let ptts = flu_model();
        let interventions = InterventionSet::new(vec![
            Intervention {
                trigger: Trigger::Day(3),
                action: Action::Vaccinate {
                    fraction: 0.4,
                    treatment: ptts::model::TreatmentId(1),
                    efficacy_factor: 0.3,
                },
            },
            Intervention {
                trigger: Trigger::PrevalenceAbove(0.02),
                action: Action::CloseKind {
                    kind: synthpop::LocationKind::School as u8,
                    duration: 10,
                },
            },
        ]);
        let mut c = cfg(31);
        c.interventions = interventions;
        let oracle = run_sequential(&pop, &ptts, &c);
        let dist = DataDistribution::build(&pop, Strategy::RoundRobinSplit, 2, 31);
        let parallel = Simulator::new(&dist, ptts, c, RuntimeConfig::sequential(2)).run();
        assert_eq!(oracle, parallel.curve);
    }

    #[test]
    fn school_closure_reduces_attack_rate() {
        let pop = small_pop();
        let ptts = flu_model();
        let base = run_sequential(&pop, &ptts, &cfg(17));
        let mut with_closure = cfg(17);
        with_closure.interventions = InterventionSet::new(vec![Intervention {
            trigger: Trigger::Day(0),
            action: Action::CloseKind {
                kind: synthpop::LocationKind::School as u8,
                duration: 120,
            },
        }]);
        let closed = run_sequential(&pop, &ptts, &with_closure);
        assert!(
            closed.total_infections() <= base.total_infections(),
            "closure {} vs base {}",
            closed.total_infections(),
            base.total_infections()
        );
    }

    #[test]
    fn higher_r_more_infections() {
        let pop = small_pop();
        let ptts = flu_model();
        let lo = run_sequential(
            &pop,
            &ptts,
            &SimConfig {
                r: 0.0004,
                ..cfg(19)
            },
        );
        let hi = run_sequential(
            &pop,
            &ptts,
            &SimConfig {
                r: 0.003,
                ..cfg(19)
            },
        );
        assert!(hi.total_infections() > lo.total_infections());
    }

    #[test]
    fn susceptible_monotonically_decreases() {
        let pop = small_pop();
        let ptts = flu_model();
        let curve = run_sequential(&pop, &ptts, &cfg(37));
        for w in curve.days.windows(2) {
            assert!(w[1].susceptible <= w[0].susceptible);
            assert!(w[1].cumulative >= w[0].cumulative);
        }
    }

    #[test]
    fn venue_attribution_sums_to_infects() {
        let pop = small_pop();
        let ptts = flu_model();
        let curve = run_sequential(&pop, &ptts, &cfg(43));
        let mut any_kind = [false; 5];
        for d in &curve.days {
            assert_eq!(
                d.infections_by_kind.iter().sum::<u64>(),
                d.infects_sent,
                "day {}",
                d.day
            );
            for (k, &n) in d.infections_by_kind.iter().enumerate() {
                any_kind[k] |= n > 0;
            }
        }
        // Homes dominate transmission in this model; schools/workplaces
        // contribute too.
        assert!(any_kind[synthpop::LocationKind::Home as usize]);
        assert!(
            any_kind.iter().filter(|&&b| b).count() >= 2,
            "transmission should occur in multiple venue kinds"
        );
    }

    #[test]
    fn infects_never_exceed_interactions() {
        let pop = small_pop();
        let ptts = flu_model();
        let curve = run_sequential(&pop, &ptts, &cfg(41));
        for d in &curve.days {
            assert!(d.infects_sent <= d.interactions.max(1));
        }
    }

    fn infect(time_min: u16, infector: u32) -> InfectMsg {
        InfectMsg {
            person: 1,
            time_min,
            infector,
        }
    }

    #[test]
    fn infection_dedup_keeps_minimum() {
        let mut pending = Pending(vec![None; 2]);
        pending.record(&infect(500, 9));
        pending.record(&infect(200, 42));
        pending.record(&infect(200, 50));
        assert_eq!(pending.0, [None, Some((200, 42))]);
    }

    #[test]
    fn apply_pending_infects_once() {
        let ptts = flu_model();
        let mut slots = [PersonSlot::new(0, &ptts), PersonSlot::new(1, &ptts)];
        let mut pending = Pending(vec![None; 2]);
        pending.record(&infect(100, 2));
        assert_eq!(pending.apply(&mut slots, &ptts, 1, 0), 1);
        assert!(slots[1].is_infected() && !slots[0].is_infected());
        assert_eq!(slots[1].health.state, ptts.exposed_state());
        assert_eq!(
            (slots[1].infected_on, slots[1].infected_by),
            (Some(0), Some(2))
        );
        // Nothing pending is left; re-applying does nothing.
        assert_eq!(pending.0, [None, None]);
        assert_eq!(pending.apply(&mut slots, &ptts, 1, 1), 0);
    }

    #[test]
    fn apply_pending_noop_when_already_infected() {
        let ptts = flu_model();
        let mut slots = [PersonSlot::new(0, &ptts), PersonSlot::new(1, &ptts)];
        let mut pending = Pending(vec![None; 2]);
        pending.record(&infect(100, 2));
        pending.apply(&mut slots, &ptts, 1, 0);
        pending.record(&infect(50, 3));
        assert_eq!(pending.apply(&mut slots, &ptts, 1, 1), 0, "already latent");
        assert_eq!(
            (slots[1].infected_on, slots[1].infected_by),
            (Some(0), Some(2))
        );
    }
}
