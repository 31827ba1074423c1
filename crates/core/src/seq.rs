//! A direct sequential EpiSimdemics implementation — the correctness oracle,
//! and the member path of the ensemble engine.
//!
//! Runs the same per-day algorithm with plain loops and no runtime. Because
//! every stochastic decision in the parallel simulator is keyed by
//! `(seed, entity, day, purpose)` rather than drawn from a shared stream,
//! this oracle must produce *bit-identical* epidemic curves; the
//! integration tests assert exactly that.
//!
//! The engines push: every person sends a message per visit and every
//! location sorts what it received. This path pulls instead, because only
//! a sublocation with an infectious visitor can produce an interaction.
//! [`SweepLayout`] computes once per population every visit in the
//! canonical `(location, sublocation, start, person)` order, grouped by
//! sublocation, and each group's arrive/depart event order. Each day the
//! person pass runs [`person_morning`] for everyone and marks the groups
//! the infectious attend; the location pass gathers only the marked
//! groups' present visits and runs the kernel's sweep over the static
//! event order with the absent visits left out. Nothing is sorted per day.
//! The layout is not part of [`crate::CowWorld`], whose engine runs never
//! read it and would pay for its build in their set-up:
//! [`crate::run_sweep`] builds it once per sweep and shares it read-only
//! across its workers, and [`run_sequential`] once per run.

use crate::ensemble::MemberArena;
use crate::kernel::{
    canonical_key, event_keys, sort_events, sweep_sublocation, InfectivityClasses,
    LocationDayFeatures,
};
use crate::messages::{DayEffects, VisitMsg};
use crate::output::{DayStats, EpiCurve};
use crate::person::{attends, person_morning, PersonSlot};
use crate::simulator::SimConfig;
use ptts::crng::{CounterRng, Purpose};
use ptts::intervention::DayObservables;
use ptts::Ptts;
use synthpop::Population;

/// One visit of a [`SweepLayout`] group: what the gather needs to rebuild
/// its [`VisitMsg`], and the static half of the attendance rule.
#[derive(Debug, Clone, Copy)]
struct Member {
    person: u32,
    start_min: u16,
    end_min: u16,
    /// The visit is at the person's home, so staying home keeps it.
    at_home: bool,
}

/// The visits of a population in canonical order, grouped by
/// `(location, sublocation)`, with each group's static event order.
///
/// Group `g` holds `members[group_start[g]..group_start[g + 1]]`, sorted
/// by `(start, person, visit index)`, which is the order the kernel sorts a
/// sublocation into (the visit index only breaks ties the kernel's key
/// leaves open). Its events are `events[event_start[g]..event_start[g + 1]]`:
/// `(key, rank in group)` in the `(key, index)` order
/// [`crate::kernel::order_events`] produces over the whole group. Removing
/// a day's absent visits renumbers the survivors monotonically, so the
/// filtered static order is that day's sorted order.
#[derive(Debug, Clone, Default)]
pub struct SweepLayout {
    members: Vec<Member>,
    /// Group id of every visit, indexed like `pop.visits`.
    group_of_visit: Vec<u32>,
    group_start: Vec<u32>,
    /// `(location, sublocation)` of every group.
    place: Vec<(u32, u16)>,
    events: Vec<(u32, u32)>,
    event_start: Vec<u32>,
}

impl SweepLayout {
    /// Lay out `pop`'s visits. `O(V log V)` for `V` visits; built once
    /// per population and shared read-only by every run over it.
    pub fn build(pop: &Population) -> SweepLayout {
        // The kernel's order within each location; the visit index breaks
        // the ties its key leaves open.
        let mut keyed: Vec<(u32, u64, u32)> = pop
            .visits
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let key = canonical_key(v.sublocation.0, v.start_min, v.person.0);
                (v.location.0, key, i as u32)
            })
            .collect();
        keyed.sort_unstable();

        let mut layout = SweepLayout {
            members: Vec::with_capacity(keyed.len()),
            group_of_visit: vec![0; keyed.len()],
            events: Vec::with_capacity(2 * keyed.len()),
            ..SweepLayout::default()
        };
        let mut lo = 0;
        while lo < keyed.len() {
            let (location, key, _) = keyed[lo];
            let sublocation = (key >> 48) as u16;
            let place = (location, sublocation);
            let hi = lo + keyed[lo..].partition_point(|k| (k.0, (k.1 >> 48) as u16) == place);
            let g = layout.place.len() as u32;
            layout.place.push(place);
            layout.group_start.push(lo as u32);
            let first_event = layout.events.len();
            layout.event_start.push(first_event as u32);
            for (rank, &(_, _, i)) in keyed[lo..hi].iter().enumerate() {
                let v = &pop.visits[i as usize];
                let end_min = v.end_min();
                layout.group_of_visit[i as usize] = g;
                layout.members.push(Member {
                    person: v.person.0,
                    start_min: v.start_min,
                    end_min,
                    at_home: pop.people[v.person.0 as usize].home == v.location,
                });
                if let Some((arrive, depart)) = event_keys(v.start_min, end_min) {
                    layout.events.push((arrive, rank as u32));
                    layout.events.push((depart, rank as u32));
                }
            }
            sort_events(&mut layout.events[first_event..]);
            lo = hi;
        }
        layout.group_start.push(keyed.len() as u32);
        layout.event_start.push(layout.events.len() as u32);
        layout
    }

    /// Number of sublocation groups.
    pub fn n_groups(&self) -> usize {
        self.place.len()
    }

    /// Number of visits laid out.
    pub fn n_visits(&self) -> usize {
        self.members.len()
    }

    /// Gather group `g`'s visits that are `present` today into `visits`,
    /// in canonical order, with their state read from `slots`. Returns the
    /// group's event order with the absent visits left out (the static
    /// slice itself when none is absent, else built in `events` via the
    /// `rank` map) and its number of infectious arrivals.
    #[allow(clippy::too_many_arguments)]
    fn gather<'a>(
        &'a self,
        g: usize,
        present: impl Fn(&Member) -> bool,
        slots: &[PersonSlot],
        classes: &InfectivityClasses,
        visits: &mut Vec<VisitMsg>,
        rank: &mut Vec<u32>,
        events: &'a mut Vec<(u32, u32)>,
    ) -> (&'a [(u32, u32)], u64) {
        let (location, sublocation) = self.place[g];
        let members = &self.members[self.group_start[g] as usize..self.group_start[g + 1] as usize];
        visits.clear();
        rank.clear();
        let mut infectious_arrivals = 0u64;
        for m in members {
            if !present(m) {
                rank.push(u32::MAX);
                continue;
            }
            rank.push(visits.len() as u32);
            let slot = &slots[m.person as usize];
            let infectious = classes.class(slot.health.state).is_some();
            infectious_arrivals += (infectious && m.end_min > m.start_min) as u64;
            visits.push(VisitMsg {
                person: m.person,
                location,
                sublocation,
                start_min: m.start_min,
                end_min: m.end_min,
                state: slot.health.state,
                sus_scale: slot.sus_scale,
            });
        }
        let all = &self.events[self.event_start[g] as usize..self.event_start[g + 1] as usize];
        if visits.len() == members.len() {
            return (all, infectious_arrivals);
        }
        events.clear();
        events.extend(all.iter().filter_map(|&(key, r)| {
            let i = rank[r as usize];
            (i != u32::MAX).then_some((key, i))
        }));
        (events, infectious_arrivals)
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
    let mut arena = MemberArena::new();
    let curve = run_sequential_into(pop, &layout, ptts, cfg, &mut arena);
    (curve, arena.into_person_states())
}

/// Run the sequential simulation over `layout` (built from `pop`) with all
/// mutable per-run state drawn from `arena`. Reusing one layout and one
/// arena across many runs (the ensemble scheduler shares the layout and
/// gives each worker its own arena) amortises the set-up and the
/// allocations; the epidemic itself is bit-identical to [`run_sequential`]
/// because the arena is reset to the same initial state every run.
pub fn run_sequential_into(
    pop: &Population,
    layout: &SweepLayout,
    ptts: &Ptts,
    cfg: &SimConfig,
    arena: &mut MemberArena,
) -> EpiCurve {
    assert_eq!(
        layout.n_visits() as u64,
        pop.n_visits(),
        "the layout was built from another population"
    );
    let n_people = pop.n_people() as usize;
    arena.reset(n_people, layout.n_groups(), ptts);
    let MemberArena {
        slots,
        stay_home,
        marks,
        group,
        rank,
        infects,
        scratch,
    } = arena;

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
            let schedule = pop.person_offsets[p] as usize..pop.person_offsets[p + 1] as usize;
            let infectious = classes.class(slot.health.state).is_some();
            if !infectious && !morning.stay_home && effects.closed_kinds == 0 {
                visits += schedule.len() as u64;
                continue;
            }
            let home = pop.people[p].home;
            for i in schedule {
                let v = &pop.visits[i];
                let kind = pop.locations[v.location.0 as usize].kind;
                if !attends(&effects, kind, v.location == home, morning.stay_home) {
                    continue;
                }
                visits += 1;
                if infectious {
                    let g = layout.group_of_visit[i] as usize;
                    marks[g / 64] |= 1 << (g % 64);
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
                let kind = pop.locations[layout.place[g].0 as usize].kind;
                let present =
                    |m: &Member| attends(&effects, kind, m.at_home, stay_home[m.person as usize]);
                let (ordered, infectious_arrivals) = layout.gather(
                    g,
                    present,
                    slots,
                    &classes,
                    group,
                    rank,
                    &mut scratch.events,
                );
                let before = infects.len();
                sweep_sublocation(
                    group,
                    ordered,
                    infectious_arrivals,
                    ptts,
                    &classes,
                    r_eff,
                    cfg.seed,
                    day,
                    &mut scratch.sweep,
                    infects,
                    &mut features,
                );
                infections_by_kind[kind as usize] += (infects.len() - before) as u64;
            }
        }

        // Phase 5: apply (same dedup as PersonManager).
        for i in infects.iter() {
            slots[i.person as usize].record_infection(i);
        }
        let mut new_infections = 0u64;
        for slot in slots.iter_mut() {
            new_infections += slot.apply_pending(ptts, cfg.seed, day) as u64;
        }
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
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{DataDistribution, Strategy};
    use crate::kernel::{order_events, visit_key};
    use crate::person::visit_to_msg;
    use crate::simulator::Simulator;
    use crate::splitloc::{split_heavy_locations, SplitConfig};
    use chare_rt::RuntimeConfig;
    use proptest::prelude::*;
    use ptts::flu_model;
    use ptts::intervention::{Action, Intervention, InterventionSet, Trigger};
    use std::collections::BTreeMap;
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

    /// A keyed coin: whether the visit `(person, location, sublocation,
    /// start)` is absent today, with probability `per_mille / 1000`.
    fn absent(salt: u64, per_mille: u64, person: u32, place: (u32, u16), start: u16) -> bool {
        let mut z = salt
            ^ ((person as u64) << 32)
            ^ ((place.0 as u64) << 8)
            ^ ((place.1 as u64) << 24)
            ^ start as u64;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % 1000 < per_mille
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The one assumption the pull path adds to the kernel: with any
        /// set of visits absent, a layout group gathers to exactly the
        /// kernel's sort of the same visits, and its filtered static event
        /// order is exactly the kernel's `(key, index)` sort of them.
        #[test]
        fn gathered_groups_equal_the_kernels_sort(
            people in 150u32..900,
            pop_seed in 0u64..1_000,
            split in any::<bool>(),
            salt in 0u64..1_000_000,
            per_mille in 0u64..1_000,
        ) {
            let base = Population::generate(&PopulationConfig::small("LAY", people, pop_seed));
            let pop = if split {
                let cfg = SplitConfig { max_partitions: 64, threshold_override: Some(12) };
                split_heavy_locations(&base, &cfg).pop
            } else {
                base
            };
            let ptts = flu_model();
            let classes = InfectivityClasses::new(&ptts);
            let symptomatic = ptts.state_by_name("symptomatic").unwrap();
            let mut slots: Vec<PersonSlot> =
                (0..pop.n_people()).map(|p| PersonSlot::new(p, &ptts)).collect();
            for slot in slots.iter_mut().step_by(3) {
                slot.health.state = symptomatic;
                slot.sus_scale = 0.5;
            }
            let layout = SweepLayout::build(&pop);

            // The reference: each place's present visits as the engines
            // deliver them, in person order, sorted by the kernel's key.
            let mut by_place: BTreeMap<(u32, u16), Vec<VisitMsg>> = BTreeMap::new();
            for v in &pop.visits {
                let place = (v.location.0, v.sublocation.0);
                if !absent(salt, per_mille, v.person.0, place, v.start_min) {
                    let msg = visit_to_msg(v, &slots[v.person.0 as usize]);
                    by_place.entry(place).or_default().push(msg);
                }
            }
            let (mut visits, mut rank, mut events, mut want_events) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for g in 0..layout.n_groups() {
                let place = layout.place[g];
                let present = |m: &Member| !absent(salt, per_mille, m.person, place, m.start_min);
                let (ordered, infectious) = layout
                    .gather(g, present, &slots, &classes, &mut visits, &mut rank, &mut events);
                let mut want = by_place.remove(&place).unwrap_or_default();
                want.sort_unstable_by_key(visit_key);
                prop_assert_eq!(&visits, &want, "group {} at {:?}", g, place);
                let want_infectious = order_events(&want, &classes, &mut want_events);
                prop_assert_eq!(ordered, &want_events[..], "group {} at {:?}", g, place);
                prop_assert_eq!(infectious, want_infectious);
            }
            prop_assert!(by_place.is_empty(), "places missing from the layout");
        }
    }
}
