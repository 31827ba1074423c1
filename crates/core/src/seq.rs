//! A direct sequential EpiSimdemics implementation — the correctness oracle,
//! and the member path of the ensemble engine.
//!
//! Runs the same per-day algorithm with plain loops and no runtime. Because
//! every stochastic decision in the parallel simulator is keyed by
//! `(seed, entity, day, purpose)` rather than drawn from a shared stream,
//! this oracle must produce *bit-identical* epidemic curves; the
//! integration tests assert exactly that.
//!
//! The paper's day pushes: every person sends a message per visit and
//! every location sorts what it received. This path pulls instead,
//! because only a sublocation with an infectious visitor can produce an
//! interaction. [`SweepLayout`] computes once per world every visit in
//! the canonical `(location, sublocation, start, person)` order, grouped
//! by sublocation. Each day the person pass runs [`person_morning`] for
//! everyone and marks the groups the infectious attend; the location pass
//! gathers only the marked groups' present visits, still in canonical
//! order, and runs the kernel's interval-overlap pass over them. Nothing
//! is sorted per day but each swept group's few susceptibles. The
//! engines' LocationManagers sweep the same layout, each its
//! own partition's range, from the states persons send them
//! (`crate::managers`). A [`DataDistribution`] builds it once, on first
//! use, and every clone shares it, so every simulator,
//! [`crate::CowWorld`] and [`crate::run_sweep`] over one world reads one
//! layout; [`run_sequential`] builds one per run.

use crate::distribution::DataDistribution;
use crate::ensemble::MemberArena;
use crate::kernel::{canonical_key, overlap_sublocation, InfectivityClasses, LocationDayFeatures};
use crate::messages::{DayEffects, VisitMsg};
use crate::output::{DayStats, EpiCurve};
use crate::person::{at_home, attended, attends, person_morning, PersonSlot};
use crate::simulator::SimConfig;
use ptts::crng::{CounterRng, Purpose};
use ptts::intervention::DayObservables;
use ptts::model::StateId;
use ptts::Ptts;
use synthpop::Population;

/// One visit of a [`SweepLayout`] group: what the gather needs to rebuild
/// its [`VisitMsg`], and the static half of the attendance rule.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Member {
    pub(crate) person: u32,
    /// Index into [`SweepLayout::visitors`], with [`AT_HOME`] set when the
    /// visit is at the person's home (so staying home keeps it).
    visitor: u32,
    start_min: u16,
    end_min: u16,
}

impl Member {
    /// The visitor's index among all of the layout's visitors.
    #[inline]
    pub(crate) fn visitor(&self) -> usize {
        (self.visitor & !AT_HOME) as usize
    }

    /// Whether the visit is at the visitor's home.
    #[inline]
    pub(crate) fn at_home(&self) -> bool {
        self.visitor & AT_HOME != 0
    }
}

/// The top bit of a packed index: the visit is at the person's home.
const AT_HOME: u32 = 1 << 31;

/// The visits of a population in canonical order, grouped by
/// `(location, sublocation)`.
///
/// Groups are ordered by partition, then location, so partition `p`'s
/// groups are one contiguous range ([`SweepLayout::groups_of`]): a
/// LocationManager sweeps its own range, and caches its visitors' health
/// by their index in its range of [`SweepLayout::visitors`]. Group `g`
/// holds `members[group_start[g]..group_start[g + 1]]`, sorted by `(start,
/// person, visit index)`, which is the order the kernel sorts a
/// sublocation into (the visit index only breaks ties the kernel's key
/// leaves open). Leaving a day's absent visits out keeps the survivors in
/// that order, so a gathered group is what the kernel would have sorted.
///
/// A layout may cover only some partitions (a net rank lays out the
/// LocationManagers it hosts); the others have empty ranges.
#[derive(Debug, Clone, Default)]
pub struct SweepLayout {
    members: Vec<Member>,
    /// Per visit (indexed like `pop.visits`): its group, with [`AT_HOME`]
    /// set for a home visit. Meaningless for visits outside the layout.
    visit_group: Vec<u32>,
    group_start: Vec<u32>,
    /// `(location, sublocation)` of every group.
    place: Vec<(u32, u16)>,
    /// Partition `p`'s groups are `part_groups[p]..part_groups[p + 1]`.
    part_groups: Vec<u32>,
    /// Each partition's distinct visitors, ascending; partition `p`'s are
    /// `visitors[part_visitors[p]..part_visitors[p + 1]]`.
    visitors: Vec<u32>,
    part_visitors: Vec<u32>,
}

impl SweepLayout {
    /// Lay out every visit of an unpartitioned, unsplit population (the
    /// sequential oracle's layout: one partition).
    pub fn build(pop: &Population) -> SweepLayout {
        Self::build_parts(pop, None, |_| 0, &[true])
    }

    /// Lay out the visits to the locations of `dist`'s partitions `p` for
    /// which `hosted[p]` holds.
    pub fn of_world(dist: &DataDistribution, hosted: &[bool]) -> SweepLayout {
        let part_of = |l: usize| dist.location_part()[l] as usize;
        Self::build_parts(&dist.pop, Some(&dist.orig_of_location), part_of, hosted)
    }

    /// `O(V)` plus a sort per location, for `V` visits: a counting sort of
    /// the visits by location, in partition order, then each hosted
    /// location's visits sorted by the kernel's key and cut into
    /// sublocation groups.
    fn build_parts(
        pop: &Population,
        orig_of_location: Option<&[u32]>,
        part_of: impl Fn(usize) -> usize,
        hosted: &[bool],
    ) -> SweepLayout {
        let n_locations = pop.n_locations() as usize;

        // Where each hosted location's visits start, in (partition,
        // location) order: a counting sort.
        let mut part_start = vec![0u32; hosted.len() + 1];
        let mut visit_start = vec![0u32; n_locations + 1];
        for v in &pop.visits {
            let l = v.location.0 as usize;
            if hosted[part_of(l)] {
                visit_start[l + 1] += 1;
                part_start[part_of(l) + 1] += 1;
            }
        }
        prefix_sum(&mut part_start);
        let mut next_in_part = part_start.clone();
        for l in 0..n_locations {
            let n = visit_start[l + 1];
            let slot = &mut next_in_part[part_of(l)];
            visit_start[l] = *slot;
            *slot += n;
        }
        // The visits placed there, keyed for the sort, and each
        // partition's visitors. `pop.visits` is ordered by person, so the
        // visitors come out ascending, and a visitor's index among its
        // partition's orders like its person id: it stands in for the
        // person in the key.
        let mut keyed = vec![Keyed::default(); part_start[hosted.len()] as usize];
        let mut visitors: Vec<Vec<u32>> = vec![Vec::new(); hosted.len()];
        let mut next = visit_start.clone();
        for (i, v) in pop.visits.iter().enumerate() {
            let l = v.location.0 as usize;
            let part = part_of(l);
            if !hosted[part] {
                continue;
            }
            let person = v.person.0;
            let seen = &mut visitors[part];
            if seen.last() != Some(&person) {
                seen.push(person);
            }
            let home = pop.people[person as usize].home.0;
            keyed[next[l] as usize] = Keyed {
                key: canonical_key(v.sublocation.0, v.start_min, seen.len() as u32 - 1),
                visit: i as u32,
                end_min: v.end_min(),
                at_home: at_home(home, v.location.0, orig_of_location),
            };
            next[l] += 1;
        }

        let mut layout = SweepLayout {
            members: Vec::with_capacity(keyed.len()),
            visit_group: vec![u32::MAX; pop.visits.len()],
            part_groups: vec![0],
            part_visitors: vec![0],
            visitors: visitors.concat(),
            ..SweepLayout::default()
        };
        for (part, seen) in visitors.iter().enumerate() {
            let first_visitor = *layout.part_visitors.last().expect("starts at 0");
            let mut lo = part_start[part] as usize;
            while lo < part_start[part + 1] as usize {
                let location = pop.visits[keyed[lo].visit as usize].location.0;
                let hi = lo + (next[location as usize] - visit_start[location as usize]) as usize;
                keyed[lo..hi].sort_unstable_by_key(|k| (k.key, k.visit));
                for group in keyed[lo..hi].chunk_by(|a, b| a.key >> 48 == b.key >> 48) {
                    let sublocation = (group[0].key >> 48) as u16;
                    layout.push_group((location, sublocation), first_visitor, group);
                }
                lo = hi;
            }
            layout.part_groups.push(layout.place.len() as u32);
            layout.part_visitors.push(first_visitor + seen.len() as u32);
        }
        layout.group_start.push(layout.members.len() as u32);
        layout
    }

    /// Append one sublocation group: its visits in canonical order, keyed
    /// by their visitor's index after `first_visitor`.
    fn push_group(&mut self, place: (u32, u16), first_visitor: u32, visits: &[Keyed]) {
        let g = self.place.len() as u32;
        self.place.push(place);
        self.group_start.push(self.members.len() as u32);
        for k in visits {
            let home = if k.at_home { AT_HOME } else { 0 };
            self.visit_group[k.visit as usize] = g | home;
            let visitor = first_visitor + k.key as u32;
            self.members.push(Member {
                person: self.visitors[visitor as usize],
                visitor: visitor | home,
                start_min: (k.key >> 32) as u16,
                end_min: k.end_min,
            });
        }
    }

    /// Number of sublocation groups.
    pub fn n_groups(&self) -> usize {
        self.place.len()
    }

    /// Number of visits laid out.
    pub fn n_visits(&self) -> usize {
        self.members.len()
    }

    /// Bytes this layout holds on the heap (length × element size).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.members.as_slice())
            + size_of_val(self.visit_group.as_slice())
            + size_of_val(self.group_start.as_slice())
            + size_of_val(self.place.as_slice())
            + size_of_val(self.part_groups.as_slice())
            + size_of_val(self.visitors.as_slice())
            + size_of_val(self.part_visitors.as_slice())
    }

    /// Partition `part`'s groups.
    pub(crate) fn groups_of(&self, part: u32) -> std::ops::Range<usize> {
        self.part_groups[part as usize] as usize..self.part_groups[part as usize + 1] as usize
    }

    /// Partition `part`'s visitors: the range of [`SweepLayout::visitors`]
    /// its members index.
    pub(crate) fn visitors_of(&self, part: u32) -> std::ops::Range<usize> {
        self.part_visitors[part as usize] as usize..self.part_visitors[part as usize + 1] as usize
    }

    /// The person ids of every partition's visitors; [`Member::visitor`]
    /// indexes this.
    #[inline]
    pub(crate) fn visitors(&self) -> &[u32] {
        &self.visitors
    }

    /// Visit `i`'s group, and whether it is at the person's home.
    #[inline]
    pub(crate) fn visit(&self, i: usize) -> (usize, bool) {
        let g = self.visit_group[i];
        ((g & !AT_HOME) as usize, g & AT_HOME != 0)
    }

    /// `(location, sublocation)` of group `g`.
    #[inline]
    pub(crate) fn place(&self, g: usize) -> (u32, u16) {
        self.place[g]
    }

    /// The number of visits in group `g`.
    #[inline]
    pub(crate) fn group_len(&self, g: usize) -> usize {
        (self.group_start[g + 1] - self.group_start[g]) as usize
    }

    /// Gather group `g`'s visits that are `present` today into `visits`,
    /// in canonical order, with each member's `(state, sus_scale)` read by
    /// `health`: the kernel's input.
    pub(crate) fn gather(
        &self,
        g: usize,
        present: impl Fn(&Member) -> bool,
        health: impl Fn(&Member) -> (StateId, f32),
        visits: &mut Vec<VisitMsg>,
    ) {
        let (location, sublocation) = self.place[g];
        let members = &self.members[self.group_start[g] as usize..self.group_start[g + 1] as usize];
        visits.clear();
        for m in members.iter().filter(|m| present(m)) {
            let (state, sus_scale) = health(m);
            visits.push(VisitMsg {
                person: m.person,
                location,
                sublocation,
                start_min: m.start_min,
                end_min: m.end_min,
                state,
                sus_scale,
            });
        }
    }
}

/// One visit while the layout is built: the kernel's key (with the
/// visitor's index in its partition for the person), then what the member
/// needs.
#[derive(Debug, Clone, Copy, Default)]
struct Keyed {
    key: u64,
    visit: u32,
    end_min: u16,
    at_home: bool,
}

fn prefix_sum(counts: &mut [u32]) {
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
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
            if classes.class(slot.health.state).is_none() {
                let at_home = |i: usize| layout.visit(i).1;
                visits += attended(pop, p as u32, &effects, morning.stay_home, at_home) as u64;
                continue;
            }
            // The infectious count as they mark.
            for i in pop.person_offsets[p] as usize..pop.person_offsets[p + 1] as usize {
                let kind = pop.locations[pop.visits[i].location.0 as usize].kind;
                let (g, at_home) = layout.visit(i);
                if attends(&effects, kind, at_home, morning.stay_home) {
                    visits += 1;
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
                let kind = pop.locations[layout.place(g).0 as usize].kind;
                let present =
                    |m: &Member| attends(&effects, kind, m.at_home(), stay_home[m.person as usize]);
                let health = |m: &Member| {
                    let slot = &slots[m.person as usize];
                    (slot.health.state, slot.sus_scale)
                };
                layout.gather(g, present, health, group);
                let before = infects.len();
                overlap_sublocation(
                    group,
                    ptts,
                    &classes,
                    r_eff,
                    cfg.seed,
                    day,
                    scratch,
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
    use crate::distribution::Strategy;
    use crate::kernel::visit_key;
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

    /// What a group holds, by person id: its place and its members as
    /// `(person, start, end)`.
    #[allow(clippy::type_complexity)]
    fn describe(layout: &SweepLayout, g: usize) -> ((u32, u16), Vec<(u32, u16, u16)>) {
        let members = &layout.members[layout.group_start[g] as usize..][..layout.group_len(g)];
        let members = members
            .iter()
            .map(|m| (layout.visitors()[m.visitor()], m.start_min, m.end_min))
            .collect();
        (layout.place(g), members)
    }

    /// A distribution's layout is the one-partition layout's groups,
    /// regrouped by partition; a layout of some partitions holds exactly
    /// theirs; each partition's visitors are its members' persons,
    /// ascending; and a visit is "at home" on any piece of a split home.
    #[test]
    fn partition_layouts_hold_each_partitions_groups() {
        let split = SplitConfig {
            max_partitions: 64,
            threshold_override: Some(8),
        };
        let model = load_model::PiecewiseModel::paper_constants();
        let dist = DataDistribution::build_with(
            &small_pop(),
            Strategy::GraphPartitionSplit,
            3,
            5,
            &split,
            &model,
        );
        let flat = SweepLayout::build(&dist.pop);
        let full = dist.sweep_layout();
        let some = SweepLayout::of_world(&dist, &[false, true, false]);
        for part in 0..3u32 {
            let want: Vec<_> = (0..flat.n_groups())
                .filter(|&g| dist.location_part()[flat.place(g).0 as usize] == part)
                .map(|g| describe(&flat, g))
                .collect();
            let got: Vec<_> = full.groups_of(part).map(|g| describe(&full, g)).collect();
            assert_eq!(got, want, "partition {part}");
            let mut persons: Vec<u32> = got
                .iter()
                .flat_map(|(_, m)| m.iter().map(|v| v.0))
                .collect();
            persons.sort_unstable();
            persons.dedup();
            assert_eq!(&full.visitors()[full.visitors_of(part)], persons.as_slice());
            let some_got: Vec<_> = some.groups_of(part).map(|g| describe(&some, g)).collect();
            if part == 1 {
                assert_eq!(some_got, got);
            } else {
                assert!(some_got.is_empty() && some.visitors_of(part).is_empty());
            }
        }
        let mut split_home_pieces = 0;
        for (i, v) in dist.pop.visits.iter().enumerate() {
            let (g, home) = full.visit(i);
            assert_eq!(full.place(g), (v.location.0, v.sublocation.0));
            let own = dist.pop.people[v.person.0 as usize].home.0;
            assert_eq!(
                home,
                at_home(own, v.location.0, Some(&dist.orig_of_location))
            );
            split_home_pieces += (home && v.location.0 != own) as u32;
        }
        assert!(
            split_home_pieces > 0,
            "no home was split: the map is untested"
        );
        for g in 0..full.n_groups() {
            let members = &full.members[full.group_start[g] as usize..][..full.group_len(g)];
            let own = |m: &Member| {
                dist.pop.people[full.visitors()[m.visitor()] as usize]
                    .home
                    .0
            };
            let orig = Some(&dist.orig_of_location[..]);
            assert!(members
                .iter()
                .all(|m| m.at_home() == at_home(own(m), full.place(g).0, orig)));
            assert!(members
                .iter()
                .all(|m| full.visitors()[m.visitor()] == m.person));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The one assumption the pull path adds to the kernel: with any
        /// set of visits absent, on split worlds and whole ones, a layout
        /// group gathers to exactly its place's present visits, in the
        /// canonical order the kernel sorts them into.
        #[test]
        fn gathered_groups_are_the_present_visits_in_canonical_order(
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
            let mut visits = Vec::new();
            for g in 0..layout.n_groups() {
                let place = layout.place[g];
                let person = |m: &Member| layout.visitors()[m.visitor()];
                let present = |m: &Member| !absent(salt, per_mille, person(m), place, m.start_min);
                let health = |m: &Member| {
                    let slot = &slots[person(m) as usize];
                    (slot.health.state, slot.sus_scale)
                };
                layout.gather(g, present, health, &mut visits);
                let mut want = by_place.remove(&place).unwrap_or_default();
                want.sort_unstable_by_key(visit_key);
                prop_assert_eq!(&visits, &want, "group {} at {:?}", g, place);
            }
            prop_assert!(by_place.is_empty(), "places missing from the layout");
        }
    }
}
