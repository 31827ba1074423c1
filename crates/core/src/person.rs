//! Person-side logic (§II-B step 1): [`PersonSlot`], the state a
//! PersonManager owns per person, and the morning (health update,
//! interventions, schedule realization) it and the oracle both run.

use crate::messages::{DayEffects, VisitMsg};
use ptts::crng::{CounterRng, Purpose};
use ptts::model::{HealthTracker, StateId};
use ptts::Ptts;
use synthpop::{LocationKind, PersonId, Population, Visit};

/// Probability a symptomatic person abandons their non-home schedule for
/// the day (self-isolation behaviour; part of the "decides on the locations
/// to visit, based on their … health state" step).
pub const SYMPTOMATIC_STAY_HOME_PROB: f64 = 0.5;

/// Mutable per-person simulation state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersonSlot {
    /// Global person id.
    pub id: u32,
    /// PTTS tracker.
    pub health: HealthTracker,
    /// Personal susceptibility multiplier (1.0 = unmodified; lowered by
    /// vaccination).
    pub sus_scale: f32,
    /// Day this person was infected (`Some(0)` for seeds).
    pub infected_on: Option<u32>,
    /// Who infected this person (`None` for seeds and environment-only
    /// attributions) — the edge of the transmission tree.
    pub infected_by: Option<u32>,
}

impl PersonSlot {
    /// Fresh slot in the disease's start state.
    pub fn new(id: u32, ptts: &Ptts) -> Self {
        PersonSlot {
            id,
            health: HealthTracker::new(ptts),
            sus_scale: 1.0,
            infected_on: None,
            infected_by: None,
        }
    }

    /// Seed this person as infected before day 0.
    pub fn seed(&mut self, ptts: &Ptts, seed: u64) {
        self.health.infect(ptts, seed, self.id as u64, 0);
        self.infected_on = Some(0);
        self.infected_by = None;
    }

    /// Whether this person currently counts as infected (dwelling in a
    /// non-absorbing state).
    #[inline]
    pub fn is_infected(&self) -> bool {
        self.health.days_remaining != u32::MAX
    }
}

/// What a person's morning decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morning {
    /// In the symptomatic state (reported in the day's statistics).
    pub symptomatic: bool,
    /// Self-isolating today: only home visits happen.
    pub stay_home: bool,
}

/// The morning of phase 1 for one person: advance health, apply the day's
/// vaccination orders, and draw the stay-home decision. [`person_day`]
/// runs it before emitting visits; the sequential oracle runs it alone and
/// applies [`attends`] to the schedule itself.
#[inline]
pub fn person_morning(
    slot: &mut PersonSlot,
    ptts: &Ptts,
    effects: &DayEffects,
    symptomatic_state: Option<StateId>,
    seed: u64,
    day: u32,
) -> Morning {
    // 1. Health-state recalculation.
    slot.health.advance(ptts, seed, slot.id as u64, day as u64);

    // 2. Interventions: vaccination orders (one compliance draw per order).
    for order in &effects.vaccinations {
        if ptts.is_susceptible(slot.health.state)
            && order.applies_to(seed, slot.id as u64, day as u64)
        {
            slot.health.treatment = order.treatment;
            slot.sus_scale = (slot.sus_scale as f64 * order.efficacy_factor) as f32;
        }
    }

    // 3. The self-isolation draw.
    let symptomatic = Some(slot.health.state) == symptomatic_state;
    Morning {
        symptomatic,
        stay_home: stays_home(seed, slot.id, day, symptomatic),
    }
}

/// The self-isolation draw: a symptomatic person stays home today with
/// probability [`SYMPTOMATIC_STAY_HOME_PROB`], keyed by `(seed, person,
/// day)`, so whoever knows the person's state can draw it.
#[inline]
pub fn stays_home(seed: u64, person: u32, day: u32, symptomatic: bool) -> bool {
    symptomatic
        && CounterRng::for_entity(seed, person as u64, day as u64, Purpose::Schedule)
            .bernoulli(SYMPTOMATIC_STAY_HOME_PROB)
}

/// Whether a visit to `location` is at the visitor's `home`.
///
/// `orig_of_location` maps (possibly splitLoc-rewritten) location ids back
/// to original ids so the stay-home filter recognises every piece of a
/// split home as "home"; `None` means the population was never split.
/// `home` predates any split, so it maps to itself. Without the mapping an
/// aggressive split threshold silently drops the *home* visits of
/// self-isolating people, changing the epidemic.
#[inline]
pub fn at_home(home: u32, location: u32, orig_of_location: Option<&[u32]>) -> bool {
    match orig_of_location {
        Some(map) => map[location as usize] == home,
        None => location == home,
    }
}

/// Whether a scheduled visit to a location of `kind` happens today: closed
/// kinds drop every non-home visit, and a person staying home keeps only
/// visits `at_home`.
#[inline]
pub fn attends(effects: &DayEffects, kind: LocationKind, at_home: bool, stay_home: bool) -> bool {
    let closed = effects.is_closed(kind as u8) && kind != LocationKind::Home;
    !closed && (at_home || !stay_home)
}

/// Phase 1 for one person: [`person_morning`], then emit today's visit
/// messages into `out`. Returns the symptomatic flag used for reporting.
/// `orig_of_location` is [`at_home`]'s split map.
#[allow(clippy::too_many_arguments)]
pub fn person_day(
    slot: &mut PersonSlot,
    pop: &Population,
    ptts: &Ptts,
    effects: &DayEffects,
    symptomatic_state: Option<StateId>,
    orig_of_location: Option<&[u32]>,
    seed: u64,
    day: u32,
    out: &mut Vec<VisitMsg>,
) -> bool {
    let morning = person_morning(slot, ptts, effects, symptomatic_state, seed, day);
    let home = pop.people[slot.id as usize].home.0;
    for v in pop.visits_of(PersonId(slot.id)) {
        let kind = pop.locations[v.location.0 as usize].kind;
        let at_home = at_home(home, v.location.0, orig_of_location);
        if attends(effects, kind, at_home, morning.stay_home) {
            out.push(visit_to_msg(v, slot));
        }
    }
    morning.symptomatic
}

/// Convert a schedule visit into today's visit message with the person's
/// current health attached.
#[inline]
pub fn visit_to_msg(v: &Visit, slot: &PersonSlot) -> VisitMsg {
    VisitMsg {
        person: slot.id,
        location: v.location.0,
        sublocation: v.sublocation.0,
        start_min: v.start_min,
        end_min: v.end_min(),
        state: slot.health.state,
        sus_scale: slot.sus_scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptts::flu_model;
    use ptts::intervention::VaccinationOrder;
    use ptts::model::TreatmentId;
    use synthpop::PopulationConfig;

    fn setup() -> (Population, Ptts) {
        let pop = Population::generate(&PopulationConfig::small("T", 200, 3));
        (pop, flu_model())
    }

    #[test]
    fn healthy_person_emits_full_schedule() {
        let (pop, ptts) = setup();
        let mut slot = PersonSlot::new(0, &ptts);
        let mut out = Vec::new();
        person_day(
            &mut slot,
            &pop,
            &ptts,
            &DayEffects::none(),
            ptts.state_by_name("symptomatic"),
            None,
            1,
            0,
            &mut out,
        );
        assert_eq!(out.len(), pop.visits_of(PersonId(0)).len());
        assert!(out.iter().all(|m| m.state == ptts.start_state()));
    }

    #[test]
    fn school_closure_drops_school_visits() {
        let (pop, ptts) = setup();
        // Find a person anchored at a school.
        let pid = (0..pop.n_people())
            .find(|&p| {
                pop.people[p as usize]
                    .anchor
                    .map(|a| pop.locations[a.0 as usize].kind == LocationKind::School)
                    .unwrap_or(false)
            })
            .expect("some child in population");
        let mut slot = PersonSlot::new(pid, &ptts);
        let effects = DayEffects {
            closed_kinds: 1 << (LocationKind::School as u8),
            r_scale: 1.0,
            vaccinations: Vec::new(),
        };
        let mut out = Vec::new();
        person_day(&mut slot, &pop, &ptts, &effects, None, None, 1, 0, &mut out);
        assert!(out
            .iter()
            .all(|m| pop.locations[m.location as usize].kind != LocationKind::School));
        assert!(out.len() < pop.visits_of(PersonId(pid)).len());
    }

    #[test]
    fn vaccination_order_lowers_susceptibility() {
        let (pop, ptts) = setup();
        let order = VaccinationOrder {
            fraction: 1.0,
            treatment: TreatmentId(1),
            efficacy_factor: 0.3,
        };
        let effects = DayEffects {
            closed_kinds: 0,
            r_scale: 1.0,
            vaccinations: vec![order],
        };
        let mut slot = PersonSlot::new(5, &ptts);
        let mut out = Vec::new();
        person_day(&mut slot, &pop, &ptts, &effects, None, None, 1, 0, &mut out);
        assert!((slot.sus_scale - 0.3).abs() < 1e-6);
        assert_eq!(slot.health.treatment, TreatmentId(1));
        assert!(out.iter().all(|m| (m.sus_scale - 0.3).abs() < 1e-6));
    }

    #[test]
    fn symptomatic_stay_home_rate() {
        let (pop, ptts) = setup();
        let sym = ptts.state_by_name("symptomatic").unwrap();
        let mut stayed = 0;
        let mut total = 0;
        for pid in 0..pop.n_people() {
            let mut slot = PersonSlot::new(pid, &ptts);
            slot.health.state = sym;
            slot.health.days_remaining = 3;
            let mut out = Vec::new();
            let symptomatic = person_day(
                &mut slot,
                &pop,
                &ptts,
                &DayEffects::none(),
                Some(sym),
                None,
                7,
                0,
                &mut out,
            );
            assert!(symptomatic);
            let home = pop.people[pid as usize].home;
            let full = pop.visits_of(PersonId(pid)).len();
            if out.len() < full || out.iter().all(|m| m.location == home.0) {
                stayed += 1;
            }
            total += 1;
        }
        let frac = stayed as f64 / total as f64;
        // Some persons have home-only schedules, so observed rate can sit
        // slightly above the 50% coin.
        assert!(frac > 0.35 && frac < 0.75, "stay-home fraction {frac}");
    }
}
