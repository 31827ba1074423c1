//! Person-side logic (§II-B steps 1 and 5): daily health update, reaction
//! to interventions, schedule realization, and infection application.
//!
//! All of it is pure functions over [`PersonSlot`] so the PersonManager
//! chare and the sequential oracle share one implementation.

use crate::messages::{DayEffects, InfectMsg, VisitMsg};
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
    /// Best pending infection for today, if any: `(time, infector)` —
    /// deterministic dedup keeps the minimum. Only the sequential oracle
    /// records here; a PersonManager applies infects on arrival, so on the
    /// chare path this stays `None`.
    pub pending: Option<(u16, u32)>,
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
            pending: None,
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

    /// Record an infect message, keeping the deterministic minimum.
    pub fn record_infection(&mut self, msg: &InfectMsg) {
        let cand = (msg.time_min, msg.infector);
        match self.pending {
            Some(best) if best <= cand => {}
            _ => self.pending = Some(cand),
        }
    }

    /// Phase 5: apply the pending infection, if the person is still
    /// susceptible. Returns `true` on a new infection.
    pub fn apply_pending(&mut self, ptts: &Ptts, seed: u64, day: u32) -> bool {
        if let Some((_, infector)) = self.pending.take() {
            if self.health.infect(ptts, seed, self.id as u64, day as u64) {
                self.infected_on = Some(day);
                self.infected_by = (infector != u32::MAX).then_some(infector);
                return true;
            }
        }
        false
    }
}

/// Phase 1 for one person: advance health, apply interventions, and emit
/// today's visit messages into `out`. Returns the symptomatic flag used for
/// reporting.
///
/// `orig_of_location` maps (possibly splitLoc-rewritten) location ids back
/// to original ids so the stay-home filter recognises every piece of a
/// split home as "home"; `None` means the population was never split.
/// Without the mapping an aggressive split threshold silently drops the
/// *home* visits of self-isolating people, changing the epidemic.
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

    // 3. Schedule: normative visits filtered by policy and health.
    let symptomatic = Some(slot.health.state) == symptomatic_state;
    let stay_home = symptomatic
        && CounterRng::for_entity(seed, slot.id as u64, day as u64, Purpose::Schedule)
            .bernoulli(SYMPTOMATIC_STAY_HOME_PROB);

    let home = pop.people[slot.id as usize].home;
    for v in pop.visits_of(PersonId(slot.id)) {
        let kind = pop.locations[v.location.0 as usize].kind;
        if effects.is_closed(kind as u8) && kind != LocationKind::Home {
            continue;
        }
        let at_home = match orig_of_location {
            // `home` predates any split, so it maps to itself; a visit is
            // "home" when its (possibly split-piece) location maps back to
            // the same original.
            Some(map) => map[v.location.0 as usize] == home.0,
            None => v.location == home,
        };
        if stay_home && !at_home {
            continue;
        }
        out.push(visit_to_msg(v, slot));
    }
    symptomatic
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
    fn infection_dedup_keeps_minimum() {
        let (_, ptts) = setup();
        let mut slot = PersonSlot::new(1, &ptts);
        slot.record_infection(&InfectMsg {
            person: 1,
            time_min: 500,
            infector: 9,
        });
        slot.record_infection(&InfectMsg {
            person: 1,
            time_min: 200,
            infector: 42,
        });
        slot.record_infection(&InfectMsg {
            person: 1,
            time_min: 200,
            infector: 50,
        });
        assert_eq!(slot.pending, Some((200, 42)));
    }

    #[test]
    fn apply_pending_infects_once() {
        let (_, ptts) = setup();
        let mut slot = PersonSlot::new(1, &ptts);
        slot.record_infection(&InfectMsg {
            person: 1,
            time_min: 100,
            infector: 2,
        });
        assert!(slot.apply_pending(&ptts, 1, 0));
        assert!(slot.is_infected());
        assert_eq!(slot.health.state, ptts.exposed_state());
        // No pending left; re-applying does nothing.
        assert!(!slot.apply_pending(&ptts, 1, 1));
    }

    #[test]
    fn apply_pending_noop_when_already_infected() {
        let (_, ptts) = setup();
        let mut slot = PersonSlot::new(1, &ptts);
        slot.record_infection(&InfectMsg {
            person: 1,
            time_min: 100,
            infector: 2,
        });
        slot.apply_pending(&ptts, 1, 0);
        slot.record_infection(&InfectMsg {
            person: 1,
            time_min: 50,
            infector: 3,
        });
        assert!(!slot.apply_pending(&ptts, 1, 1), "already latent");
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
