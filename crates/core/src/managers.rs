//! PersonManager and LocationManager chares (§II-C).
//!
//! "We follow a two-level hierarchical data distribution technique … we
//! create two types of chares, LocationManagers (LM) and PersonManagers
//! (PM), each able to manage multiple second level objects representing
//! individual locations and persons … The individual chares in both arrays
//! handle the computation and communication of all location or person
//! objects assigned to them."

use crate::kernel::{
    simulate_location_day, InfectivityClasses, KernelScratch, LocationDayFeatures,
};
use crate::messages::{slots, InfectMsg, SharedRef, SimMsg, VisitMsg};
use crate::person::{person_day, PersonSlot};
use chare_rt::{AggregationConfig, Chare, ChareId, Ctx};
use ptts::model::StateId;

/// Most visits (or infects) one batch message carries: about 20 KB of
/// visits on the wire, well inside the net engine's 256 KB shm ring. A lane
/// that reaches the cap is sent at once; the remainder goes at the end of
/// the phase.
pub const BATCH_CAP: usize = 1024;

/// The lane cap a runtime configuration asks for: [`BATCH_CAP`] with
/// aggregation on, 1 with it off — one message per visit, the paper's
/// "RR no-opt" traffic (§IV-C).
pub(crate) fn lane_cap(aggregation: AggregationConfig) -> usize {
    if aggregation.enabled {
        BATCH_CAP
    } else {
        1
    }
}

/// A manager's outgoing items for the phase in progress, one lane per
/// destination chare: the application-aware aggregation of §IV-C, and the
/// only aggregation level in the system. The manager knows a day's visits
/// toward one LocationManager (or infects toward one PersonManager) form a
/// batch, so each lane travels as one message per `cap` items instead of
/// one message per item.
struct Lanes<T> {
    /// Lane `i` is bound for chare `first_chare + i`.
    first_chare: u32,
    /// Items per message ([`lane_cap`]).
    cap: usize,
    /// The [`SimMsg`] variant that carries a lane.
    wrap: fn(Vec<T>) -> SimMsg,
    bufs: Vec<Vec<T>>,
}

impl<T> Lanes<T> {
    fn new(first_chare: u32, n_lanes: u32, cap: usize, wrap: fn(Vec<T>) -> SimMsg) -> Self {
        Lanes {
            first_chare,
            cap,
            wrap,
            bufs: (0..n_lanes).map(|_| Vec::new()).collect(),
        }
    }

    /// Queue `item` for chare `to`, sending its lane if that fills it.
    fn push(&mut self, to: u32, item: T, ctx: &mut Ctx<'_, SimMsg>) {
        let buf = &mut self.bufs[(to - self.first_chare) as usize];
        buf.push(item);
        if buf.len() >= self.cap {
            // A lane that filled once will likely fill again today.
            let full = std::mem::replace(buf, Vec::with_capacity(self.cap));
            ctx.send(ChareId(to), (self.wrap)(full));
        }
    }

    /// Send what is left in every lane (end of the phase's sends).
    fn flush(&mut self, ctx: &mut Ctx<'_, SimMsg>) {
        for (to, buf) in (self.first_chare..).zip(&mut self.bufs) {
            if !buf.is_empty() {
                ctx.send(ChareId(to), (self.wrap)(std::mem::take(buf)));
            }
        }
    }
}

/// A PersonManager: owns a set of persons, drives phase 1, and applies
/// phase 5's infections as they arrive.
pub struct PersonManager {
    shared: SharedRef,
    persons: Vec<PersonSlot>,
    symptomatic_state: Option<StateId>,
    /// The day in progress (set by `BeginDay`).
    day: u32,
    /// Per local slot: the winning `(time_min, infector)` key of a person
    /// this PM infected today; `None` for everyone else. Reset at the next
    /// `BeginDay`, so it never outlives the day.
    infected_today: Vec<Option<(u16, u32)>>,
    /// Local slots set in `infected_today`.
    touched: Vec<u32>,
    /// Scratch buffer reused across days.
    visit_buf: Vec<VisitMsg>,
    /// The day's outgoing visits, one lane per LocationManager.
    lanes: Lanes<VisitMsg>,
}

impl PersonManager {
    /// Build a PM owning `person_ids` (ascending order expected; local slot
    /// index must match `Shared::local_of_person`).
    pub fn new(shared: SharedRef, person_ids: Vec<u32>) -> Self {
        let persons = person_ids
            .iter()
            .map(|&id| PersonSlot::new(id, &shared.ptts))
            .collect();
        Self::with_states(shared, persons)
    }

    /// Build a PM from pre-existing person states (chare migration: the
    /// §VII load-rebalancing path re-homes persons between epochs).
    pub fn with_states(shared: SharedRef, persons: Vec<PersonSlot>) -> Self {
        let symptomatic_state = shared.ptts.state_by_name("symptomatic");
        let k = shared.layout.k;
        let lanes = Lanes::new(k, k, shared.lane_cap, SimMsg::Visits);
        PersonManager {
            shared,
            infected_today: vec![None; persons.len()],
            persons,
            symptomatic_state,
            day: 0,
            touched: Vec::new(),
            visit_buf: Vec::new(),
            lanes,
        }
    }

    /// Take the person states out (after `Runtime::into_chares`).
    pub fn into_persons(self) -> Vec<PersonSlot> {
        self.persons
    }

    /// Seed an initial infection (before day 0).
    pub fn seed_infection(&mut self, local_idx: u32) {
        let shared = self.shared.clone();
        self.persons[local_idx as usize].seed(&shared.ptts, shared.seed);
    }

    /// The owned persons (read access for tests and result extraction).
    pub fn persons(&self) -> &[PersonSlot] {
        &self.persons
    }

    fn begin_day(
        &mut self,
        day: u32,
        effects: &crate::messages::DayEffects,
        ctx: &mut Ctx<'_, SimMsg>,
    ) {
        self.day = day;
        for local in self.touched.drain(..) {
            self.infected_today[local as usize] = None;
        }
        let shared = self.shared.clone();
        let mut symptomatic = 0u64;
        let mut infected_now = 0u64;
        let mut susceptible = 0u64;
        let mut visits_sent = 0u64;
        for slot in &mut self.persons {
            self.visit_buf.clear();
            let sym = person_day(
                slot,
                &shared.pop,
                &shared.ptts,
                effects,
                self.symptomatic_state,
                Some(&shared.layout.orig_of_location),
                shared.seed,
                day,
                &mut self.visit_buf,
            );
            symptomatic += sym as u64;
            infected_now += slot.is_infected() as u64;
            susceptible += shared.ptts.is_susceptible(slot.health.state) as u64;
            visits_sent += self.visit_buf.len() as u64;
            for visit in self.visit_buf.drain(..) {
                let lm = shared.layout.lm_of_location[visit.location as usize];
                self.lanes.push(lm, visit, ctx);
            }
        }
        self.lanes.flush(ctx);
        ctx.contribute(slots::SYMPTOMATIC, symptomatic);
        ctx.contribute(slots::INFECTED_NOW, infected_now);
        ctx.contribute(slots::SUSCEPTIBLE, susceptible);
        ctx.contribute(slots::VISITS_SENT, visits_sent);
    }

    /// Phase 5, applied as infects arrive: a person's first infect of the
    /// day infects them if they are still susceptible; a later infect with
    /// a smaller `(time_min, infector)` key only re-attributes a person
    /// infected today. The outcome is the sequential oracle's
    /// record-then-apply: no location reads person state, and the dwell
    /// draw is keyed by `(seed, person, day)`, not by which infect won.
    fn apply_infects(&mut self, batch: &[InfectMsg], ctx: &mut Ctx<'_, SimMsg>) {
        let shared = self.shared.clone();
        let day = self.day;
        let mut new_infections = 0u64;
        for infect in batch {
            let local = shared.layout.local_of_person[infect.person as usize];
            let key = (infect.time_min, infect.infector);
            let infected_by = (infect.infector != u32::MAX).then_some(infect.infector);
            let slot = &mut self.persons[local as usize];
            match &mut self.infected_today[local as usize] {
                Some(best) => {
                    if key < *best {
                        *best = key;
                        slot.infected_by = infected_by;
                    }
                }
                today @ None => {
                    if slot
                        .health
                        .infect(&shared.ptts, shared.seed, slot.id as u64, day as u64)
                    {
                        slot.infected_on = Some(day);
                        slot.infected_by = infected_by;
                        *today = Some(key);
                        self.touched.push(local);
                        new_infections += 1;
                    }
                }
            }
        }
        if new_infections > 0 {
            ctx.contribute(slots::NEW_INFECTIONS, new_infections);
        }
    }
}

impl Chare<SimMsg> for PersonManager {
    fn receive(&mut self, msg: SimMsg, ctx: &mut Ctx<'_, SimMsg>) {
        match msg {
            SimMsg::BeginDay { day, effects } => self.begin_day(day, &effects, ctx),
            SimMsg::Infects(batch) => self.apply_infects(&batch, ctx),
            other => panic!("PersonManager got unexpected message {other:?}"),
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        // Person state is the only chare state that cannot be rebuilt from
        // deterministic construction; LocationManagers keep the default
        // `None` (visit buffers are empty at day boundaries and feature
        // totals are analysis-only).
        Some(crate::checkpoint::encode_person_shard(&self.persons).to_vec())
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// A LocationManager: owns a set of locations, buffers the day's visit
/// messages, and runs the DES in phase 3.
pub struct LocationManager {
    shared: SharedRef,
    /// Global location ids owned, ordered by local slot.
    locations: Vec<u32>,
    /// Per-location visit buffer for the current day.
    buffers: Vec<Vec<VisitMsg>>,
    classes: InfectivityClasses,
    /// DES working memory reused across locations and days.
    scratch: KernelScratch,
    /// Accumulated per-location features of the most recent day (exposed
    /// for load-model calibration).
    pub last_features: Vec<LocationDayFeatures>,
    /// Per-location features summed over every day this LM has computed —
    /// the measured dynamic load the §VII rebalancer feeds on.
    pub feature_totals: Vec<LocationDayFeatures>,
    infect_buf: Vec<InfectMsg>,
    /// The day's outgoing infects, one lane per PersonManager.
    lanes: Lanes<InfectMsg>,
}

impl LocationManager {
    /// Build an LM owning `location_ids` (local slot order must match
    /// `Shared::local_of_location`).
    pub fn new(shared: SharedRef, location_ids: Vec<u32>) -> Self {
        let n = location_ids.len();
        let classes = InfectivityClasses::new(&shared.ptts);
        let lanes = Lanes::new(0, shared.layout.k, shared.lane_cap, SimMsg::Infects);
        // Sized once here, so no day grows a buffer.
        let buffers = location_ids
            .iter()
            .map(|&l| Vec::with_capacity(shared.layout.visits_per_location[l as usize] as usize))
            .collect();
        LocationManager {
            shared,
            locations: location_ids,
            buffers,
            classes,
            scratch: KernelScratch::new(),
            last_features: vec![LocationDayFeatures::default(); n],
            feature_totals: vec![LocationDayFeatures::default(); n],
            infect_buf: Vec::new(),
            lanes,
        }
    }

    /// The owned location ids.
    pub fn locations(&self) -> &[u32] {
        &self.locations
    }

    fn compute_day(&mut self, day: u32, r_eff: f64, ctx: &mut Ctx<'_, SimMsg>) {
        let shared = self.shared.clone();
        let mut events = 0u64;
        let mut interactions = 0u64;
        let mut infects_sent = 0u64;
        let mut by_kind = [0u64; 5];
        for li in 0..self.locations.len() {
            self.infect_buf.clear();
            let features = simulate_location_day(
                &mut self.buffers[li],
                &shared.ptts,
                &self.classes,
                r_eff,
                shared.seed,
                day,
                &mut self.scratch,
                &mut self.infect_buf,
            );
            self.buffers[li].clear();
            events += features.events;
            interactions += features.interactions;
            infects_sent += self.infect_buf.len() as u64;
            let kind = shared.pop.locations[self.locations[li] as usize].kind as usize;
            by_kind[kind] += self.infect_buf.len() as u64;
            self.last_features[li] = features;
            let tot = &mut self.feature_totals[li];
            tot.events += features.events;
            tot.interactions += features.interactions;
            tot.sum_reciprocal_interactions += features.sum_reciprocal_interactions;
            for infect in self.infect_buf.drain(..) {
                let pm = shared.layout.pm_of_person[infect.person as usize];
                self.lanes.push(pm, infect, ctx);
            }
        }
        self.lanes.flush(ctx);
        ctx.contribute(slots::EVENTS, events);
        ctx.contribute(slots::INTERACTIONS, interactions);
        ctx.contribute(slots::INFECTS_SENT, infects_sent);
        for (k, &n) in by_kind.iter().enumerate() {
            if n > 0 {
                ctx.contribute(slots::BY_KIND_BASE + k, n);
            }
        }
    }
}

impl Chare<SimMsg> for LocationManager {
    fn receive(&mut self, msg: SimMsg, ctx: &mut Ctx<'_, SimMsg>) {
        match msg {
            SimMsg::Visits(batch) => {
                for v in batch {
                    let layout = &self.shared.layout;
                    let buf =
                        &mut self.buffers[layout.local_of_location[v.location as usize] as usize];
                    debug_assert!(
                        !self.shared.exactly_once
                            || buf.len() < layout.visits_per_location[v.location as usize] as usize,
                        "location {} got more visits than its normative schedule",
                        v.location
                    );
                    buf.push(v);
                }
            }
            SimMsg::ComputeDay { day, r_eff } => self.compute_day(day, r_eff, ctx),
            other => panic!("LocationManager got unexpected message {other:?}"),
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}
