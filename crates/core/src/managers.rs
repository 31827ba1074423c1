//! PersonManager and LocationManager chares (§II-C).
//!
//! "We follow a two-level hierarchical data distribution technique … we
//! create two types of chares, LocationManagers (LM) and PersonManagers
//! (PM), each able to manage multiple second level objects representing
//! individual locations and persons … The individual chares in both arrays
//! handle the computation and communication of all location or person
//! objects assigned to them."
//!
//! With aggregation on (the default) a day is state deltas over the
//! world's static [`SweepLayout`](crate::layout::SweepLayout). A PM sends an
//! [`Update`] down a person's `(partition, slot)` routes only when its
//! `(state, sus_scale)` differs from what it last sent. On an ordinary day
//! a PM runs only the mornings of its roster, the persons whose morning
//! can change something; a day with a vaccination order or a closed kind
//! runs every morning, as `core::seq` always does. Each LM caches its
//! visitors' pairs by slot, draws its symptomatic visitors' stay-home
//! decisions, walks only their own visits, counts the day's visits, and
//! sweeps only the sublocation groups an infectious visitor attends, over
//! its range of the layout, as `core::seq` does.
//! With aggregation off (`no_opt`) the day is the paper's protocol: one
//! visit message per attended visit, buffered by the LM and run through
//! [`simulate_location_day`].

use crate::kernel::{
    overlap_sublocation, simulate_location_day, InfectivityClasses, KernelScratch,
    LocationDayFeatures,
};
use crate::layout::Member;
use crate::messages::{slots, DayEffects, InfectMsg, SharedRef, SimMsg, Update, VisitMsg};
use crate::person::{attends, person_day, person_morning, stays_home, PersonSlot};
use chare_rt::{Chare, ChareId, Ctx};
use ptts::model::StateId;
use ptts::Ptts;
use synthpop::LocationKind;

/// Most updates (or infects) one batch message carries: about 10 KB on
/// the wire, well inside the net engine's 256 KB shm ring. A lane that
/// reaches the cap is sent at once; the remainder goes at the end of the
/// phase.
pub const BATCH_CAP: usize = 1024;

/// A manager's outgoing items for the phase in progress, one lane per
/// destination chare: the application-aware aggregation of §IV-C, and the
/// only aggregation level in the system. The manager knows a day's updates
/// toward one LocationManager (or infects toward one PersonManager) form a
/// batch, so each lane travels as one message per `cap` items instead of
/// one message per item.
struct Lanes<T> {
    /// Lane `i` is bound for chare `first_chare + i`.
    first_chare: u32,
    /// Items per message: [`BATCH_CAP`] with aggregation on, 1 (the
    /// paper's "RR no-opt" traffic, §IV-C) with it off.
    cap: usize,
    /// The [`SimMsg`] variant that carries a lane.
    wrap: fn(Vec<T>) -> SimMsg,
    /// Per lane: its items, and the size of the batch it last flushed.
    bufs: Vec<(Vec<T>, usize)>,
}

impl<T> Lanes<T> {
    fn new(shared: &SharedRef, first_chare: u32, wrap: fn(Vec<T>) -> SimMsg) -> Self {
        let k = shared.world.k();
        Lanes {
            first_chare,
            cap: if shared.aggregated { BATCH_CAP } else { 1 },
            wrap,
            bufs: (0..k).map(|_| (Vec::new(), 0)).collect(),
        }
    }

    /// Queue `item` for chare `to`, sending its lane if that fills it.
    fn push(&mut self, to: u32, item: T, ctx: &mut Ctx<'_, SimMsg>) {
        let (buf, last) = &mut self.bufs[(to - self.first_chare) as usize];
        if buf.capacity() == 0 {
            buf.reserve(*last);
        }
        buf.push(item);
        if buf.len() >= self.cap {
            // A lane that filled once will likely fill again today.
            let full = std::mem::replace(buf, Vec::with_capacity(self.cap));
            ctx.send(ChareId(to), (self.wrap)(full));
        }
    }

    /// Send what is left in every lane (end of the phase's sends).
    fn flush(&mut self, ctx: &mut Ctx<'_, SimMsg>) {
        for (to, (buf, last)) in (self.first_chare..).zip(&mut self.bufs) {
            if !buf.is_empty() {
                *last = buf.len();
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
    /// Per local slot: 1 + the start minute of the infect that won the
    /// person's latest infection, so `(won_at, infected_by)` is the winning
    /// key while `infected_on` is today; 0 (no winner) until an infect
    /// infects the person, so a seed is never taken for infected today.
    won_at: Vec<u16>,
    /// Per local slot: the `(state, sus_scale bits)` last sent to the
    /// person's LocationManagers. It starts at the baseline every LM cache
    /// starts from, so a PM rebuilt from restored states re-sends whoever
    /// differs from it.
    sent: Vec<(StateId, u32)>,
    /// Bitset over local slots: the persons [`on_roster`], whose mornings
    /// are the only ones an ordinary day runs.
    roster: Vec<u64>,
    /// Persons in a susceptible state, kept at every state change.
    susceptible: u64,
    /// The day's outgoing updates, one lane per LocationManager.
    updates: Lanes<Update>,
    /// `no_opt` only: the day's visits, one lane per LocationManager, and
    /// a scratch buffer reused across persons.
    visits: Option<(Lanes<VisitMsg>, Vec<VisitMsg>)>,
}

/// Whether a person's morning can change anything: a finite dwell, an
/// infectious or symptomatic state (a daily stay-home draw), or an update
/// owed. Anyone else keeps their state and, with no kind closed, attends.
fn on_roster(ptts: &Ptts, sym: Option<StateId>, slot: &PersonSlot, sent: (StateId, u32)) -> bool {
    let state = slot.health.state;
    slot.is_infected()
        || ptts.is_infectious(state)
        || Some(state) == sym
        || (state, slot.sus_scale.to_bits()) != sent
}

impl PersonManager {
    /// Build a PM owning `persons`: a partition's persons in the order of
    /// the world's `local_of_person`, fresh or restored from a checkpoint
    /// (which may come from another distribution of the population).
    /// One pass lists the roster, so day 0 runs only its mornings.
    pub fn new(shared: SharedRef, persons: Vec<PersonSlot>) -> Self {
        let symptomatic_state = shared.ptts.state_by_name("symptomatic");
        let k = shared.world.k();
        let baseline = (shared.ptts.start_state(), 1.0f32.to_bits());
        let ptts = &*shared.ptts;
        let mut roster = vec![0; persons.len().div_ceil(64)];
        let mut susceptible = 0;
        for (local, slot) in persons.iter().enumerate() {
            let listed = on_roster(ptts, symptomatic_state, slot, baseline);
            roster[local / 64] |= u64::from(listed) << (local % 64);
            susceptible += u64::from(ptts.is_susceptible(slot.health.state));
        }
        PersonManager {
            won_at: vec![0; persons.len()],
            sent: vec![baseline; persons.len()],
            persons,
            symptomatic_state,
            day: 0,
            roster,
            susceptible,
            updates: Lanes::new(&shared, k, SimMsg::Updates),
            visits: (!shared.aggregated)
                .then(|| (Lanes::new(&shared, k, SimMsg::Visits), Vec::new())),
            shared,
        }
    }

    /// Take the person states out (after `Runtime::into_chares`).
    pub fn into_persons(self) -> Vec<PersonSlot> {
        self.persons
    }

    fn begin_day(&mut self, day: u32, effects: &DayEffects, ctx: &mut Ctx<'_, SimMsg>) {
        self.day = day;
        let shared = self.shared.clone();
        let (world, ptts, sweep) = (&shared.world, &*shared.ptts, &*shared.sweep);
        let (pop, k, location_part) = (&*world.pop, world.k(), world.location_part());
        let orig = Some(&world.orig_of_location[..]);
        let mut symptomatic = 0u64;
        let mut infected_now = 0u64;
        let mut updates_sent = 0u64;
        // A vaccination order or a closed kind can change anyone's day, and
        // `no_opt` sends every visit: then every morning runs.
        let everyone =
            !shared.aggregated || effects.closed_kinds != 0 || !effects.vaccinations.is_empty();
        for word in 0..self.roster.len() {
            let listed = std::mem::take(&mut self.roster[word]);
            let all = u64::MAX >> (64 - (self.persons.len() - 64 * word).min(64));
            let mut bits = if everyone { all } else { listed };
            while bits != 0 {
                let local = 64 * word + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = &mut self.persons[local];
                let sent = &mut self.sent[local];
                let was_susceptible = ptts.is_susceptible(slot.health.state);
                if let Some((lanes, visit_buf)) = &mut self.visits {
                    visit_buf.clear();
                    let sym = person_day(
                        slot,
                        pop,
                        ptts,
                        effects,
                        self.symptomatic_state,
                        orig,
                        shared.seed,
                        day,
                        visit_buf,
                    );
                    symptomatic += sym as u64;
                    for visit in visit_buf.drain(..) {
                        let lm = k + location_part[visit.location as usize];
                        lanes.push(lm, visit, ctx);
                    }
                } else {
                    let morning = person_morning(
                        slot,
                        ptts,
                        effects,
                        self.symptomatic_state,
                        shared.seed,
                        day,
                    );
                    symptomatic += morning.symptomatic as u64;
                    let now = (slot.health.state, slot.sus_scale.to_bits());
                    if now != *sent {
                        *sent = now;
                        // One update per LocationManager on the schedule,
                        // addressed to the person's slot there.
                        let routes = sweep.routes_of(slot.id as usize);
                        for &(part, visitor) in routes {
                            let update = Update {
                                slot: visitor,
                                state: slot.health.state,
                                sus_scale: slot.sus_scale,
                            };
                            self.updates.push(k + part, update, ctx);
                        }
                        updates_sent += routes.len() as u64;
                    }
                }
                infected_now += slot.is_infected() as u64;
                self.susceptible += u64::from(ptts.is_susceptible(slot.health.state));
                self.susceptible -= u64::from(was_susceptible);
                let listed = on_roster(ptts, self.symptomatic_state, slot, *sent);
                self.roster[word] |= u64::from(listed) << (local % 64);
            }
        }
        self.updates.flush(ctx);
        if let Some((lanes, _)) = &mut self.visits {
            lanes.flush(ctx);
        }
        ctx.contribute(slots::SYMPTOMATIC, symptomatic);
        ctx.contribute(slots::INFECTED_NOW, infected_now);
        ctx.contribute(slots::SUSCEPTIBLE, self.susceptible);
        if updates_sent > 0 {
            ctx.contribute(slots::UPDATES_SENT, updates_sent);
        }
    }

    /// Phase 5, applied as infects arrive: the first infect of the day
    /// infects a susceptible person, and a later one re-attributes a person
    /// an infect infected today if `(time_min + 1, infector)` beats `(won_at,
    /// infected_by)`. A seed has no winner, so an infect changes it only by
    /// infecting it again after a day-0 recovery. As in the oracle's
    /// minimum-then-apply, no location reads person state and the dwell draw
    /// is keyed by `(seed, person, day)`, so arrival order cannot matter.
    fn apply_infects(&mut self, batch: &[InfectMsg], ctx: &mut Ctx<'_, SimMsg>) {
        let shared = self.shared.clone();
        let day = self.day;
        let local_of_person = shared.world.local_of_person();
        let mut new_infections = 0u64;
        for infect in batch {
            let local = local_of_person[infect.person as usize] as usize;
            let key = (infect.time_min + 1, infect.infector);
            let infected_by = (infect.infector != u32::MAX).then_some(infect.infector);
            let (slot, won_at) = (&mut self.persons[local], &mut self.won_at[local]);
            if slot.infected_on == Some(day) && *won_at != 0 {
                if key < (*won_at, slot.infected_by.unwrap_or(u32::MAX)) {
                    *won_at = key.0;
                    slot.infected_by = infected_by;
                }
            } else if slot
                .health
                .infect(&shared.ptts, shared.seed, slot.id as u64, day as u64)
            {
                slot.infected_on = Some(day);
                slot.infected_by = infected_by;
                *won_at = key.0;
                self.roster[local / 64] |= 1 << (local % 64);
                let now = shared.ptts.is_susceptible(slot.health.state);
                self.susceptible = self.susceptible + u64::from(now) - 1;
                new_infections += 1;
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
        // `None` (their caches are rebuilt from the updates of a restored
        // run's first day, visit buffers are empty at day boundaries, and
        // feature totals are analysis-only).
        Some(crate::checkpoint::encode_person_shard(&self.persons).to_vec())
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// A LocationManager: owns a set of locations and, in phase 2, runs the
/// DES over the day's visits to them.
pub struct LocationManager {
    shared: SharedRef,
    /// The partition this LM serves: it owns the world's
    /// `locations_of(part)`, in local-slot order.
    part: u32,
    classes: InfectivityClasses,
    symptomatic_state: Option<StateId>,
    /// Kernel working memory reused across locations and days.
    scratch: KernelScratch,
    /// Per location: the features summed over the days it was swept (every
    /// day under `no_opt`); [`LocationManager::feature_totals`] adds the
    /// other days' events.
    swept: Vec<LocationDayFeatures>,
    infect_buf: Vec<InfectMsg>,
    /// The day's outgoing infects, one lane per PersonManager.
    lanes: Lanes<InfectMsg>,
    /// `no_opt` only: per-location visit buffer for the current day.
    buffers: Option<Vec<Vec<VisitMsg>>>,
    /// What the delta day knows of the visitors.
    visitors: Visitors,
}

/// A LocationManager's visitors under deltas, indexed by their slot: their
/// place in its partition's range of the
/// [`SweepLayout`](crate::layout::SweepLayout)'s visitors.
struct Visitors {
    /// `(state, sus_scale)` as last updated; the baseline until then.
    health: Vec<(StateId, f32)>,
    /// Visitors last seen infectious or symptomatic, the only ones whose
    /// visits can differ from the baseline's day; pruned each day.
    watch: Vec<u32>,
    watched: Vec<bool>,
    /// 1 + the last day the visitor stayed home.
    stayed_home: Vec<u32>,
    /// Bitset over the LM's groups: attended by an infectious visitor
    /// today (cleared as the sweep visits them).
    marks: Vec<u64>,
    /// Per location: visits lost to stay-home decisions, over all days.
    absent: Vec<u64>,
    /// Per location kind: days it was open.
    days_open: [u64; 5],
    /// Per location kind: the LM's scheduled visits there.
    scheduled: [u64; 5],
    /// The group being swept.
    group: Vec<VisitMsg>,
}

impl LocationManager {
    /// Build the LM of partition `part`.
    pub fn new(shared: SharedRef, part: u32) -> Self {
        let n = shared.world.locations_of(part).len();
        let (pop, sweep) = (&shared.world.pop, &shared.sweep);
        let n_visitors = sweep.visitors_of(part).len();
        let groups = sweep.groups_of(part);
        let mut scheduled = [0u64; 5];
        for g in groups.clone() {
            let kind = pop.locations[sweep.place(g).0 as usize].kind;
            scheduled[kind as usize] += sweep.group_len(g) as u64;
        }
        let visitors = Visitors {
            health: vec![(shared.ptts.start_state(), 1.0); n_visitors],
            watch: Vec::new(),
            watched: vec![false; n_visitors],
            stayed_home: vec![0; n_visitors],
            marks: vec![0; groups.len().div_ceil(64)],
            absent: vec![0; n],
            days_open: [0; 5],
            scheduled,
            group: Vec::new(),
        };
        LocationManager {
            classes: InfectivityClasses::new(&shared.ptts),
            symptomatic_state: shared.ptts.state_by_name("symptomatic"),
            lanes: Lanes::new(&shared, 0, SimMsg::Infects),
            part,
            buffers: (!shared.aggregated).then(|| vec![Vec::new(); n]),
            swept: vec![LocationDayFeatures::default(); n],
            scratch: KernelScratch::new(),
            infect_buf: Vec::new(),
            visitors,
            shared,
        }
    }

    /// The owned location ids.
    pub fn locations(&self) -> &[u32] {
        self.shared.world.locations_of(self.part)
    }

    /// Per owned location (in [`LocationManager::locations`] order): its
    /// features summed over every day this LM has computed, as
    /// [`crate::simulator::Simulator::dismantle`] returns them.
    pub fn feature_totals(&self) -> Vec<LocationDayFeatures> {
        let (world, sweep) = (&self.shared.world, &self.shared.sweep);
        let vs = &self.visitors;
        let mut totals = self.swept.clone();
        for g in sweep.groups_of(self.part) {
            let location = sweep.place(g).0 as usize;
            let kind = world.pop.locations[location].kind as usize;
            let li = world.local_of_location()[location] as usize;
            totals[li].events += 2 * sweep.group_len(g) as u64 * vs.days_open[kind];
        }
        for (total, &absent) in totals.iter_mut().zip(&vs.absent) {
            total.events -= 2 * absent;
        }
        totals
    }

    /// Cache a lane of updates.
    fn apply_updates(&mut self, batch: &[Update]) {
        let vs = &mut self.visitors;
        for u in batch {
            let v = u.slot as usize;
            vs.health[v] = (u.state, u.sus_scale);
            let notable =
                self.classes.class(u.state).is_some() || Some(u.state) == self.symptomatic_state;
            if notable && !vs.watched[v] {
                vs.watched[v] = true;
                vs.watch.push(u.slot);
            }
        }
    }

    /// Phase 2 under deltas: decide today's attendance of the watched
    /// visitors, then sweep the groups the infectious attend.
    fn sweep_day(&mut self, day: u32, r_eff: f64, closed_kinds: u8, ctx: &mut Ctx<'_, SimMsg>) {
        let shared = self.shared.clone();
        let (world, sweep) = (&shared.world, &*shared.sweep);
        let pop = &*world.pop;
        let (local_of_location, person_part) = (world.local_of_location(), world.person_part());
        let fx = DayEffects {
            closed_kinds,
            ..DayEffects::none()
        };
        let first_group = sweep.groups_of(self.part).start;
        let first_visitor = sweep.visitors_of(self.part).start;
        let persons = &sweep.visitors()[sweep.visitors_of(self.part)];
        let (classes, symptomatic_state) = (&self.classes, self.symptomatic_state);
        let Visitors {
            health,
            watch,
            watched,
            stayed_home,
            marks,
            absent,
            days_open,
            scheduled,
            group,
        } = &mut self.visitors;

        watch.retain(|&v| {
            let state = health[v as usize].0;
            let notable = classes.class(state).is_some() || Some(state) == symptomatic_state;
            watched[v as usize] = notable;
            notable
        });
        let mut absent_today = 0u64;
        for &v in watch.iter() {
            let state = health[v as usize].0;
            let person = persons[v as usize];
            let stay_home = stays_home(shared.seed, person, day, Some(state) == symptomatic_state);
            if stay_home {
                stayed_home[v as usize] = day + 1;
            }
            let infectious = classes.class(state).is_some();
            if !infectious && !stay_home {
                continue;
            }
            for own in sweep.own_visits(first_visitor + v as usize) {
                let (kind, at_home) = (own.kind(), own.at_home());
                if attends(&fx, kind, at_home, stay_home) {
                    if infectious {
                        let g = own.group() - first_group;
                        marks[g / 64] |= 1 << (g % 64);
                    }
                } else if attends(&fx, kind, at_home, false) {
                    let location = sweep.place(own.group()).0;
                    absent[local_of_location[location as usize] as usize] += 1;
                    absent_today += 1;
                }
            }
        }
        let mut present = 0u64;
        for kind in LocationKind::ALL {
            if attends(&fx, kind, false, false) {
                days_open[kind as usize] += 1;
                present += scheduled[kind as usize];
            }
        }
        present -= absent_today;

        let mut interactions = 0u64;
        let mut infects_sent = 0u64;
        let mut by_kind = [0u64; 5];
        // Features of the location being swept: `(local slot, features)`.
        let mut at: Option<(usize, LocationDayFeatures)> = None;
        let mut settle = |at: Option<(usize, LocationDayFeatures)>| {
            if let Some((li, f)) = at {
                let total = &mut self.swept[li];
                total.interactions += f.interactions;
                total.sum_reciprocal_interactions += f.sum_reciprocal_interactions;
                interactions += f.interactions;
            }
        };
        for (w, word) in marks.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let g = first_group + w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let location = sweep.place(g).0 as usize;
                let li = local_of_location[location] as usize;
                if at.is_none_or(|(at_li, _)| at_li != li) {
                    settle(at.replace((li, LocationDayFeatures::default())));
                }
                let kind = pop.locations[location].kind;
                let present = |m: &Member| {
                    let stayed = stayed_home[m.visitor() - first_visitor] == day + 1;
                    attends(&fx, kind, m.at_home(), stayed)
                };
                let cached = |m: &Member| health[m.visitor() - first_visitor];
                sweep.gather(g, present, cached, group);
                self.infect_buf.clear();
                let features = &mut at.as_mut().expect("set above").1;
                overlap_sublocation(
                    group,
                    &shared.ptts,
                    classes,
                    r_eff,
                    shared.seed,
                    day,
                    &mut self.scratch,
                    &mut self.infect_buf,
                    features,
                );
                infects_sent += self.infect_buf.len() as u64;
                by_kind[kind as usize] += self.infect_buf.len() as u64;
                for infect in self.infect_buf.drain(..) {
                    let pm = person_part[infect.person as usize];
                    self.lanes.push(pm, infect, ctx);
                }
            }
        }
        settle(at);
        self.contribute_day(2 * present, interactions, infects_sent, &by_kind, ctx);
    }

    /// Phase 2 under `no_opt`: the DES over each location's buffered
    /// visits.
    fn simulate_day(&mut self, day: u32, r_eff: f64, ctx: &mut Ctx<'_, SimMsg>) {
        let shared = self.shared.clone();
        let locations = shared.world.locations_of(self.part);
        let buffers = self.buffers.as_mut().expect("no_opt buffers visits");
        let mut events = 0u64;
        let mut interactions = 0u64;
        let mut infects_sent = 0u64;
        let mut by_kind = [0u64; 5];
        for (li, &location) in locations.iter().enumerate() {
            self.infect_buf.clear();
            let features = simulate_location_day(
                &mut buffers[li],
                &shared.ptts,
                &self.classes,
                r_eff,
                shared.seed,
                day,
                &mut self.scratch,
                &mut self.infect_buf,
            );
            buffers[li].clear();
            events += features.events;
            interactions += features.interactions;
            infects_sent += self.infect_buf.len() as u64;
            let kind = shared.world.pop.locations[location as usize].kind as usize;
            by_kind[kind] += self.infect_buf.len() as u64;
            let total = &mut self.swept[li];
            total.events += features.events;
            total.interactions += features.interactions;
            total.sum_reciprocal_interactions += features.sum_reciprocal_interactions;
            for infect in self.infect_buf.drain(..) {
                let pm = shared.world.person_part()[infect.person as usize];
                self.lanes.push(pm, infect, ctx);
            }
        }
        self.contribute_day(events, interactions, infects_sent, &by_kind, ctx);
    }

    fn contribute_day(
        &mut self,
        events: u64,
        interactions: u64,
        infects_sent: u64,
        by_kind: &[u64; 5],
        ctx: &mut Ctx<'_, SimMsg>,
    ) {
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
            SimMsg::Updates(batch) => self.apply_updates(&batch),
            SimMsg::Visits(batch) => {
                let local_of_location = self.shared.world.local_of_location();
                let buffers = self.buffers.as_mut().expect("visits come under no_opt");
                for v in batch {
                    buffers[local_of_location[v.location as usize] as usize].push(v);
                }
            }
            SimMsg::ComputeDay {
                day,
                r_eff,
                closed_kinds,
            } => {
                if self.shared.aggregated {
                    self.sweep_day(day, r_eff, closed_kinds, ctx);
                } else {
                    self.simulate_day(day, r_eff, ctx);
                }
            }
            other => panic!("LocationManager got unexpected message {other:?}"),
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{DataDistribution, Strategy};
    use crate::messages::Shared;
    use chare_rt::{Runtime, RuntimeConfig};
    use ptts::intervention::VaccinationOrder;
    use ptts::model::{DwellDist, PttsBuilder, TreatmentId};
    use std::sync::Arc;
    use synthpop::{Population, PopulationConfig};

    /// An infection ends in a state that never changes: an infectious
    /// `carrier`, a `symptomatic` state that infects no one but draws the
    /// stay-home coin every day, or `recovered` after a finite `sick`
    /// spell. In `flu_model` every infectious or symptomatic state has a
    /// finite dwell, so only a model like this one tells the roster's
    /// clauses apart.
    fn stuck_model() -> Ptts {
        PttsBuilder::new("stuck")
            .treatments(2)
            .state("susceptible", 0.0, 1.0, DwellDist::Forever)
            .state("latent", 0.0, 0.0, DwellDist::Uniform(1, 2))
            .state("carrier", 0.5, 0.0, DwellDist::Forever)
            .state("symptomatic", 0.0, 0.0, DwellDist::Forever)
            .state("sick", 1.0, 0.0, DwellDist::Uniform(2, 4))
            .state("recovered", 0.0, 0.0, DwellDist::Forever)
            .transition(
                "latent",
                TreatmentId::DEFAULT,
                &[("carrier", 0.25), ("symptomatic", 0.25), ("sick", 0.5)],
            )
            .transition("sick", TreatmentId::DEFAULT, &[("recovered", 1.0)])
            .start("susceptible")
            .exposed("latent")
            .build()
            .expect("the stuck model validates")
    }

    /// The roster rule, restated over every person: a finite dwell, an
    /// infectious or the symptomatic state, or an update owed.
    fn brute_force_roster(pm: &PersonManager) -> Vec<u32> {
        let ptts = &pm.shared.ptts;
        let symptomatic = ptts.state_by_name("symptomatic");
        (0..)
            .zip(pm.persons.iter().zip(&pm.sent))
            .filter(|(_, (slot, &sent))| {
                let state = slot.health.state;
                slot.health.days_remaining != u32::MAX
                    || ptts.infectivity(state) > 0.0
                    || Some(state) == symptomatic
                    || (state, slot.sus_scale.to_bits()) != sent
            })
            .map(|(local, _)| local)
            .collect()
    }

    /// The mornings the PM's next ordinary day runs.
    fn next_mornings(pm: &PersonManager) -> Vec<u32> {
        let listed = |local: &u32| pm.roster[*local as usize / 64] >> (local % 64) & 1 == 1;
        (0..pm.persons.len() as u32).filter(listed).collect()
    }

    fn assert_rosters(pms: &[PersonManager], when: &str) {
        for (part, pm) in pms.iter().enumerate() {
            let tail = pm.persons.len() % 64;
            let past_the_end = pm.roster.last().map_or(0, |w| w >> tail);
            assert!(tail == 0 || past_the_end == 0, "PM {part} {when}");
            assert_eq!(
                next_mornings(pm),
                brute_force_roster(pm),
                "PM {part} {when}"
            );
            let ptts = &pm.shared.ptts;
            let susceptible = pm
                .persons
                .iter()
                .filter(|s| ptts.is_susceptible(s.health.state));
            assert_eq!(
                pm.susceptible,
                susceptible.count() as u64,
                "PM {part} {when}"
            );
        }
    }

    type Managers = (Vec<PersonManager>, Vec<LocationManager>);

    /// Every partition's managers, the PMs holding `slot_of` each person.
    fn managers(shared: &SharedRef, slot_of: impl Fn(u32) -> PersonSlot) -> Managers {
        let parts = 0..shared.world.k();
        let pms = parts.clone().map(|part| {
            let persons = shared.world.persons_of(part).iter();
            PersonManager::new(shared.clone(), persons.map(|&p| slot_of(p)).collect())
        });
        let lms = parts.map(|part| LocationManager::new(shared.clone(), part));
        (pms.collect(), lms.collect())
    }

    /// A runtime holding `managers` (PM `p` as chare `p`, LM `p` as chare
    /// `k + p`) that has run day `day`'s `BeginDay` phase.
    fn open_day(
        shared: &SharedRef,
        (pms, lms): Managers,
        day: u32,
        fx: &DayEffects,
    ) -> Runtime<SimMsg> {
        let k = shared.world.k();
        let mut rt = Runtime::new(RuntimeConfig::sequential(2));
        for (part, (pm, lm)) in (0..).zip(pms.into_iter().zip(lms)) {
            rt.add_chare(ChareId(part), part % 2, Box::new(pm));
            rt.add_chare(ChareId(k + part), part % 2, Box::new(lm));
        }
        let begin = |pm| {
            let effects = fx.clone();
            (ChareId(pm), SimMsg::BeginDay { day, effects })
        };
        rt.run_phase((0..k).map(begin).collect());
        rt
    }

    /// The managers back out of an [`open_day`] runtime.
    fn close_day(shared: &SharedRef, rt: Runtime<SimMsg>) -> Managers {
        let (mut pms, mut lms) = (Vec::new(), Vec::new());
        for (id, chare) in rt.into_chares() {
            let any = chare.into_any();
            if id.0 < shared.world.k() {
                pms.push(*any.downcast().expect("a PersonManager"));
            } else {
                lms.push(*any.downcast().expect("a LocationManager"));
            }
        }
        (pms, lms)
    }

    /// Run `days` as the simulator does, on a fresh runtime per day, so
    /// the rosters can be checked at every day boundary.
    fn run_days(
        shared: &SharedRef,
        mut managers: Managers,
        days: std::ops::Range<u32>,
        effects: impl Fn(u32) -> DayEffects,
    ) -> Managers {
        let k = shared.world.k();
        for day in days {
            let fx = effects(day);
            let mut rt = open_day(shared, managers, day, &fx);
            let (r_eff, closed_kinds) = (shared.r * fx.r_scale, fx.closed_kinds);
            let compute = |lm| {
                let msg = SimMsg::ComputeDay {
                    day,
                    r_eff,
                    closed_kinds,
                };
                (ChareId(k + lm), msg)
            };
            rt.run_phase((0..k).map(compute).collect());
            managers = close_day(shared, rt);
            assert_rosters(&managers.0, &format!("after day {day}"));
        }
        managers
    }

    /// After every day, each PM's next mornings are exactly the persons the
    /// roster rule names, its susceptible count is exact, and a PM rebuilt
    /// from mid-epidemic states lists whoever owes an update. Day 2 carries
    /// a vaccination order and days 4–6 close the schools, so the full
    /// passes write the roster too.
    #[test]
    fn roster_is_exactly_the_persons_whose_morning_can_change() {
        let pop = Population::generate(&PopulationConfig::small("ROSTER", 800, 5));
        let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 3, 5);
        let shared: SharedRef = Arc::new(Shared {
            world: dist.clone(),
            ptts: Arc::new(stuck_model()),
            sweep: dist.sweep_layout(),
            r: 0.004,
            seed: 11,
            aggregated: true,
        });
        let ptts = &shared.ptts;
        let order = VaccinationOrder {
            fraction: 0.5,
            treatment: TreatmentId(1),
            efficacy_factor: 0.3,
        };
        let effects = |day: u32| DayEffects {
            closed_kinds: if (4..7).contains(&day) {
                1 << (LocationKind::School as u8)
            } else {
                0
            },
            r_scale: 1.0,
            vaccinations: if day == 2 { vec![order] } else { Vec::new() },
        };
        let fresh = managers(&shared, |p| {
            let mut slot = PersonSlot::new(p, ptts);
            if p % 40 == 0 {
                slot.seed(ptts, shared.seed);
            }
            slot
        });
        assert_rosters(&fresh.0, "at construction");
        let (pms, _) = run_days(&shared, fresh, 0..10, effects);

        // Rebuild every manager from the day-10 states: whoever differs
        // from the baseline owes the fresh LocationManagers an update.
        let mut states: Vec<PersonSlot> = pms.into_iter().flat_map(|pm| pm.persons).collect();
        states.sort_by_key(|s| s.id);
        let rebuilt = managers(&shared, |p| states[p as usize]);
        assert_rosters(&rebuilt.0, "rebuilt");
        let owed_only = rebuilt.0.iter().flat_map(|pm| &pm.persons).filter(|s| {
            let state = s.health.state;
            !s.is_infected()
                && !ptts.is_infectious(state)
                && ptts.state_by_name("symptomatic") != Some(state)
                && (state, s.sus_scale) != (ptts.start_state(), 1.0)
        });
        assert!(
            owed_only.count() > 0,
            "no person is listed for an owed update alone"
        );
        let (pms, _) = run_days(&shared, rebuilt, 10..30, effects);

        let now_in = |name: &str| {
            let state = ptts.state_by_name(name);
            let persons = pms.iter().flat_map(|pm| &pm.persons);
            persons.filter(|s| Some(s.health.state) == state).count()
        };
        assert!(now_in("carrier") > 0, "no absorbing infectious person");
        assert!(now_in("symptomatic") > 0, "no absorbing symptomatic person");
        assert!(now_in("recovered") > 0, "no one left the finite dwells");
    }

    /// Run day `day`'s `BeginDay`, then deliver each of `infects` to its
    /// person's PersonManager as a batch of its own.
    fn infect_day(
        shared: &SharedRef,
        managers: Managers,
        day: u32,
        infects: &[InfectMsg],
    ) -> Managers {
        let mut rt = open_day(shared, managers, day, &DayEffects::none());
        for &infect in infects {
            let pm = shared.world.person_part()[infect.person as usize];
            rt.run_phase(vec![(ChareId(pm), SimMsg::Infects(vec![infect]))]);
        }
        close_day(shared, rt)
    }

    /// The infect rule on one PersonManager under an SIS model: an infect
    /// never re-attributes a seed that is still infected on day 0, but
    /// infects a seed the day-0 morning returned to susceptible, as the
    /// oracle does; two infects for one susceptible give the oracle's
    /// minimum `(time, infector)` in either arrival order, an environment
    /// infect (`u32::MAX`) included; and a reinfection is decided by its
    /// own day's infects, whatever won the person's earlier infection.
    #[test]
    fn infects_settle_on_the_days_minimum_and_spare_the_seeds() {
        let pop = Population::generate(&PopulationConfig::small("INFECT", 200, 3));
        let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 1, 3);
        let sis = PttsBuilder::new("sis")
            .state("susceptible", 0.0, 1.0, DwellDist::Forever)
            .state("infectious", 1.0, 0.0, DwellDist::Geometric(0.5))
            .transition("infectious", TreatmentId::DEFAULT, &[("susceptible", 1.0)])
            .start("susceptible")
            .exposed("infectious")
            .build()
            .expect("the SIS model validates");
        let shared: SharedRef = Arc::new(Shared {
            world: dist.clone(),
            ptts: Arc::new(sis),
            sweep: dist.sweep_layout(),
            r: 0.0,
            seed: 7,
            aggregated: true,
        });
        let ptts = &*shared.ptts;
        let seeded = |p: u32| {
            let mut slot = PersonSlot::new(p, ptts);
            if p < 16 {
                slot.seed(ptts, shared.seed);
            }
            slot
        };
        let lapses = |p: u32| {
            let mut slot = seeded(p);
            slot.health.advance(ptts, shared.seed, p as u64, 0);
            ptts.is_susceptible(slot.health.state)
        };
        let kept = (0..16)
            .find(|&p| !lapses(p))
            .expect("a seed infected all day 0");
        let lapsed = (0..16)
            .find(|&p| lapses(p))
            .expect("a seed that recovers on day 0");
        let (a, b) = (20, 21);
        let tree = |(pms, _): &Managers, p: u32| {
            let slot = &pms[0].persons[dist.local_of_person()[p as usize] as usize];
            (slot.infected_on, slot.infected_by)
        };
        let infect = |person, time_min, infector| InfectMsg {
            person,
            time_min,
            infector,
        };
        let day0 = [
            infect(kept, 10, 3),
            infect(lapsed, 300, 9),
            infect(lapsed, 200, 42),
            infect(a, 300, 9),
            infect(a, 200, 42),
            infect(b, 200, 42),
            infect(b, 100, u32::MAX),
        ];
        let reversed: Vec<InfectMsg> = day0.iter().rev().copied().collect();
        let mut run = infect_day(&shared, managers(&shared, seeded), 0, &day0);
        let other = infect_day(&shared, managers(&shared, seeded), 0, &reversed);
        for (p, want) in [(kept, None), (lapsed, Some(42)), (a, Some(42)), (b, None)] {
            assert_eq!(tree(&run, p), (Some(0), want), "person {p}");
            assert_eq!(tree(&other, p), tree(&run, p), "person {p}, reversed");
        }

        // Once `a` is susceptible again, a day's infects reinfect it.
        let again = [infect(a, 500, 7), infect(a, 400, 8), infect(a, 600, 1)];
        for day in 1..40 {
            run = infect_day(&shared, run, day, &again);
            if tree(&run, a).0 != Some(0) {
                assert_eq!(tree(&run, a), (Some(day), Some(8)), "day {day}");
                return;
            }
        }
        panic!("person {a} was never reinfected");
    }
}
