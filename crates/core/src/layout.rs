//! [`SweepLayout`]: every visit of a world in the canonical `(location,
//! sublocation, start, person)` order, grouped by sublocation, and where
//! each person's visits go. Only a sublocation with an infectious visitor
//! can produce an interaction, so the day pulls: the person pass marks the
//! groups the infectious attend, and the location pass gathers only those
//! groups' present visits, already in the kernel's order. Each
//! LocationManager sweeps its partition's range and PersonManagers address
//! updates by its routes (`crate::managers`); the oracle sweeps a
//! one-partition layout. A [`DataDistribution`] builds its layout once and
//! every clone shares it.

use crate::distribution::DataDistribution;
use crate::messages::VisitMsg;
use crate::person::at_home;
use ptts::model::StateId;
use synthpop::{LocationKind, Population, Visit};

/// One visit of a [`SweepLayout`] group: what the gather needs to rebuild
/// its [`VisitMsg`], and the static half of the attendance rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// One visit as its visitor's LocationManager walks it, in one word: its
/// group, its location's kind from bit [`KIND_SHIFT`], and [`AT_HOME`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OwnVisit(u32);

const KIND_SHIFT: u32 = 28;

impl OwnVisit {
    #[inline]
    pub(crate) fn group(self) -> usize {
        (self.0 & ((1 << KIND_SHIFT) - 1)) as usize
    }

    #[inline]
    pub(crate) fn kind(self) -> LocationKind {
        LocationKind::ALL[(self.0 >> KIND_SHIFT & 7) as usize]
    }

    #[inline]
    pub(crate) fn at_home(self) -> bool {
        self.0 & AT_HOME != 0
    }
}

/// The visits of a population in canonical order, grouped by
/// `(location, sublocation)`, and the routes to them.
///
/// Groups are ordered by partition, then location, so partition `p`'s
/// groups are one contiguous range ([`SweepLayout::groups_of`]): a
/// LocationManager sweeps its own range, and caches its visitors' health
/// by their *slot*, their index in its range of [`SweepLayout::visitors`].
/// Group `g` holds `members[group_start[g]..group_start[g + 1]]`, sorted by
/// `(start, person, visit index)`, which is the order the kernel sorts a
/// sublocation into (the visit index only breaks ties the kernel's key
/// leaves open). Leaving a day's absent visits out keeps the survivors in
/// that order, so a gathered group is what the kernel would have sorted.
///
/// A layout may cover only some partitions (a net rank lays out the
/// LocationManagers it hosts; the others have empty ranges), but each
/// person's `(partition, slot)` pairs (`SweepLayout::routes_of`), which
/// address its updates, cover every partition. A visitor's own visits
/// (`SweepLayout::own_visits`) are all its LocationManager walks of it.
#[derive(Debug, Clone, Default)]
pub struct SweepLayout {
    members: Vec<Member>,
    group_start: Vec<u32>,
    /// `(location, sublocation)` of every group.
    place: Vec<(u32, u16)>,
    /// Partition `p`'s groups are `part_groups[p]..part_groups[p + 1]`.
    part_groups: Vec<u32>,
    /// Each partition's distinct visitors, ascending; partition `p`'s are
    /// `visitors[part_visitors[p]..part_visitors[p + 1]]`.
    visitors: Vec<u32>,
    part_visitors: Vec<u32>,
    /// Person `p`'s `(partition, slot)` pairs, in the order of its first
    /// visit to each partition: `routes[route_start[p]..route_start[p + 1]]`.
    routes: Vec<(u32, u32)>,
    route_start: Vec<u32>,
    /// Each visitor's own visits, in schedule order: visitor `v`'s are
    /// `own[own_start[v]..own_start[v + 1]]`.
    own: Vec<OwnVisit>,
    own_start: Vec<u32>,
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
        let orig = Some(&dist.orig_of_location[..]);
        Self::build_parts(&dist.pop, orig, part_of, hosted)
    }

    /// `O(V + L log L + S)` for `V` visits, `L` locations and `S` rooms,
    /// plus a stable sort by start per group: a pass over the person-ordered
    /// visits lists the routes and numbers every partition's visitors; a
    /// second counts the hosted visits per room and per visitor; the rooms
    /// become groups in partition order; a third pass deals the visits out
    /// in person order, which the sort by start makes canonical.
    fn build_parts(
        pop: &Population,
        orig_of_location: Option<&[u32]>,
        part_of: impl Fn(usize) -> usize,
        hosted: &[bool],
    ) -> SweepLayout {
        let k = hosted.len();
        let mut layout = SweepLayout {
            route_start: vec![0],
            group_start: vec![0],
            part_groups: vec![0],
            ..SweepLayout::default()
        };

        // The routes and each visit's slot: a person becomes a partition's
        // next visitor at its first visit there. A hosted location has one
        // cell per room its visits use; the prefix sum places them.
        let (mut last, mut n_slots) = (vec![u32::MAX; k], vec![0u32; k]);
        let mut visitors = vec![Vec::new(); k];
        let mut slot_of = vec![0u32; pop.visits.len()];
        let mut first_cell = vec![0u32; pop.n_locations() as usize + 1];
        for p in 0..pop.n_people() {
            let schedule = pop.person_offsets[p as usize]..pop.person_offsets[p as usize + 1];
            for i in schedule.map(|i| i as usize) {
                let v = &pop.visits[i];
                let l = v.location.0 as usize;
                let part = part_of(l);
                if last[part] != p {
                    last[part] = p;
                    layout.routes.push((part as u32, n_slots[part]));
                    n_slots[part] += 1;
                    if hosted[part] {
                        visitors[part].push(p);
                    }
                }
                slot_of[i] = n_slots[part] - 1;
                if hosted[part] {
                    let rooms = &mut first_cell[l + 1];
                    *rooms = (*rooms).max(u32::from(v.sublocation.0) + 1);
                }
            }
            layout.route_start.push(layout.routes.len() as u32);
        }
        let mut part_visitors = vec![0];
        part_visitors.extend(visitors.iter().map(|seen| seen.len() as u32));
        prefix_sum(&mut part_visitors);
        prefix_sum(&mut first_cell);
        layout.visitors = visitors.concat();

        let hosted_visits = || {
            let visits = pop.visits.iter().enumerate();
            visits.filter(|(_, v)| hosted[part_of(v.location.0 as usize)])
        };
        let cell =
            |v: &Visit| (first_cell[v.location.0 as usize] + u32::from(v.sublocation.0)) as usize;
        let visitor =
            |i: usize, v: &Visit| part_visitors[part_of(v.location.0 as usize)] + slot_of[i];
        let mut group_of_cell = vec![0u32; *first_cell.last().expect("n + 1 entries") as usize];
        let mut own_start = vec![0u32; layout.visitors.len() + 1];
        for (i, v) in hosted_visits() {
            group_of_cell[cell(v)] += 1;
            own_start[visitor(i, v) as usize + 1] += 1;
        }
        prefix_sum(&mut own_start);

        // Each visited room is a group, in (partition, location, room)
        // order: a stable sort of the location ids by partition.
        let mut by_part: Vec<u32> = (0..pop.n_locations()).collect();
        by_part.sort_by_key(|&l| part_of(l as usize));
        let mut by_part = by_part.into_iter().peekable();
        for part in 0..k {
            while let Some(l) = by_part.next_if(|&l| part_of(l as usize) == part) {
                let cells = first_cell[l as usize] as usize..first_cell[l as usize + 1] as usize;
                for (room, c) in cells.enumerate() {
                    let visits = std::mem::replace(&mut group_of_cell[c], u32::MAX);
                    if visits > 0 {
                        group_of_cell[c] = layout.place.len() as u32;
                        layout.place.push((l, room as u16));
                        layout.group_start.push(visits);
                    }
                }
            }
            layout.part_groups.push(layout.place.len() as u32);
        }
        prefix_sum(&mut layout.group_start);
        assert!(layout.place.len() < 1 << KIND_SHIFT, "too many groups");

        // Deal the visits out to their groups and their visitors.
        let n_visits = own_start[layout.visitors.len()] as usize;
        layout.members = vec![Member::default(); n_visits];
        layout.own = vec![OwnVisit(0); n_visits];
        let (mut next, mut own_next) = (layout.group_start.clone(), own_start.clone());
        for (i, v) in hosted_visits() {
            let (g, visitor) = (group_of_cell[cell(v)], visitor(i, v));
            let own_home = pop.people[v.person.0 as usize].home.0;
            let home = u32::from(at_home(own_home, v.location.0, orig_of_location)) * AT_HOME;
            layout.members[next[g as usize] as usize] = Member {
                person: v.person.0,
                visitor: visitor | home,
                start_min: v.start_min,
                end_min: v.end_min(),
            };
            next[g as usize] += 1;
            let kind = (pop.locations[v.location.0 as usize].kind as u32) << KIND_SHIFT;
            layout.own[own_next[visitor as usize] as usize] = OwnVisit(g | kind | home);
            own_next[visitor as usize] += 1;
        }
        for g in 0..layout.place.len() {
            let members = layout.group_start[g] as usize..layout.group_start[g + 1] as usize;
            layout.members[members].sort_by_key(|m| m.start_min);
        }
        layout.part_visitors = part_visitors;
        layout.own_start = own_start;
        layout
    }

    /// Number of sublocation groups.
    pub fn n_groups(&self) -> usize {
        self.place.len()
    }

    /// Bytes this layout holds on the heap (length × element size).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.members.as_slice())
            + size_of_val(self.group_start.as_slice())
            + size_of_val(self.place.as_slice())
            + size_of_val(self.part_groups.as_slice())
            + size_of_val(self.visitors.as_slice())
            + size_of_val(self.part_visitors.as_slice())
            + size_of_val(self.routes.as_slice())
            + size_of_val(self.route_start.as_slice())
            + size_of_val(self.own.as_slice())
            + size_of_val(self.own_start.as_slice())
    }

    /// Partition `part`'s groups.
    pub(crate) fn groups_of(&self, part: u32) -> std::ops::Range<usize> {
        self.part_groups[part as usize] as usize..self.part_groups[part as usize + 1] as usize
    }

    /// Partition `part`'s visitors: the range of [`SweepLayout::visitors`]
    /// its members index. A visitor's slot is its index in this range.
    pub(crate) fn visitors_of(&self, part: u32) -> std::ops::Range<usize> {
        self.part_visitors[part as usize] as usize..self.part_visitors[part as usize + 1] as usize
    }

    /// The person ids of every partition's visitors; [`Member::visitor`]
    /// indexes this.
    #[inline]
    pub(crate) fn visitors(&self) -> &[u32] {
        &self.visitors
    }

    /// Person `person`'s `(partition, slot)` pairs, one per partition it
    /// visits, laid out or not, in the order of its first visit to each.
    #[inline]
    pub(crate) fn routes_of(&self, person: usize) -> &[(u32, u32)] {
        &self.routes[self.route_start[person] as usize..self.route_start[person + 1] as usize]
    }

    /// Visitor `v`'s visits to its partition (`v` indexes
    /// [`SweepLayout::visitors`]), in schedule order.
    #[inline]
    pub(crate) fn own_visits(&self, v: usize) -> &[OwnVisit] {
        &self.own[self.own_start[v] as usize..self.own_start[v + 1] as usize]
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

fn prefix_sum(counts: &mut [u32]) {
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Strategy;
    use crate::kernel::{canonical_key, visit_key};
    use crate::person::{visit_to_msg, PersonSlot};
    use crate::splitloc::{split_heavy_locations, SplitConfig};
    use proptest::prelude::*;
    use ptts::flu_model;
    use std::collections::{BTreeMap, BTreeSet};
    use synthpop::PopulationConfig;

    /// The comparison-sort build the counting sorts replaced, kept as the
    /// reference for the layout's sweep half (members, groups, places and
    /// visitors; no routes): a counting sort of the hosted visits by
    /// location in partition order, then each location's visits sorted
    /// by the kernel's key, with a visitor's index in its partition
    /// standing in for the person, and cut into sublocation groups.
    fn reference_build(
        pop: &Population,
        orig_of_location: Option<&[u32]>,
        part_of: impl Fn(usize) -> usize,
        hosted: &[bool],
    ) -> SweepLayout {
        let n_locations = pop.n_locations() as usize;
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
        // (key, visit, at home) per hosted visit, by location.
        let mut keyed = vec![(0u64, 0u32, false); part_start[hosted.len()] as usize];
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
            let key = canonical_key(v.sublocation.0, v.start_min, seen.len() as u32 - 1);
            keyed[next[l] as usize] = (key, i as u32, at_home(home, l as u32, orig_of_location));
            next[l] += 1;
        }
        let mut layout = SweepLayout {
            part_groups: vec![0],
            part_visitors: vec![0],
            visitors: visitors.concat(),
            ..SweepLayout::default()
        };
        for (part, seen) in visitors.iter().enumerate() {
            let first_visitor = *layout.part_visitors.last().expect("starts at 0");
            let mut lo = part_start[part] as usize;
            while lo < part_start[part + 1] as usize {
                let location = pop.visits[keyed[lo].1 as usize].location.0;
                let hi = lo + (next[location as usize] - visit_start[location as usize]) as usize;
                keyed[lo..hi].sort_unstable_by_key(|&(key, visit, _)| (key, visit));
                for group in keyed[lo..hi].chunk_by(|a, b| a.0 >> 48 == b.0 >> 48) {
                    layout.place.push((location, (group[0].0 >> 48) as u16));
                    layout.group_start.push(layout.members.len() as u32);
                    for &(key, visit, home) in group {
                        let visitor = first_visitor + key as u32;
                        layout.members.push(Member {
                            person: pop.visits[visit as usize].person.0,
                            visitor: visitor | if home { AT_HOME } else { 0 },
                            start_min: (key >> 32) as u16,
                            end_min: pop.visits[visit as usize].end_min(),
                        });
                    }
                }
                lo = hi;
            }
            layout.part_groups.push(layout.place.len() as u32);
            layout.part_visitors.push(first_visitor + seen.len() as u32);
        }
        layout.group_start.push(layout.members.len() as u32);
        layout
    }

    /// The sweep half of a layout, for comparison with the reference.
    #[allow(clippy::type_complexity)]
    fn sweep_half(l: &SweepLayout) -> (&[Member], &[u32], &[(u32, u16)], &[u32], &[u32], &[u32]) {
        (
            &l.members,
            &l.group_start,
            &l.place,
            &l.part_groups,
            &l.visitors,
            &l.part_visitors,
        )
    }

    /// Check `layout`'s routes and own visits against a walk of every
    /// schedule: each person's `(partition, slot)` pairs are its
    /// schedule's partitions in first-visit order, each slot its position
    /// among the partition's visitors, and each hosted slot's own visits
    /// the schedule filtered to the partition. Returns how many persons
    /// route to more than one partition.
    fn check_tables(dist: &DataDistribution, layout: &SweepLayout, hosted: &[bool]) -> usize {
        let (pop, part_of) = (&dist.pop, dist.location_part());
        let mut persons_of = vec![BTreeSet::new(); hosted.len()];
        for v in &pop.visits {
            persons_of[part_of[v.location.0 as usize] as usize].insert(v.person.0);
        }
        let persons_of: Vec<Vec<u32>> = persons_of.into_iter().map(Vec::from_iter).collect();
        let group_of: BTreeMap<(u32, u16), usize> = (0..layout.n_groups())
            .map(|g| (layout.place(g), g))
            .collect();
        let mut spread = 0;
        for p in 0..pop.n_people() {
            let schedule = pop.visits_of(synthpop::PersonId(p));
            let mut want = Vec::new();
            for v in schedule {
                let part = part_of[v.location.0 as usize];
                if want.iter().all(|&(seen, _)| seen != part) {
                    let slot = persons_of[part as usize]
                        .binary_search(&p)
                        .expect("a visitor");
                    want.push((part, slot as u32));
                }
            }
            assert_eq!(layout.routes_of(p as usize), want.as_slice(), "person {p}");
            spread += usize::from(want.len() > 1);
            for &(part, slot) in &want {
                let visitors = layout.visitors_of(part);
                if !hosted[part as usize] {
                    assert!(visitors.is_empty(), "partition {part} is not hosted");
                    continue;
                }
                let v = visitors.start + slot as usize;
                assert_eq!(layout.visitors()[v], p);
                let home = pop.people[p as usize].home.0;
                let walk: Vec<OwnVisit> = schedule
                    .iter()
                    .filter(|v| part_of[v.location.0 as usize] == part)
                    .map(|v| {
                        let g = group_of[&(v.location.0, v.sublocation.0)];
                        let kind = pop.locations[v.location.0 as usize].kind;
                        let orig = Some(&dist.orig_of_location[..]);
                        let home = at_home(home, v.location.0, orig);
                        OwnVisit(g as u32 | (kind as u32) << KIND_SHIFT | u32::from(home) << 31)
                    })
                    .collect();
                assert_eq!(
                    layout.own_visits(v),
                    walk.as_slice(),
                    "person {p} at {part}"
                );
            }
        }
        for (part, persons) in persons_of.iter().enumerate() {
            if hosted[part] {
                assert_eq!(&layout.visitors()[layout.visitors_of(part as u32)], persons);
            }
        }
        spread
    }

    fn small_pop() -> Population {
        Population::generate(&PopulationConfig::small("T", 1200, 23))
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
    /// ascending; routes and own visits match the schedules, whole or
    /// partly hosted; and a visit is "at home" on any piece of a split
    /// home.
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
        assert!(check_tables(&dist, &full, &[true; 3]) > 0);
        assert!(check_tables(&dist, &some, &[false, true, false]) > 0);
        let split_home_pieces = dist.pop.visits.iter().filter(|v| {
            let own = dist.pop.people[v.person.0 as usize].home.0;
            v.location.0 != own && at_home(own, v.location.0, Some(&dist.orig_of_location))
        });
        assert!(
            split_home_pieces.count() > 0,
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

        /// On split and whole worlds, laid out whole or in part, the
        /// counting-sort build equals the comparison-sort reference, and
        /// its routes and own visits match the schedules.
        #[test]
        fn counting_sort_build_equals_the_reference_and_the_schedules(
            people in 150u32..700,
            pop_seed in 0u64..1_000,
            split in any::<bool>(),
            k in 1u32..6,
            mask in any::<u8>(),
        ) {
            let pop = Population::generate(&PopulationConfig::small("TAB", people, pop_seed));
            let (strategy, split_cfg) = if split {
                let cfg = SplitConfig { max_partitions: 64, threshold_override: Some(12) };
                (Strategy::RoundRobinSplit, cfg)
            } else {
                (Strategy::RoundRobin, SplitConfig::default())
            };
            let model = load_model::PiecewiseModel::paper_constants();
            let dist = DataDistribution::build_with(&pop, strategy, k, pop_seed, &split_cfg, &model);
            let hosted: Vec<bool> = (0..k).map(|p| mask >> p & 1 == 1).collect();
            let layout = SweepLayout::of_world(&dist, &hosted);
            let part_of = |l: usize| dist.location_part()[l] as usize;
            let orig = Some(&dist.orig_of_location[..]);
            let reference = reference_build(&dist.pop, orig, part_of, &hosted);
            prop_assert_eq!(sweep_half(&layout), sweep_half(&reference));
            check_tables(&dist, &layout, &hosted);
            let flat = SweepLayout::build(&pop);
            let flat_reference = reference_build(&pop, None, |_| 0, &[true]);
            prop_assert_eq!(sweep_half(&flat), sweep_half(&flat_reference));
        }
    }
}
