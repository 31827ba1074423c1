//! The synthetic population generator.
//!
//! Produces a person–location bipartite graph with the statistical structure
//! the paper's analysis depends on (§II-A, §III): near-constant person
//! out-degree (avg ≈ 5.5, σ ≈ 2.6), power-law location in-degree, location
//! kinds, and sublocations ("People only interact when they are present in
//! the same sublocation", §III-C).
//!
//! Generation is fully deterministic for a given seed: every draw is keyed
//! by `(seed, entity, purpose)` through [`ptts::CounterRng`].

use crate::alias::AliasTable;
use crate::powerlaw::{BoundedPareto, ClippedNormal};
use crate::state::ScaledCounts;
use crate::{LocationId, PersonId, SublocationId, MINUTES_PER_DAY};
use ptts::crng::{CounterRng, Purpose};

/// Location kinds. Discriminants match the `kind` byte used by
/// `ptts::intervention::Action::CloseKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LocationKind {
    /// Residences; small and numerous.
    Home = 0,
    /// Workplaces; heavy-tailed sizes.
    Work = 1,
    /// Schools; the heaviest locations relative to their count.
    School = 2,
    /// Retail; moderate heavy tail.
    Shop = 3,
    /// Everything else (transit hubs, venues, ...).
    Other = 4,
}

impl LocationKind {
    /// All kinds, in discriminant order.
    pub const ALL: [LocationKind; 5] = [
        LocationKind::Home,
        LocationKind::Work,
        LocationKind::School,
        LocationKind::Shop,
        LocationKind::Other,
    ];

    /// Fraction of all locations of this kind.
    pub fn fraction(self) -> f64 {
        match self {
            LocationKind::Home => 0.70,
            LocationKind::Work => 0.15,
            LocationKind::School => 0.02,
            LocationKind::Shop => 0.06,
            LocationKind::Other => 0.07,
        }
    }

    /// Nominal sublocation (room) capacity: how many daily visitors one
    /// sublocation comfortably holds. Used to derive sublocation counts
    /// from realized degrees.
    pub fn room_capacity(self) -> u32 {
        match self {
            LocationKind::Home => 8,
            LocationKind::Work => 15,
            LocationKind::School => 25,
            LocationKind::Shop => 40,
            LocationKind::Other => 30,
        }
    }
}

/// One location node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Location {
    /// What kind of place this is.
    pub kind: LocationKind,
    /// Number of sublocations (rooms); ≥ 1.
    pub n_sublocations: u16,
    /// Sampling weight used during generation (∝ expected degree).
    pub weight: f32,
}

/// One person node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Person {
    /// Home location.
    pub home: LocationId,
    /// Daily anchor activity (work or school), if any.
    pub anchor: Option<LocationId>,
}

/// One visit: an edge of the bipartite graph, with time attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    /// Who visits.
    pub person: PersonId,
    /// Where.
    pub location: LocationId,
    /// Which room within the location.
    pub sublocation: SublocationId,
    /// Start minute within the day `[0, 1440)`.
    pub start_min: u16,
    /// Duration in minutes (start + duration ≤ 1440).
    pub duration_min: u16,
}

impl Visit {
    /// End minute (exclusive).
    #[inline]
    pub fn end_min(&self) -> u16 {
        self.start_min + self.duration_min
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Region code label (for reports).
    pub code: String,
    /// Number of persons.
    pub n_people: u32,
    /// Number of locations.
    pub n_locations: u32,
    /// Mean visits per person (Table I US: ≈ 5.5).
    pub mean_visits: f64,
    /// Std dev of visits per person (paper: σ = 2.6).
    pub sd_visits: f64,
    /// Power-law degree exponent β for non-home location weights
    /// (weight density ∝ w^(−β); §III-B assumes β > 1).
    pub beta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl PopulationConfig {
    /// Config from a scaled Table I row with default shape parameters.
    pub fn from_counts(c: ScaledCounts, seed: u64) -> Self {
        PopulationConfig {
            code: c.code.to_string(),
            n_people: c.people.min(u32::MAX as u64) as u32,
            n_locations: c.locations.min(u32::MAX as u64) as u32,
            mean_visits: c.visits as f64 / c.people.max(1) as f64,
            sd_visits: 2.6,
            beta: 2.0,
            seed,
        }
    }

    /// Small config for tests and examples.
    pub fn small(code: &str, n_people: u32, seed: u64) -> Self {
        PopulationConfig {
            code: code.to_string(),
            n_people,
            n_locations: (n_people / 4).max(8),
            mean_visits: 5.5,
            sd_visits: 2.6,
            beta: 2.0,
            seed,
        }
    }
}

/// A complete synthetic population: the bipartite person–location graph with
/// visit times, kinds, and sublocations.
#[derive(Debug, Clone)]
pub struct Population {
    /// Region code label.
    pub code: String,
    /// Seed used for generation.
    pub seed: u64,
    /// Person nodes (index = `PersonId.0`).
    pub people: Vec<Person>,
    /// Location nodes (index = `LocationId.0`).
    pub locations: Vec<Location>,
    /// All visits, sorted by person id.
    pub visits: Vec<Visit>,
    /// CSR offsets: visits of person `p` are
    /// `visits[person_offsets[p] .. person_offsets[p+1]]`.
    pub person_offsets: Vec<u32>,
}

impl Population {
    /// Generate a population from a config.
    pub fn generate(cfg: &PopulationConfig) -> Population {
        let shared = GenShared::prepare(cfg);
        let part = shared.generate_people(cfg.n_people);
        shared.finish(cfg, part.people, part.visits, part.offsets)
    }

    /// Number of persons.
    pub fn n_people(&self) -> u32 {
        self.people.len() as u32
    }

    /// Number of locations.
    pub fn n_locations(&self) -> u32 {
        self.locations.len() as u32
    }

    /// Number of visits (bipartite edges).
    pub fn n_visits(&self) -> u64 {
        self.visits.len() as u64
    }

    /// The visits of one person.
    pub fn visits_of(&self, p: PersonId) -> &[Visit] {
        let lo = self.person_offsets[p.0 as usize] as usize;
        let hi = self.person_offsets[p.0 as usize + 1] as usize;
        &self.visits[lo..hi]
    }

    /// Iterate `(PersonId, &[Visit])`.
    pub fn iter_people(&self) -> impl Iterator<Item = (PersonId, &[Visit])> {
        (0..self.n_people()).map(move |p| (PersonId(p), self.visits_of(PersonId(p))))
    }

    /// Mean visits per person.
    pub fn mean_person_degree(&self) -> f64 {
        self.visits.len() as f64 / self.people.len() as f64
    }
}

/// The person side of a population, before sublocations are assigned.
struct GenPart {
    people: Vec<Person>,
    visits: Vec<Visit>,
    /// CSR offsets (starting at 0).
    offsets: Vec<u32>,
}

/// Location tables and samplers, prepared before the person loop.
struct GenShared {
    seed: u64,
    mean_visits: f64,
    sd_visits: f64,
    locations: Vec<Location>,
    home_range: (u32, u32),
    work_table: Option<(u32, AliasTable)>,
    school_table: Option<(u32, AliasTable)>,
    extras_table: Option<(u32, AliasTable)>,
}

impl GenShared {
    /// Build the location side: kinds in contiguous ranges, heavy-tailed
    /// weights, alias tables.
    fn prepare(cfg: &PopulationConfig) -> GenShared {
        assert!(cfg.n_people > 0 && cfg.n_locations > 0);
        let seed = cfg.seed;

        let mut kind_counts = [0u32; 5];
        let mut assigned = 0u32;
        for (i, k) in LocationKind::ALL.iter().enumerate() {
            let c = if i + 1 == LocationKind::ALL.len() {
                cfg.n_locations - assigned
            } else {
                ((cfg.n_locations as f64 * k.fraction()).round() as u32)
                    .min(cfg.n_locations - assigned)
            };
            kind_counts[i] = c.max(if i == 0 { 1 } else { 0 });
            assigned += kind_counts[i];
        }
        // Guarantee at least one school and one work so anchors exist.
        for i in [1usize, 2] {
            if kind_counts[i] == 0 && kind_counts[0] > 2 {
                kind_counts[i] = 1;
                kind_counts[0] -= 1;
            }
        }

        let mut kind_ranges = [(0u32, 0u32); 5];
        {
            let mut next = 0u32;
            for (i, &c) in kind_counts.iter().enumerate() {
                kind_ranges[i] = (next, next + c);
                next += c;
            }
        }
        // Weight distributions: homes are flat; the rest are bounded Pareto
        // with shape β, bounded at the natural order-statistic scale
        // xmin·n^(1/β) so that the heaviest location grows as D^(1/β) with
        // the data size — exactly the §III-B scaling (log dmax = log(cD)/β)
        // that makes Sub/D shrink as states grow (paper Figure 5a).
        let alpha = cfg.beta.max(1.1);
        let pareto_for = |kind: LocationKind, n: u32| -> Option<BoundedPareto> {
            if n == 0 {
                return None;
            }
            let xmin = match kind {
                LocationKind::Home => return None,
                LocationKind::Work => 2.0,
                LocationKind::School => 25.0,
                LocationKind::Shop => 2.0,
                LocationKind::Other => 1.0,
            };
            let tail = (n as f64).powf(1.0 / alpha) * 4.0;
            let xmax = (xmin * tail).min(0.1 * cfg.n_people as f64).max(xmin * 4.0);
            Some(BoundedPareto::new(alpha, xmin, xmax))
        };
        let mut wrng = CounterRng::from_key(&[seed, Purpose::Synthesis as u64, 1]);
        let mut locations = Vec::with_capacity(cfg.n_locations as usize);
        for (i, &kind) in LocationKind::ALL.iter().enumerate() {
            let n = kind_counts[i];
            let dist = pareto_for(kind, n);
            for _ in 0..n {
                let weight = match &dist {
                    None => 1.0,
                    Some(d) => d.sample(&mut wrng) as f32,
                };
                locations.push(Location {
                    kind,
                    n_sublocations: 1, // fixed up in finish()
                    weight,
                });
            }
        }

        let table_for = |range: (u32, u32)| -> Option<(u32, AliasTable)> {
            if range.1 <= range.0 {
                return None;
            }
            let w: Vec<f64> = locations[range.0 as usize..range.1 as usize]
                .iter()
                .map(|l| l.weight as f64)
                .collect();
            Some((range.0, AliasTable::new(&w)))
        };
        let extras_range = (
            kind_ranges[LocationKind::Shop as usize].0,
            kind_ranges[LocationKind::Other as usize].1,
        );
        GenShared {
            seed,
            mean_visits: cfg.mean_visits,
            sd_visits: cfg.sd_visits,
            work_table: table_for(kind_ranges[LocationKind::Work as usize]),
            school_table: table_for(kind_ranges[LocationKind::School as usize]),
            extras_table: table_for(extras_range),
            home_range: kind_ranges[LocationKind::Home as usize],
            locations,
        }
    }

    /// Generate persons `0..n_people` and their visits (every draw is
    /// keyed by the person id).
    fn generate_people(&self, n_people: u32) -> GenPart {
        let seed = self.seed;
        let visits_dist = ClippedNormal {
            mean: self.mean_visits,
            sd: self.sd_visits,
            lo: 2.0,
            hi: 15.0,
        };
        let n = n_people as usize;
        let n_homes = self.home_range.1 - self.home_range.0;
        let mut people = Vec::with_capacity(n);
        let mut visits: Vec<Visit> = Vec::with_capacity((n as f64 * self.mean_visits) as usize);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);

        for p in 0..n_people {
            let mut rng = CounterRng::from_key(&[seed, Purpose::Synthesis as u64, 2, p as u64]);
            let home = LocationId(self.home_range.0 + rng.uniform_u64(n_homes as u64) as u32);
            // 22% children (school anchor), else 75% of adults work.
            let anchor = if rng.bernoulli(0.22) {
                self.school_table
                    .as_ref()
                    .map(|(base, t)| LocationId(base + t.sample(&mut rng)))
            } else if rng.bernoulli(0.75) {
                self.work_table
                    .as_ref()
                    .map(|(base, t)| LocationId(base + t.sample(&mut rng)))
            } else {
                None
            };
            people.push(Person { home, anchor });

            let k = visits_dist.sample(&mut rng).round().max(2.0) as u32;
            let pid = PersonId(p);
            // Morning at home: 00:00 – 08:00 (+jitter).
            let leave = 480 + rng.uniform_u64(60) as u16;
            visits.push(Visit {
                person: pid,
                location: home,
                sublocation: SublocationId(0),
                start_min: 0,
                duration_min: leave,
            });
            let mut cursor = leave;
            let mut used = 1u32;
            // Anchor activity: ~6–8 hours.
            if let Some(a) = anchor {
                let dur = (360 + rng.uniform_u64(120) as u16).min(MINUTES_PER_DAY - cursor - 120);
                visits.push(Visit {
                    person: pid,
                    location: a,
                    sublocation: SublocationId(0),
                    start_min: cursor,
                    duration_min: dur,
                });
                cursor += dur;
                used += 1;
            }
            // Extras: shops/other, 20–80 minutes each, until the count or
            // the evening is exhausted.
            let evening_start = MINUTES_PER_DAY - 120; // keep ≥ 2h at home
            while used + 1 < k && cursor < evening_start {
                let Some((base, t)) = self.extras_table.as_ref() else {
                    break;
                };
                let loc = LocationId(base + t.sample(&mut rng));
                let dur = (20 + rng.uniform_u64(61) as u16).min(evening_start - cursor);
                visits.push(Visit {
                    person: pid,
                    location: loc,
                    sublocation: SublocationId(0),
                    start_min: cursor,
                    duration_min: dur,
                });
                cursor += dur;
                used += 1;
            }
            // Evening at home.
            visits.push(Visit {
                person: pid,
                location: home,
                sublocation: SublocationId(0),
                start_min: cursor,
                duration_min: MINUTES_PER_DAY - cursor,
            });
            offsets.push(visits.len() as u32);
        }
        GenPart {
            people,
            visits,
            offsets,
        }
    }

    /// Final sequential pass: derive sublocation counts from realized
    /// degrees and assign each visit a room.
    fn finish(
        self,
        cfg: &PopulationConfig,
        people: Vec<Person>,
        mut visits: Vec<Visit>,
        person_offsets: Vec<u32>,
    ) -> Population {
        let mut locations = self.locations;
        let mut degree = vec![0u32; locations.len()];
        for v in &visits {
            degree[v.location.0 as usize] += 1;
        }
        for (l, loc) in locations.iter_mut().enumerate() {
            let cap = loc.kind.room_capacity();
            let rooms = degree[l].div_ceil(cap).max(1);
            loc.n_sublocations = rooms.min(u16::MAX as u32) as u16;
        }
        for (i, v) in visits.iter_mut().enumerate() {
            let rooms = locations[v.location.0 as usize].n_sublocations as u64;
            if rooms > 1 {
                let mut rng =
                    CounterRng::from_key(&[self.seed, Purpose::Synthesis as u64, 3, i as u64]);
                v.sublocation = SublocationId(rng.uniform_u64(rooms) as u16);
            }
        }
        Population {
            code: cfg.code.clone(),
            seed: self.seed,
            people,
            locations,
            visits,
            person_offsets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::powerlaw::estimate_exponent;

    fn pop(n: u32, seed: u64) -> Population {
        Population::generate(&PopulationConfig::small("T", n, seed))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = pop(2000, 7);
        let b = pop(2000, 7);
        assert_eq!(a.visits, b.visits);
        assert_eq!(a.people, b.people);
        let c = pop(2000, 8);
        assert_ne!(a.visits, c.visits);
    }

    #[test]
    fn person_degree_near_target() {
        let p = pop(5000, 1);
        let mean = p.mean_person_degree();
        assert!((mean - 5.5).abs() < 0.8, "mean visits/person = {mean}");
    }

    #[test]
    fn visits_are_nonoverlapping_and_cover_day() {
        let p = pop(1000, 3);
        for (pid, vs) in p.iter_people() {
            assert!(vs.len() >= 2, "person {pid:?} has too few visits");
            assert_eq!(vs[0].start_min, 0);
            let mut cursor = 0u16;
            for v in vs {
                assert_eq!(v.start_min, cursor, "gap/overlap for {pid:?}");
                assert!(v.duration_min > 0);
                cursor = v.end_min();
            }
            assert_eq!(cursor, MINUTES_PER_DAY, "day not covered for {pid:?}");
            // First and last visits are at home.
            let home = p.people[pid.0 as usize].home;
            assert_eq!(vs[0].location, home);
            assert_eq!(vs.last().unwrap().location, home);
        }
    }

    #[test]
    fn location_degree_is_heavy_tailed() {
        let p = pop(20_000, 5);
        let mut degree = vec![0u32; p.locations.len()];
        for v in &p.visits {
            degree[v.location.0 as usize] += 1;
        }
        // Non-home degrees should follow a power law with β ≈ 2 ± slack.
        let non_home: Vec<f64> = p
            .locations
            .iter()
            .zip(&degree)
            .filter(|(l, _)| l.kind != LocationKind::Home)
            .map(|(_, &d)| d as f64)
            .filter(|&d| d >= 1.0)
            .collect();
        let beta = estimate_exponent(non_home.iter().copied(), 4.0).unwrap();
        assert!(
            (1.4..3.2).contains(&beta),
            "estimated location-degree β = {beta}"
        );
        // Heavy tail: max degree far above the mean.
        let mean = non_home.iter().sum::<f64>() / non_home.len() as f64;
        let max = non_home.iter().cloned().fold(0.0, f64::max);
        assert!(max > 8.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn sublocations_bound_room_loads() {
        let p = pop(10_000, 9);
        let mut degree = vec![0u32; p.locations.len()];
        for v in &p.visits {
            degree[v.location.0 as usize] += 1;
            assert!(
                v.sublocation.0 < p.locations[v.location.0 as usize].n_sublocations,
                "sublocation out of range"
            );
        }
        for (l, loc) in p.locations.iter().enumerate() {
            let cap = loc.kind.room_capacity();
            assert_eq!(
                loc.n_sublocations as u32,
                degree[l].div_ceil(cap).max(1),
                "room count mismatch at {l}"
            );
        }
    }

    #[test]
    fn kinds_have_expected_proportions() {
        let p = pop(20_000, 11);
        let count = |k: LocationKind| p.locations.iter().filter(|l| l.kind == k).count() as f64;
        let n = p.locations.len() as f64;
        assert!((count(LocationKind::Home) / n - 0.70).abs() < 0.02);
        assert!((count(LocationKind::Work) / n - 0.15).abs() < 0.02);
        assert!(count(LocationKind::School) >= 1.0);
    }

    #[test]
    fn children_attend_schools_adults_work() {
        let p = pop(5000, 13);
        let mut school_anchors = 0;
        let mut work_anchors = 0;
        for person in &p.people {
            if let Some(a) = person.anchor {
                match p.locations[a.0 as usize].kind {
                    LocationKind::School => school_anchors += 1,
                    LocationKind::Work => work_anchors += 1,
                    k => panic!("anchor of unexpected kind {k:?}"),
                }
            }
        }
        let n = p.people.len() as f64;
        assert!((school_anchors as f64 / n - 0.22).abs() < 0.03);
        assert!((work_anchors as f64 / n - 0.78 * 0.75).abs() < 0.04);
    }

    #[test]
    fn csr_offsets_consistent() {
        let p = pop(500, 17);
        assert_eq!(p.person_offsets.len(), p.people.len() + 1);
        assert_eq!(*p.person_offsets.last().unwrap() as usize, p.visits.len());
        for (pid, vs) in p.iter_people() {
            for v in vs {
                assert_eq!(v.person, pid);
            }
        }
    }

    #[test]
    fn tiny_population_works() {
        let p = Population::generate(&PopulationConfig::small("tiny", 3, 1));
        assert_eq!(p.n_people(), 3);
        assert!(p.n_visits() >= 6);
    }

    #[test]
    fn from_counts_matches_table_ratios() {
        let wy = crate::state::by_code("WY").unwrap().scaled(1e-3);
        let cfg = PopulationConfig::from_counts(wy, 1);
        assert_eq!(cfg.n_people, 500);
        assert!((cfg.mean_visits - 5.5).abs() < 0.2);
        let p = Population::generate(&cfg);
        assert_eq!(p.n_people(), 500);
    }
}
