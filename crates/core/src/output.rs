//! Simulation outputs: per-day statistics and epidemic curves.

/// One day's global statistics (§II-B step 6, "global system state").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DayStats {
    /// Simulation day (0-based).
    pub day: u32,
    /// Infections applied at the end of this day.
    pub new_infections: u64,
    /// Persons in a non-absorbing health state at the start of this day.
    pub infected_now: u64,
    /// Still-susceptible persons at the start of this day.
    pub susceptible: u64,
    /// Symptomatic persons today.
    pub symptomatic: u64,
    /// Cumulative infections through this day (seeds included).
    pub cumulative: u64,
    /// Visit messages sent today.
    pub visits: u64,
    /// Location DES events processed today.
    pub events: u64,
    /// Susceptible×infectious interactions today.
    pub interactions: u64,
    /// Infect messages sent today.
    pub infects_sent: u64,
    /// Infect messages by the kind of location where the transmission was
    /// computed (index = `synthpop::LocationKind` discriminant; venue
    /// attribution before per-person dedup, so the sum equals
    /// `infects_sent`).
    pub infections_by_kind: [u64; 5],
}

/// FNV-1a over every field of the epidemic curve, in declaration order;
/// bit-identical output across kernel versions, runtime engines, and fault
/// schedules is the determinism contract of record (DESIGN.md §7). Its
/// pinned values live in `tests/conformance.rs`.
pub fn curve_hash(days: &[DayStats]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for d in days {
        mix(d.day as u64);
        mix(d.new_infections);
        mix(d.infected_now);
        mix(d.susceptible);
        mix(d.symptomatic);
        mix(d.cumulative);
        mix(d.visits);
        mix(d.events);
        mix(d.interactions);
        mix(d.infects_sent);
        for &k in &d.infections_by_kind {
            mix(k);
        }
    }
    h
}

/// A full run's day-by-day curve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpiCurve {
    /// Population size.
    pub population: u64,
    /// Initial seeded infections.
    pub seeds: u64,
    /// One entry per simulated day.
    pub days: Vec<DayStats>,
}

impl EpiCurve {
    /// Total infections over the run (including seeds).
    pub fn total_infections(&self) -> u64 {
        self.seeds + self.days.iter().map(|d| d.new_infections).sum::<u64>()
    }

    /// Attack rate: fraction of the population ever infected.
    pub fn attack_rate(&self) -> f64 {
        if self.population == 0 {
            return 0.0;
        }
        self.total_infections() as f64 / self.population as f64
    }

    /// Day with the most new infections, if any day had one.
    pub fn peak_day(&self) -> Option<u32> {
        self.days
            .iter()
            .max_by_key(|d| (d.new_infections, std::cmp::Reverse(d.day)))
            .filter(|d| d.new_infections > 0)
            .map(|d| d.day)
    }

    /// New-infection series (for quick comparisons in tests).
    pub fn new_infection_series(&self) -> Vec<u64> {
        self.days.iter().map(|d| d.new_infections).collect()
    }

    /// The curve's FNV-1a determinism hash (see [`curve_hash`]).
    pub fn hash(&self) -> u64 {
        curve_hash(&self.days)
    }

    /// Render as a TSV table, one row per day.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "day\tnew_infections\tinfected_now\tsusceptible\tsymptomatic\tcumulative\tvisits\tevents\tinteractions\n",
        );
        for d in &self.days {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                d.day,
                d.new_infections,
                d.infected_now,
                d.susceptible,
                d.symptomatic,
                d.cumulative,
                d.visits,
                d.events,
                d.interactions
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> EpiCurve {
        EpiCurve {
            population: 1000,
            seeds: 5,
            days: vec![
                DayStats {
                    day: 0,
                    new_infections: 10,
                    cumulative: 15,
                    ..Default::default()
                },
                DayStats {
                    day: 1,
                    new_infections: 30,
                    cumulative: 45,
                    ..Default::default()
                },
                DayStats {
                    day: 2,
                    new_infections: 30,
                    cumulative: 75,
                    ..Default::default()
                },
                DayStats {
                    day: 3,
                    new_infections: 5,
                    cumulative: 80,
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn totals_and_attack_rate() {
        let c = curve();
        assert_eq!(c.total_infections(), 80);
        assert!((c.attack_rate() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn peak_day_earliest_tie() {
        assert_eq!(curve().peak_day(), Some(1));
        let empty = EpiCurve::default();
        assert_eq!(empty.peak_day(), None);
    }

    #[test]
    fn tsv_has_header_and_rows() {
        let t = curve().to_tsv();
        assert!(t.starts_with("day\t"));
        assert_eq!(t.lines().count(), 5);
    }

    #[test]
    fn curve_hash_is_stable_and_sensitive() {
        let c = curve();
        assert_eq!(c.hash(), curve_hash(&c.days));
        assert_eq!(curve_hash(&[]), 0xcbf29ce484222325, "FNV offset basis");
        let mut later = c.clone();
        later.days[2].interactions += 1;
        assert_ne!(c.hash(), later.hash(), "every field is hashed");
        let mut reordered = c.clone();
        reordered.days.swap(0, 1);
        assert_ne!(c.hash(), reordered.hash(), "day order is hashed");
    }
}
