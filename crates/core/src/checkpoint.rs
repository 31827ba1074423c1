//! Checkpoint/restart for long simulations, and the records a recovery
//! shard shares with it.
//!
//! A checkpoint captures everything a resumed run needs to continue
//! *bit-exactly*: the next day to simulate, the global epidemic counters,
//! the intervention activation state, and every person's health state with
//! transmission provenance. Location state needs no capture — visit buffers
//! are empty at day boundaries and the DES is stateless across days.
//!
//! Binary layout (little-endian):
//!
//! ```text
//! magic "EPCK" | version u32
//! carry header := next_day u32 | seeds u64 | cumulative u64 | yd_new u64
//!                 | yd_infected u64
//!                 | fired: n u32 + u8 × n
//!                 | active windows: n u32 + (source u32, end_day u32) × n
//! persons: n u32 + person × n
//! crc32 u32 over every preceding byte (v2; torn-write detection)
//!
//! person := state u16, days_remaining u32, treatment u16, sus_scale f32,
//!           infected_on u32, infected_by u32
//!           (u32::MAX encodes "none"; pending infections are always empty
//!            at day boundaries and are not stored)
//! ```
//!
//! Two more records are built from the same pieces, and live here so each
//! piece is written once:
//! - the *person shard* ([`encode_person_shard`]), a PersonManager's blob in
//!   a recovery shard: `n u32 + (id u32, person) × n`;
//! - the *meta record* ([`encode_meta`]), the rank-identical part of a
//!   recovery shard written by [`crate::resilient`]: `carry header | days:
//!   n u32 + day × n`, where `day := day u32 + 14 × u64` in [`DayStats`]
//!   field order ([`put_day`]; episerve's day event carries the same
//!   record).
//!
//! Neither carries its own CRC: the enclosing recovery shard's covers
//! both.
//!
//! [`Checkpoint::save`] is torn-write-safe: it writes to a temp file in
//! the target directory, fsyncs, and atomically renames — a crash during
//! save leaves either the old file or the new one, never a hybrid, and a
//! partial temp file can never be mistaken for a checkpoint because the
//! CRC trailer will not validate.

use crate::output::DayStats;
use crate::person::PersonSlot;
use crate::simulator::Carry;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use chare_rt::codec::{self, CodecError};
use ptts::intervention::{InterventionSet, InterventionSnapshot};
use ptts::model::{HealthTracker, StateId, TreatmentId};
use std::io::Write;

const MAGIC: &[u8; 4] = b"EPCK";
const VERSION: u32 = 2;
/// Encoded bytes of one person record.
const PERSON_WIRE: usize = 20;
/// Encoded bytes of one [`DayStats`] record.
const DAY_WIRE: usize = 4 + 14 * 8;

/// A captured simulation state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The next day to simulate.
    pub next_day: u32,
    /// Initial seeded infections (for `EpiCurve` bookkeeping).
    pub seeds: u64,
    /// Cumulative infections through `next_day − 1`.
    pub cumulative: u64,
    /// New infections on day `next_day − 1`.
    pub yesterday_new: u64,
    /// Infected count at the start of day `next_day − 1`.
    pub yesterday_infected: u64,
    /// Intervention activation state.
    pub interventions: InterventionSnapshot,
    /// Every person's state, indexed by person id.
    pub states: Vec<PersonSlot>,
}

/// Capture a checkpoint from epoch state (person states from
/// [`crate::simulator::Simulator::dismantle`], counters from [`Carry`]).
pub fn capture(next_day: u32, seeds: u64, carry: &Carry, states: Vec<PersonSlot>) -> Checkpoint {
    debug_assert!(
        states.iter().all(|s| s.pending.is_none()),
        "pending infections must be applied before checkpointing"
    );
    Checkpoint {
        next_day,
        seeds,
        cumulative: carry.cumulative,
        yesterday_new: carry.yesterday_new,
        yesterday_infected: carry.yesterday_infected,
        interventions: carry.interventions.snapshot(),
        states,
    }
}

impl Checkpoint {
    /// Rebuild the [`Carry`] for resumption, given the intervention
    /// configuration (which is part of `SimConfig`, not the checkpoint).
    pub fn to_carry(&self, interventions: &InterventionSet) -> Carry {
        Carry {
            interventions: InterventionSet::restore(
                interventions.interventions().to_vec(),
                &self.interventions,
            ),
            cumulative: self.cumulative,
            yesterday_new: self.yesterday_new,
            yesterday_infected: self.yesterday_infected,
        }
    }

    /// Serialize.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64 + self.states.len() * PERSON_WIRE);
        codec::put_header(&mut buf, MAGIC, VERSION);
        self.put_carry(&mut buf);
        buf.put_u32_le(self.states.len() as u32);
        for s in &self.states {
            put_person(&mut buf, s);
        }
        codec::seal(buf)
    }

    /// Deserialize, verifying the structure and the CRC trailer. Header
    /// corruption is reported as `BadMagic`/`BadVersion`, short buffers as
    /// `Truncated`, and any surviving body corruption as `BadCrc` (or
    /// `Trailing`).
    pub fn decode(data: &[u8]) -> Result<Checkpoint, CodecError> {
        codec::decode_sealed(data, |buf| {
            codec::get_header(buf, MAGIC, VERSION)?;
            let mut ckpt = Checkpoint::get_carry(buf)?;
            let n = codec::get_count(buf, PERSON_WIRE)?;
            ckpt.states.reserve_exact(n);
            for id in 0..n as u32 {
                ckpt.states.push(get_person(buf, id)?);
            }
            Ok(ckpt)
        })
    }

    /// Write the carry header (everything but the person table).
    fn put_carry(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.next_day);
        buf.put_u64_le(self.seeds);
        buf.put_u64_le(self.cumulative);
        buf.put_u64_le(self.yesterday_new);
        buf.put_u64_le(self.yesterday_infected);
        buf.put_u32_le(self.interventions.fired.len() as u32);
        for &f in &self.interventions.fired {
            buf.put_u8(f as u8);
        }
        buf.put_u32_le(self.interventions.active.len() as u32);
        for &(source, end_day) in &self.interventions.active {
            buf.put_u32_le(source);
            buf.put_u32_le(end_day);
        }
    }

    /// Read a carry header into a checkpoint with an empty person table.
    fn get_carry(buf: &mut &[u8]) -> Result<Checkpoint, CodecError> {
        let next_day = buf.try_get_u32_le()?;
        let seeds = buf.try_get_u64_le()?;
        let cumulative = buf.try_get_u64_le()?;
        let yesterday_new = buf.try_get_u64_le()?;
        let yesterday_infected = buf.try_get_u64_le()?;
        let n_fired = codec::get_count(buf, 1)?;
        let mut fired = Vec::with_capacity(n_fired);
        for _ in 0..n_fired {
            fired.push(buf.try_get_u8()? != 0);
        }
        let n_active = codec::get_count(buf, 8)?;
        let mut active = Vec::with_capacity(n_active);
        for _ in 0..n_active {
            active.push((buf.try_get_u32_le()?, buf.try_get_u32_le()?));
        }
        Ok(Checkpoint {
            next_day,
            seeds,
            cumulative,
            yesterday_new,
            yesterday_infected,
            interventions: InterventionSnapshot { fired, active },
            states: Vec::new(),
        })
    }

    /// Write to a file, torn-write-safe: temp file in the same directory,
    /// fsync, atomic rename, then best-effort directory fsync so the
    /// rename itself is durable.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        let tmp = path.with_extension("epck.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = dir {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Checkpoint> {
        let data = std::fs::read(path)?;
        Self::decode(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Write one person record (no id: EPCK stores persons densely by id).
fn put_person(buf: &mut BytesMut, s: &PersonSlot) {
    buf.put_u16_le(s.health.state.0);
    buf.put_u32_le(s.health.days_remaining);
    buf.put_u16_le(s.health.treatment.0);
    buf.put_f32_le(s.sus_scale);
    buf.put_u32_le(s.infected_on.unwrap_or(u32::MAX));
    buf.put_u32_le(s.infected_by.unwrap_or(u32::MAX));
}

/// Read one person record for person `id`.
fn get_person(buf: &mut &[u8], id: u32) -> Result<PersonSlot, CodecError> {
    let health = HealthTracker {
        state: StateId(buf.try_get_u16_le()?),
        days_remaining: buf.try_get_u32_le()?,
        treatment: TreatmentId(buf.try_get_u16_le()?),
    };
    let sus_scale = buf.try_get_f32_le()?;
    let infected_on = buf.try_get_u32_le()?;
    let infected_by = buf.try_get_u32_le()?;
    Ok(PersonSlot {
        id,
        health,
        sus_scale,
        pending: None,
        infected_on: (infected_on != u32::MAX).then_some(infected_on),
        infected_by: (infected_by != u32::MAX).then_some(infected_by),
    })
}

/// Serialize a *subset* of persons with explicit ids — the per-chare blob
/// of a recovery shard ([`chare_rt::RecoverySnapshot`]). Unlike the full
/// [`Checkpoint`] person table, which stores persons densely by id, a
/// shard holds only the persons a PersonManager owns, so each record
/// carries its global person id.
pub fn encode_person_shard(slots: &[PersonSlot]) -> Bytes {
    debug_assert!(
        slots.iter().all(|s| s.pending.is_none()),
        "pending infections must be applied before snapshotting"
    );
    let mut buf = BytesMut::with_capacity(4 + slots.len() * (4 + PERSON_WIRE));
    buf.put_u32_le(slots.len() as u32);
    for s in slots {
        buf.put_u32_le(s.id);
        put_person(&mut buf, s);
    }
    buf.freeze()
}

/// Inverse of [`encode_person_shard`].
pub fn decode_person_shard(data: &[u8]) -> Result<Vec<PersonSlot>, CodecError> {
    codec::decode_exact(data, |buf| {
        let n = codec::get_count(buf, 4 + PERSON_WIRE)?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let id = buf.try_get_u32_le()?;
            slots.push(get_person(buf, id)?);
        }
        Ok(slots)
    })
}

/// Serialize the meta record: `head`'s carry header (its person table is
/// not part of the record) and the curve so far.
pub fn encode_meta(head: &Checkpoint, days: &[DayStats]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64 + days.len() * DAY_WIRE);
    head.put_carry(&mut buf);
    buf.put_u32_le(days.len() as u32);
    for d in days {
        put_day(&mut buf, d);
    }
    buf.as_slice().to_vec()
}

/// Inverse of [`encode_meta`]; the checkpoint comes back with an empty
/// person table.
pub fn decode_meta(data: &[u8]) -> Result<(Checkpoint, Vec<DayStats>), CodecError> {
    codec::decode_exact(data, |buf| {
        let head = Checkpoint::get_carry(buf)?;
        let n = codec::get_count(buf, DAY_WIRE)?;
        let mut days = Vec::with_capacity(n);
        for _ in 0..n {
            days.push(get_day(buf)?);
        }
        Ok((head, days))
    })
}

/// Write one [`DayStats`] record, every field in declaration order.
pub fn put_day(buf: &mut BytesMut, d: &DayStats) {
    buf.put_u32_le(d.day);
    for v in [
        d.new_infections,
        d.infected_now,
        d.susceptible,
        d.symptomatic,
        d.cumulative,
        d.visits,
        d.events,
        d.interactions,
        d.infects_sent,
    ] {
        buf.put_u64_le(v);
    }
    for &k in &d.infections_by_kind {
        buf.put_u64_le(k);
    }
}

/// Read one [`DayStats`] record.
pub fn get_day(buf: &mut &[u8]) -> Result<DayStats, CodecError> {
    let mut d = DayStats {
        day: buf.try_get_u32_le()?,
        new_infections: buf.try_get_u64_le()?,
        infected_now: buf.try_get_u64_le()?,
        susceptible: buf.try_get_u64_le()?,
        symptomatic: buf.try_get_u64_le()?,
        cumulative: buf.try_get_u64_le()?,
        visits: buf.try_get_u64_le()?,
        events: buf.try_get_u64_le()?,
        interactions: buf.try_get_u64_le()?,
        infects_sent: buf.try_get_u64_le()?,
        infections_by_kind: [0; 5],
    };
    for slot in d.infections_by_kind.iter_mut() {
        *slot = buf.try_get_u64_le()?;
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{DataDistribution, Strategy};
    use crate::simulator::{SimConfig, Simulator};
    use chare_rt::RuntimeConfig;
    use proptest::prelude::*;
    use ptts::flu_model;
    use ptts::intervention::{Action, Intervention, Trigger};
    use synthpop::{Population, PopulationConfig};

    fn pop() -> Population {
        Population::generate(&PopulationConfig::small("CK", 2000, 55))
    }

    fn cfg() -> SimConfig {
        SimConfig {
            days: 30,
            r: 0.0013,
            seed: 55,
            initial_infections: 8,
            stop_when_extinct: false,
            interventions: ptts::intervention::InterventionSet::new(vec![Intervention {
                trigger: Trigger::PrevalenceAbove(0.05),
                action: Action::CloseKind {
                    kind: synthpop::LocationKind::School as u8,
                    duration: 10,
                },
            }]),
        }
    }

    /// A checkpoint after `days` days of a small round-robin run.
    fn captured(days: u32) -> Checkpoint {
        let dist = DataDistribution::build(&pop(), Strategy::RoundRobin, 2, 55);
        let mut carry = Carry::new(cfg().interventions.clone(), 8);
        let mut sim = Simulator::new(&dist, flu_model(), cfg(), RuntimeConfig::sequential(2));
        sim.run_days(0, days, &mut carry);
        capture(days, 8, &carry, sim.dismantle().0)
    }

    #[test]
    fn restart_is_bit_exact() {
        let pop = pop();
        let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 55);
        // Straight 30-day run.
        let straight =
            Simulator::new(&dist, flu_model(), cfg(), RuntimeConfig::sequential(2)).run();

        // 15 days, checkpoint (through an encode/decode round trip), resume.
        let mut carry = Carry::new(cfg().interventions.clone(), 8);
        let mut sim = Simulator::new(&dist, flu_model(), cfg(), RuntimeConfig::sequential(2));
        let (mut days, _, _) = sim.run_days(0, 15, &mut carry);
        let (states, _) = sim.dismantle();
        let ckpt = capture(15, 8, &carry, states);
        let ckpt = Checkpoint::decode(&ckpt.encode()).expect("round trip");

        let mut carry2 = ckpt.to_carry(&cfg().interventions);
        let mut sim2 = Simulator::with_states(
            &dist,
            flu_model(),
            cfg(),
            RuntimeConfig::sequential(2),
            Some(ckpt.states.clone()),
        );
        let (tail, _, _) = sim2.run_days(ckpt.next_day, 30, &mut carry2);
        days.extend(tail);
        assert_eq!(days, straight.curve.days, "restart must be bit-exact");
    }

    #[test]
    fn file_round_trip() {
        let ckpt = captured(5);
        let dir = std::env::temp_dir().join("episim-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.epck");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(ckpt, loaded);
        std::fs::remove_file(&path).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Encode→decode is the identity on arbitrary person and
        /// intervention state — every field survives, including the
        /// `u32::MAX` "none" sentinels and f32 susceptibility bits.
        #[test]
        fn roundtrip_is_identity_on_arbitrary_state(
            next_day in 0u32..20_000,
            counters in (0u64..1_000_000, 0u64..1_000_000, 0u64..100_000, 0u64..100_000),
            fired in collection::vec(any::<bool>(), 0..8),
            active in collection::vec((0u32..50, 0u32..2_000), 0..8),
            persons in collection::vec(
                (any::<u32>(), 0u32..400, (0.0f32..2.0, 0u32..600, 0u32..5_000)),
                0..64
            ),
        ) {
            let states: Vec<PersonSlot> = persons
                .iter()
                .enumerate()
                .map(|(id, &(packed, days, (sus, on, by)))| PersonSlot {
                    id: id as u32,
                    health: HealthTracker {
                        state: StateId(packed as u16),
                        days_remaining: days,
                        treatment: TreatmentId((packed >> 16) as u16),
                    },
                    sus_scale: sus,
                    pending: None,
                    infected_on: (on % 3 != 0).then_some(on),
                    infected_by: (by % 5 != 0).then_some(by),
                })
                .collect();
            let ckpt = Checkpoint {
                next_day,
                seeds: counters.0,
                cumulative: counters.1,
                yesterday_new: counters.2,
                yesterday_infected: counters.3,
                interventions: InterventionSnapshot { fired, active },
                states,
            };
            let decoded = Checkpoint::decode(&ckpt.encode()).expect("round trip");
            prop_assert_eq!(decoded, ckpt);
        }

        /// Any corruption of the magic or version header is rejected with
        /// the matching error — never a panic, never a silent
        /// misinterpretation — and every strict prefix is `Truncated`.
        #[test]
        fn corrupted_header_and_truncation_rejected(
            flip in any::<u8>(),
            pos in 0usize..8,
            cut_seed in any::<u32>(),
        ) {
            let ckpt = Checkpoint {
                next_day: 3,
                seeds: 8,
                cumulative: 21,
                yesterday_new: 2,
                yesterday_infected: 5,
                interventions: InterventionSnapshot {
                    fired: vec![true, false],
                    active: vec![(0, 9)],
                },
                states: vec![PersonSlot {
                    id: 0,
                    health: HealthTracker {
                        state: StateId(1),
                        days_remaining: 4,
                        treatment: TreatmentId(0),
                    },
                    sus_scale: 1.0,
                    pending: None,
                    infected_on: Some(1),
                    infected_by: None,
                }],
            };
            let data = ckpt.encode();
            let mut bad = data.to_vec();
            bad[pos] ^= flip | 1; // guarantee at least one bit changes
            match Checkpoint::decode(&bad) {
                Err(CodecError::BadMagic) => prop_assert!(pos < 4),
                Err(CodecError::BadVersion(v)) => {
                    prop_assert!(pos >= 4);
                    prop_assert_ne!(v, VERSION);
                }
                other => prop_assert!(false, "corrupt header accepted: {:?}", other),
            }
            let cut = cut_seed as usize % data.len();
            prop_assert_eq!(
                Checkpoint::decode(&data[..cut]).err(),
                Some(CodecError::Truncated)
            );
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            Checkpoint::decode(b"XXXXYYYY").err(),
            Some(CodecError::BadMagic)
        );
        assert_eq!(Checkpoint::decode(b"EP").err(), Some(CodecError::Truncated));
        let data = captured(2).encode();
        let mut bad_version = data.to_vec();
        bad_version[4] = 77;
        assert!(matches!(
            Checkpoint::decode(&bad_version),
            Err(CodecError::BadVersion(77))
        ));
    }

    /// The torn-write satellite: a byte-chopped checkpoint file (a crash
    /// mid-write) must load as a typed error, never decode to a plausible
    /// but wrong state, and a body bit-flip must be caught by the CRC.
    #[test]
    fn chopped_or_flipped_file_is_rejected() {
        let ckpt = captured(3);
        let dir = std::env::temp_dir().join(format!("episim-ckpt-chop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.epck");
        ckpt.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Chop the file as a torn write would, at several depths.
        for frac in [1usize, 3, 9, 10] {
            let cut = full.len() * frac / 10;
            std::fs::write(&path, &full[..cut.min(full.len() - 1)]).unwrap();
            let err = Checkpoint::load(&path).expect_err("chopped file loaded");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut {cut}");
        }

        // A single body bit-flip past the header is a CRC failure.
        let mut flipped = full.clone();
        let mid = 8 + (full.len() - 12) / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert!(Checkpoint::load(&path).is_err(), "bit-flipped file loaded");
        assert!(matches!(
            Checkpoint::decode(&flipped),
            Err(CodecError::BadCrc { .. }) | Err(CodecError::Truncated)
        ));

        // And the pristine file still loads after all that.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Atomic save: the temp file never lingers, and saving over an
    /// existing checkpoint replaces it in one step.
    #[test]
    fn save_is_atomic_and_cleans_temp() {
        let ckpt = captured(2);
        let dir = std::env::temp_dir().join(format!("episim-ckpt-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.epck");
        ckpt.save(&path).unwrap();
        ckpt.save(&path).unwrap(); // overwrite path
        assert!(!path.with_extension("epck.tmp").exists(), "temp lingered");
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn person_shard_roundtrip_with_explicit_ids() {
        let slots = vec![
            PersonSlot {
                id: 17,
                health: HealthTracker {
                    state: StateId(2),
                    days_remaining: 3,
                    treatment: TreatmentId(1),
                },
                sus_scale: 0.75,
                pending: None,
                infected_on: Some(4),
                infected_by: None,
            },
            PersonSlot {
                id: 1031,
                health: HealthTracker {
                    state: StateId(0),
                    days_remaining: 0,
                    treatment: TreatmentId(0),
                },
                sus_scale: 1.0,
                pending: None,
                infected_on: None,
                infected_by: Some(17),
            },
        ];
        let data = encode_person_shard(&slots);
        assert_eq!(decode_person_shard(&data).unwrap(), slots);
        for cut in [0usize, 3, 10, data.len() - 1] {
            assert_eq!(
                decode_person_shard(&data[..cut]).err(),
                Some(CodecError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn meta_roundtrip_fills_every_field() {
        let carry = Carry {
            interventions: InterventionSet::none(),
            cumulative: 42,
            yesterday_new: 5,
            yesterday_infected: 9,
        };
        let days: Vec<DayStats> = (0..3)
            .map(|day| DayStats {
                day,
                new_infections: day as u64 + 1,
                infected_now: 7,
                susceptible: 90,
                symptomatic: 3,
                cumulative: 11,
                visits: 40,
                events: 9,
                interactions: 100,
                infects_sent: 2,
                infections_by_kind: [1, 2, 3, 4, 5],
            })
            .collect();
        let head = capture(3, 10, &carry, Vec::new());
        let (back, back_days) = decode_meta(&encode_meta(&head, &days)).expect("roundtrip");
        assert_eq!(back, head);
        assert_eq!(back_days, days);
    }
}
