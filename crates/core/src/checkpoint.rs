//! Checkpoint/restart for long simulations, and the records every
//! snapshot is built from.
//!
//! A checkpoint captures everything a resumed run needs to continue
//! *bit-exactly*: the next day to simulate, the global epidemic counters,
//! the intervention activation state, and every person's health state with
//! transmission provenance. Location state needs no capture — visit buffers
//! are empty at day boundaries and the DES is stateless across days.
//!
//! There is one snapshot format, the CRC-sealed recovery shard
//! ([`chare_rt::RecoverySnapshot`]), and a checkpoint is the one-rank case
//! of a recovery epoch. [`Checkpoint::shard`] builds every shard:
//!
//! ```text
//! shard   := epoch = next_day | next_phase = 2·next_day + 1 | rank | n_ranks
//!            | in_flight = 0 | meta | chares: (chare id, persons) × n
//! meta    := carry header | days: n u32 + day × n
//! carry header := next_day u32 | seeds u64 | cumulative u64 | yd_new u64
//!                 | yd_infected u64
//!                 | fired: n u32 + u8 × n
//!                 | active windows: n u32 + (source u32, end_day u32) × n
//! persons := n u32 + person × n
//! person  := id u32, state u16, days_remaining u32, treatment u16,
//!            sus_scale f32, infected_on u32, infected_by u32
//!            (u32::MAX encodes "none")
//! day     := day u32 + 14 × u64 in DayStats field order
//! ```
//!
//! [`Checkpoint::encode`] writes rank 0 of 1 with no curve and every person
//! in one blob; [`crate::resilient`] writes one shard per rank, with each
//! PersonManager's blob and the curve so far in the meta record, and
//! episerve's day event carries the `day` record. Either way
//! [`Checkpoint::from_shards`] assembles the persons back into one table
//! indexed by id, and [`crate::simulator::Simulator::resume`] rebuilds the
//! run. [`Checkpoint::save`] writes through [`chare_rt::commit_file`], so a
//! crash mid-save leaves the old file or the new one, never a hybrid.

use crate::output::DayStats;
use crate::person::PersonSlot;
use crate::simulator::Carry;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use chare_rt::codec::{self, CodecError};
use chare_rt::{commit_file, RecoveryError, RecoverySnapshot};
use ptts::intervention::{InterventionSet, InterventionSnapshot};
use ptts::model::{HealthTracker, StateId, TreatmentId};
use std::path::Path;

/// Encoded bytes of one person record.
const PERSON_WIRE: usize = 24;
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
    pub(crate) fn to_carry(&self, interventions: &InterventionSet) -> Carry {
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

    /// Rank `rank`'s shard of the `n_ranks`-rank epoch `next_day`: this
    /// checkpoint's carry header and the curve `days` as the meta record
    /// (its person table is not part of it), and `chares` as the blobs.
    pub fn shard(
        &self,
        rank: u32,
        n_ranks: u32,
        days: &[DayStats],
        chares: Vec<(u32, Vec<u8>)>,
    ) -> RecoverySnapshot {
        RecoverySnapshot {
            epoch: self.next_day as u64,
            next_phase: self.next_day as u64 * 2 + 1,
            rank,
            n_ranks,
            in_flight: 0,
            meta: encode_meta(self, days),
            chares,
        }
    }

    /// Serialize as rank 0 of a one-rank epoch, every person in one blob.
    pub fn encode(&self) -> Bytes {
        let persons = encode_person_shard(&self.states).to_vec();
        self.shard(0, 1, &[], vec![(0, persons)]).encode()
    }

    /// Deserialize a one-rank epoch, verifying the structure and the CRC
    /// trailer ([`RecoveryError::Codec`]) and the person table
    /// ([`Checkpoint::from_shards`]).
    pub fn decode(data: &[u8]) -> Result<Checkpoint, RecoveryError> {
        Self::from_shards(&[RecoverySnapshot::decode(data)?]).map(|(ckpt, _days)| ckpt)
    }

    /// Assemble an epoch from every rank's shard: the checkpoint, its
    /// person table rebuilt from every shard's blobs and indexed by id,
    /// and the curve so far. Every shard's meta record must be byte-equal
    /// and the persons must be exactly the ids `0..n`, each once; anything
    /// else is a [`RecoveryError::ShardMismatch`].
    pub fn from_shards(
        shards: &[RecoverySnapshot],
    ) -> Result<(Checkpoint, Vec<DayStats>), RecoveryError> {
        let mismatch = |why: String| Err(RecoveryError::ShardMismatch(why));
        let Some(first) = shards.first() else {
            return mismatch("an epoch needs at least one shard".into());
        };
        let (mut ckpt, days) = decode_meta(&first.meta)?;
        for shard in shards {
            if shard.meta != first.meta {
                return mismatch(format!(
                    "rank {} meta record diverges from rank {}'s (lockstep violated)",
                    shard.rank, first.rank
                ));
            }
            for (_, blob) in &shard.chares {
                ckpt.states.extend(decode_person_shard(blob)?);
            }
        }
        // Sorted by id, the persons are exactly 0..n iff each sits at its
        // id; at the first that does not, a smaller id is a repeat and a
        // larger one skipped a missing person.
        ckpt.states.sort_unstable_by_key(|s| s.id);
        let misplaced = ckpt
            .states
            .iter()
            .enumerate()
            .find(|&(i, s)| s.id as usize != i);
        if let Some((i, s)) = misplaced {
            return mismatch(if (s.id as usize) < i {
                format!("person {} is stored twice", s.id)
            } else {
                format!("person {i} is missing")
            });
        }
        Ok((ckpt, days))
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

    /// Write to a file through [`commit_file`].
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        commit_file(path, &self.encode())
    }

    /// Read from a file.
    pub fn load(path: &Path) -> Result<Checkpoint, RecoveryError> {
        Self::decode(&std::fs::read(path)?)
    }
}

/// Serialize a PersonManager's persons — the per-chare blob of a shard.
pub fn encode_person_shard(slots: &[PersonSlot]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + slots.len() * PERSON_WIRE);
    buf.put_u32_le(slots.len() as u32);
    for s in slots {
        buf.put_u32_le(s.id);
        buf.put_u16_le(s.health.state.0);
        buf.put_u32_le(s.health.days_remaining);
        buf.put_u16_le(s.health.treatment.0);
        buf.put_f32_le(s.sus_scale);
        buf.put_u32_le(s.infected_on.unwrap_or(u32::MAX));
        buf.put_u32_le(s.infected_by.unwrap_or(u32::MAX));
    }
    buf.freeze()
}

/// Inverse of [`encode_person_shard`].
pub fn decode_person_shard(data: &[u8]) -> Result<Vec<PersonSlot>, CodecError> {
    codec::decode_exact(data, |buf| {
        let n = codec::get_count(buf, PERSON_WIRE)?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let id = buf.try_get_u32_le()?;
            let health = HealthTracker {
                state: StateId(buf.try_get_u16_le()?),
                days_remaining: buf.try_get_u32_le()?,
                treatment: TreatmentId(buf.try_get_u16_le()?),
            };
            let sus_scale = buf.try_get_f32_le()?;
            let infected_on = buf.try_get_u32_le()?;
            let infected_by = buf.try_get_u32_le()?;
            slots.push(PersonSlot {
                id,
                health,
                sus_scale,
                infected_on: (infected_on != u32::MAX).then_some(infected_on),
                infected_by: (infected_by != u32::MAX).then_some(infected_by),
            });
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
    use crate::resilient::{run_resilient, RecoveryConfig, KEEP_EPOCHS};
    use crate::simulator::{SimConfig, Simulator};
    use chare_rt::{EpochStore, RuntimeConfig};
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

    /// The version of EPRC, the snapshot format a checkpoint is written in.
    const EPRC_VERSION: u32 = 1;

    fn slot(id: u32) -> PersonSlot {
        PersonSlot {
            id,
            health: HealthTracker {
                state: StateId(1),
                days_remaining: 4 + id,
                treatment: TreatmentId(0),
            },
            sus_scale: 1.0,
            infected_on: Some(1),
            infected_by: None,
        }
    }

    /// A hand-built checkpoint of `n` persons.
    fn small(n: u32) -> Checkpoint {
        Checkpoint {
            next_day: 3,
            seeds: 8,
            cumulative: 21,
            yesterday_new: 2,
            yesterday_infected: 5,
            interventions: InterventionSnapshot {
                fired: vec![true, false],
                active: vec![(0, 9)],
            },
            states: (0..n).map(slot).collect(),
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

        let rt = RuntimeConfig::sequential(2);
        let mut r = Simulator::resume(ckpt, &dist, flu_model(), cfg(), rt).expect("resumes");
        days.extend(r.sim.run_days(r.next_day, 30, &mut r.carry).0);
        assert_eq!(days, straight.curve.days, "restart must be bit-exact");
    }

    #[test]
    fn file_round_trip() {
        let ckpt = captured(5);
        let dir = std::env::temp_dir().join("episim-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
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

        /// Any corruption of the EPRC magic or version header is rejected
        /// with the matching error — never a panic, never a silent
        /// misinterpretation — and every strict prefix is `Truncated`.
        #[test]
        fn corrupted_header_and_truncation_rejected(
            flip in any::<u8>(),
            pos in 0usize..8,
            cut_seed in any::<u32>(),
        ) {
            let data = small(1).encode();
            prop_assert_eq!(&data[..4], b"EPRC");
            let mut bad = data.to_vec();
            bad[pos] ^= flip | 1; // guarantee at least one bit changes
            match Checkpoint::decode(&bad) {
                Err(RecoveryError::Codec(CodecError::BadMagic)) => prop_assert!(pos < 4),
                Err(RecoveryError::Codec(CodecError::BadVersion(v))) => {
                    prop_assert!(pos >= 4);
                    prop_assert_ne!(v, EPRC_VERSION);
                }
                other => prop_assert!(false, "corrupt header accepted: {:?}", other),
            }
            let cut = cut_seed as usize % data.len();
            prop_assert_eq!(
                Checkpoint::decode(&data[..cut]).err(),
                Some(RecoveryError::Codec(CodecError::Truncated))
            );
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let codec = |e| Some(RecoveryError::Codec(e));
        assert_eq!(
            Checkpoint::decode(b"XXXXYYYY").err(),
            codec(CodecError::BadMagic)
        );
        assert_eq!(
            Checkpoint::decode(b"EP").err(),
            codec(CodecError::Truncated)
        );
        let data = captured(2).encode();
        let mut bad_version = data.to_vec();
        bad_version[4] = 77;
        assert_eq!(
            Checkpoint::decode(&bad_version).err(),
            codec(CodecError::BadVersion(77))
        );
    }

    /// A checkpoint is the one-rank case of a recovery epoch: rank 0 of 1,
    /// epoch `next_day`, the carry header as the meta record with no
    /// curve, and every person in one blob.
    #[test]
    fn checkpoint_is_a_one_rank_recovery_epoch() {
        let ckpt = captured(4);
        let snap = RecoverySnapshot::decode(&ckpt.encode()).expect("an EPRC shard");
        let head = Checkpoint {
            states: Vec::new(),
            ..ckpt.clone()
        };
        assert_eq!((snap.rank, snap.n_ranks, snap.in_flight), (0, 1, 0));
        assert_eq!((snap.epoch, snap.next_phase), (4, 9));
        assert_eq!(snap.meta, encode_meta(&head, &[]));
        assert_eq!(
            snap.chares,
            vec![(0, encode_person_shard(&ckpt.states).to_vec())]
        );
    }

    /// The last epoch a resilient run commits is a checkpoint like any
    /// other: assembled by `from_shards` and rebuilt by `Simulator::resume`,
    /// it continues bit-identical to a straight run.
    #[test]
    fn resilient_epoch_resumes_like_a_checkpoint() {
        let dist = DataDistribution::build(&pop(), Strategy::GraphPartition, 4, 55);
        let rt = RuntimeConfig::sequential(2);
        let straight = Simulator::new(&dist, flu_model(), cfg(), rt).run().curve;

        let dir = std::env::temp_dir().join(format!("episim-ckpt-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let half = SimConfig { days: 15, ..cfg() };
        run_resilient(&dist, &flu_model(), &half, &rt, &RecoveryConfig::new(&dir))
            .expect("sequential resilient run");
        let store = EpochStore::open(&dir, KEEP_EPOCHS).unwrap();
        let epoch = store.latest_committed(1).expect("a committed epoch");
        let (ckpt, mut days) = Checkpoint::from_shards(&store.load_epoch(epoch, 1).unwrap())
            .expect("the epoch assembles");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!((epoch, ckpt.next_day, days.len()), (15, 15, 15));

        let mut r = Simulator::resume(ckpt, &dist, flu_model(), cfg(), rt).expect("resumes");
        days.extend(r.sim.run_days(r.next_day, 30, &mut r.carry).0);
        assert_eq!(
            days, straight.days,
            "resume from an epoch must be bit-exact"
        );
    }

    /// `from_shards` rejects every inconsistent epoch with a typed error.
    #[test]
    fn from_shards_rejects_inconsistent_epochs() {
        let ckpt = small(3);
        let blob = |ids: &[usize]| {
            let slots: Vec<PersonSlot> = ids.iter().map(|&i| ckpt.states[i]).collect();
            encode_person_shard(&slots).to_vec()
        };
        let shards = |a: &[usize], b: &[usize], second: &Checkpoint| {
            [
                ckpt.shard(0, 2, &[], vec![(0, blob(a))]),
                second.shard(1, 2, &[], vec![(1, blob(b))]),
            ]
        };
        let (back, days) = Checkpoint::from_shards(&shards(&[0, 2], &[1], &ckpt)).unwrap();
        assert_eq!((back, days), (ckpt.clone(), Vec::new()));

        let diverged = Checkpoint {
            cumulative: ckpt.cumulative + 1,
            ..ckpt.clone()
        };
        for (epoch, why) in [
            (shards(&[0, 2], &[], &ckpt), "person 1 is missing"),
            (shards(&[0, 2], &[1, 2], &ckpt), "person 2 is stored twice"),
            (
                shards(&[0, 2], &[1], &diverged),
                "rank 1 meta record diverges",
            ),
        ] {
            match Checkpoint::from_shards(&epoch) {
                Err(RecoveryError::ShardMismatch(got)) => assert!(got.starts_with(why), "{got}"),
                other => panic!("expected a ShardMismatch ({why}), got {other:?}"),
            }
        }
        assert!(matches!(
            Checkpoint::from_shards(&[]),
            Err(RecoveryError::ShardMismatch(_))
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
        let path = dir.join("run.ckpt");
        ckpt.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Chop the file as a torn write would, at several depths.
        for frac in [1usize, 3, 9, 10] {
            let cut = full.len() * frac / 10;
            std::fs::write(&path, &full[..cut.min(full.len() - 1)]).unwrap();
            let err = Checkpoint::load(&path).expect_err("chopped file loaded");
            assert!(matches!(err, RecoveryError::Codec(_)), "cut {cut}: {err}");
        }

        // A single body bit-flip past the header is a CRC failure.
        let mut flipped = full.clone();
        let mid = 8 + (full.len() - 12) / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert!(Checkpoint::load(&path).is_err(), "bit-flipped file loaded");
        assert!(matches!(
            Checkpoint::decode(&flipped),
            Err(RecoveryError::Codec(
                CodecError::BadCrc { .. } | CodecError::Truncated
            ))
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
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        ckpt.save(&path).unwrap();
        ckpt.save(&path).unwrap(); // overwrite path
        assert!(!dir.join(".run.ckpt.tmp").exists(), "temp lingered");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["run.ckpt"], "only the checkpoint remains");
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
