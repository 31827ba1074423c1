//! Simulator messages, and the immutable state every manager chare
//! shares: the world ([`DataDistribution`]), the disease model and the
//! sweep layout, whose slots address every [`Update`].

use crate::distribution::DataDistribution;
use crate::layout::SweepLayout;
use bytes::{Buf, BufMut, BytesMut};
use chare_rt::codec::{self, CodecError};
use chare_rt::Message;
use ptts::intervention::VaccinationOrder;
use ptts::model::{StateId, TreatmentId};
use ptts::Ptts;
use std::sync::Arc;

/// A visit message: "the object representing the person sends a 'visit'
/// message to the object representing the visited location with the ID of
/// the person, the start time and the end time of the visit, as well as the
/// person's health state" (§II-B step 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisitMsg {
    /// Visiting person.
    pub person: u32,
    /// Destination location (global id).
    pub location: u32,
    /// Room within the location.
    pub sublocation: u16,
    /// Start minute.
    pub start_min: u16,
    /// End minute (exclusive).
    pub end_min: u16,
    /// The person's health state today.
    pub state: StateId,
    /// Personal susceptibility multiplier (vaccine efficacy etc.).
    pub sus_scale: f32,
}

/// A person's update to a LocationManager it visits: its health state
/// and susceptibility after today's morning. A PersonManager sends one
/// only when that pair differs from what it last sent the person's
/// LocationManagers, who cache it by the person's slot, so the receiver
/// indexes its cache and searches nothing (DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Update {
    /// The person's slot: its index among the receiving partition's
    /// visitors in the world's [`SweepLayout`].
    pub slot: u32,
    /// Its health state today.
    pub state: StateId,
    /// Its susceptibility multiplier today.
    pub sus_scale: f32,
}

/// An infect message: "for each interaction that results in disease
/// transmission, an 'infect' message is sent to the infected person"
/// (§II-B step 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InfectMsg {
    /// Person being infected.
    pub person: u32,
    /// Minute of infection (for deterministic dedup across sources).
    pub time_min: u16,
    /// Who transmitted.
    pub infector: u32,
}

/// Per-day intervention effects, broadcast to PersonManagers.
#[derive(Debug, Clone, Default)]
pub struct DayEffects {
    /// Bitmask over location kinds: bit k set ⇒ kind k closed today.
    pub closed_kinds: u8,
    /// Multiplier on transmissibility (social distancing).
    pub r_scale: f64,
    /// Vaccination orders activating today.
    pub vaccinations: Vec<VaccinationOrder>,
}

impl DayEffects {
    /// No active interventions.
    pub fn none() -> Self {
        DayEffects {
            closed_kinds: 0,
            r_scale: 1.0,
            vaccinations: Vec::new(),
        }
    }

    /// Is location kind `k` closed?
    #[inline]
    pub fn is_closed(&self, kind: u8) -> bool {
        kind < 8 && (self.closed_kinds >> kind) & 1 == 1
    }

    /// Build the bitmask from the intervention crate's bool array.
    pub fn from_flags(flags: &[bool]) -> u8 {
        flags
            .iter()
            .enumerate()
            .take(8)
            .fold(0u8, |m, (i, &c)| if c { m | (1 << i) } else { m })
    }
}

/// All messages exchanged in the simulation.
#[derive(Debug, Clone)]
pub enum SimMsg {
    /// Phase 1 kick-off, sent to every PersonManager.
    BeginDay {
        /// Simulation day (0-based).
        day: u32,
        /// Intervention effects in force.
        effects: DayEffects,
    },
    /// Visits from a PM to an LM, one per message: the paper's protocol,
    /// sent only with aggregation off (`RuntimeConfig::no_opt`).
    Visits(Vec<VisitMsg>),
    /// Phase 2 kick-off, sent to every LocationManager.
    ComputeDay {
        /// Simulation day.
        day: u32,
        /// Effective transmissibility `r × r_scale`.
        r_eff: f64,
        /// Location kinds closed today ([`DayEffects::closed_kinds`]):
        /// LocationManagers decide attendance.
        closed_kinds: u8,
    },
    /// One LM → PM lane's disease transmissions, batched like
    /// [`SimMsg::Updates`]. The receiving PersonManager applies them on
    /// arrival, so a day needs no third phase.
    Infects(Vec<InfectMsg>),
    /// One PM → LM lane's updates: application-aware aggregation (§IV-C).
    /// The sender knows a day's updates toward one LocationManager form a
    /// batch, so it ships them as one message (at most
    /// [`crate::managers::BATCH_CAP`] per message).
    Updates(Vec<Update>),
}

/// Wire tags for [`SimMsg`] variants (the first byte of the encoding;
/// DESIGN.md §8 pins them). Tags 1 and 3 were the per-visit `Visit` and
/// per-transmission `Infect` messages, tag 4 the `ApplyDay` phase
/// kick-off, and tag 7 the person-addressed `Updates`; they are retired
/// and never reused.
mod tag {
    pub const BEGIN_DAY: u8 = 0;
    pub const COMPUTE_DAY: u8 = 2;
    pub const VISITS: u8 = 5;
    pub const INFECTS: u8 = 6;
    pub const UPDATES: u8 = 8;
}

/// Encoded bytes of one [`VisitMsg`] / [`InfectMsg`] / [`Update`] /
/// vaccination order.
const VISIT_WIRE: usize = 20;
const INFECT_WIRE: usize = 10;
const UPDATE_WIRE: usize = 10;
const VACCINATION_WIRE: usize = 18;

impl Message for SimMsg {
    /// Exactly the length [`Self::wire_encode`] writes, so `remote_bytes`
    /// is the application payload that crosses the wire.
    fn size_bytes(&self) -> usize {
        match self {
            SimMsg::BeginDay { effects, .. } => 18 + effects.vaccinations.len() * VACCINATION_WIRE,
            SimMsg::Visits(batch) => 5 + batch.len() * VISIT_WIRE,
            SimMsg::ComputeDay { .. } => 14,
            SimMsg::Infects(batch) => 5 + batch.len() * INFECT_WIRE,
            SimMsg::Updates(batch) => 5 + batch.len() * UPDATE_WIRE,
        }
    }

    fn wire_encode(&self, out: &mut BytesMut) {
        match self {
            SimMsg::BeginDay { day, effects } => {
                out.put_u8(tag::BEGIN_DAY);
                out.put_u32_le(*day);
                out.put_u8(effects.closed_kinds);
                out.put_f64_le(effects.r_scale);
                out.put_u32_le(effects.vaccinations.len() as u32);
                for v in &effects.vaccinations {
                    out.put_f64_le(v.fraction);
                    out.put_u16_le(v.treatment.0);
                    out.put_f64_le(v.efficacy_factor);
                }
            }
            SimMsg::Visits(batch) => {
                out.put_u8(tag::VISITS);
                out.put_u32_le(batch.len() as u32);
                for v in batch {
                    out.put_u32_le(v.person);
                    out.put_u32_le(v.location);
                    out.put_u16_le(v.sublocation);
                    out.put_u16_le(v.start_min);
                    out.put_u16_le(v.end_min);
                    out.put_u16_le(v.state.0);
                    out.put_f32_le(v.sus_scale);
                }
            }
            SimMsg::ComputeDay {
                day,
                r_eff,
                closed_kinds,
            } => {
                out.put_u8(tag::COMPUTE_DAY);
                out.put_u32_le(*day);
                out.put_f64_le(*r_eff);
                out.put_u8(*closed_kinds);
            }
            SimMsg::Infects(batch) => {
                out.put_u8(tag::INFECTS);
                out.put_u32_le(batch.len() as u32);
                for i in batch {
                    out.put_u32_le(i.person);
                    out.put_u16_le(i.time_min);
                    out.put_u32_le(i.infector);
                }
            }
            SimMsg::Updates(batch) => {
                out.put_u8(tag::UPDATES);
                out.put_u32_le(batch.len() as u32);
                for u in batch {
                    out.put_u32_le(u.slot);
                    out.put_u16_le(u.state.0);
                    out.put_f32_le(u.sus_scale);
                }
            }
        }
    }

    /// Leaves any bytes after the message to the caller
    /// ([`chare_rt::net::wire::decode_batch`] rejects them).
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        let mut parse = || -> Result<SimMsg, CodecError> {
            Ok(match buf.try_get_u8()? {
                tag::BEGIN_DAY => {
                    let day = buf.try_get_u32_le()?;
                    let closed_kinds = buf.try_get_u8()?;
                    let r_scale = buf.try_get_f64_le()?;
                    let n = codec::get_count(buf, VACCINATION_WIRE)?;
                    let mut vaccinations = Vec::with_capacity(n);
                    for _ in 0..n {
                        vaccinations.push(VaccinationOrder {
                            fraction: buf.try_get_f64_le()?,
                            treatment: TreatmentId(buf.try_get_u16_le()?),
                            efficacy_factor: buf.try_get_f64_le()?,
                        });
                    }
                    SimMsg::BeginDay {
                        day,
                        effects: DayEffects {
                            closed_kinds,
                            r_scale,
                            vaccinations,
                        },
                    }
                }
                tag::VISITS => {
                    let n = codec::get_count(buf, VISIT_WIRE)?;
                    let mut batch = Vec::with_capacity(n);
                    for _ in 0..n {
                        batch.push(VisitMsg {
                            person: buf.try_get_u32_le()?,
                            location: buf.try_get_u32_le()?,
                            sublocation: buf.try_get_u16_le()?,
                            start_min: buf.try_get_u16_le()?,
                            end_min: buf.try_get_u16_le()?,
                            state: StateId(buf.try_get_u16_le()?),
                            sus_scale: buf.try_get_f32_le()?,
                        });
                    }
                    SimMsg::Visits(batch)
                }
                tag::COMPUTE_DAY => SimMsg::ComputeDay {
                    day: buf.try_get_u32_le()?,
                    r_eff: buf.try_get_f64_le()?,
                    closed_kinds: buf.try_get_u8()?,
                },
                tag::INFECTS => {
                    let n = codec::get_count(buf, INFECT_WIRE)?;
                    let mut batch = Vec::with_capacity(n);
                    for _ in 0..n {
                        batch.push(InfectMsg {
                            person: buf.try_get_u32_le()?,
                            time_min: buf.try_get_u16_le()?,
                            infector: buf.try_get_u32_le()?,
                        });
                    }
                    SimMsg::Infects(batch)
                }
                tag::UPDATES => {
                    let n = codec::get_count(buf, UPDATE_WIRE)?;
                    let mut batch = Vec::with_capacity(n);
                    for _ in 0..n {
                        batch.push(Update {
                            slot: buf.try_get_u32_le()?,
                            state: StateId(buf.try_get_u16_le()?),
                            sus_scale: buf.try_get_f32_le()?,
                        });
                    }
                    SimMsg::Updates(batch)
                }
                other => return Err(CodecError::BadTag(other)),
            })
        };
        parse().ok()
    }
}

/// Reduction slot assignments (see `chare_rt::stats::REDUCTION_SLOTS`).
pub mod slots {
    /// Persons currently infected (dwelling in a non-absorbing state).
    pub const INFECTED_NOW: usize = 0;
    /// Infections applied this day.
    pub const NEW_INFECTIONS: usize = 1;
    /// Symptomatic persons today.
    pub const SYMPTOMATIC: usize = 3;
    /// Still-susceptible persons.
    pub const SUSCEPTIBLE: usize = 4;
    /// Arrive/depart events processed by locations today: two per visit
    /// attended (slot 2, the PersonManagers' count of those, is retired).
    pub const EVENTS: usize = 5;
    /// Susceptible×infectious interactions counted today.
    pub const INTERACTIONS: usize = 6;
    /// Infect messages sent today.
    pub const INFECTS_SENT: usize = 7;
    /// Base of the per-location-kind transmission counters: slot
    /// `BY_KIND_BASE + k` counts infect messages computed at locations of
    /// kind `k` (venue attribution of transmissions, before per-person
    /// dedup).
    pub const BY_KIND_BASE: usize = 8;
    /// [`super::Update`] records sent this day.
    pub const UPDATES_SENT: usize = 13;
}

/// Immutable state shared by every manager chare (read-only sharing across
/// threads is one of the SMP-mode benefits the paper lists in §IV-A).
///
/// The world and the disease model are aliased, not copied: cloning a
/// [`DataDistribution`] bumps reference counts, so many simulators over
/// one world share its population, partition and index maps.
#[derive(Debug)]
pub struct Shared {
    /// The world: the population (post-splitLoc if applicable), its
    /// partition, and the §II-C object→chare index maps. PersonManager
    /// `p` is chare `p`, LocationManager `p` chare `k + p`.
    pub world: DataDistribution,
    /// The disease model.
    pub ptts: Arc<Ptts>,
    /// The visits in sweep order, for the LocationManagers this process
    /// hosts: the world's layout, or a net rank's layout of its own
    /// partitions.
    pub sweep: Arc<SweepLayout>,
    /// Base transmissibility per minute of contact.
    pub r: f64,
    /// Simulation seed.
    pub seed: u64,
    /// Application-aware aggregation is on: PersonManagers send updates
    /// and managers batch their lanes. Off (`no_opt`), the day is the
    /// paper's protocol, one message per visit and per infect.
    pub aggregated: bool,
}

/// Shared handle.
pub type SharedRef = Arc<Shared>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_kind_bitmask() {
        let e = DayEffects {
            closed_kinds: DayEffects::from_flags(&[false, false, true, false, true]),
            r_scale: 1.0,
            vaccinations: Vec::new(),
        };
        assert!(!e.is_closed(0));
        assert!(e.is_closed(2));
        assert!(e.is_closed(4));
        assert!(!e.is_closed(7));
        assert!(!e.is_closed(200));
    }

    fn encode(msg: &SimMsg) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        msg.wire_encode(&mut buf);
        buf.freeze().to_vec()
    }

    fn roundtrip(msg: &SimMsg) -> SimMsg {
        let bytes = encode(msg);
        let mut slice: &[u8] = &bytes;
        let out = SimMsg::wire_decode(&mut slice).expect("decode");
        assert!(slice.is_empty(), "decode consumed everything");
        out
    }

    fn visit(person: u32) -> VisitMsg {
        VisitMsg {
            person,
            location: 67890,
            sublocation: 11,
            start_min: 480,
            end_min: 990,
            state: StateId(2),
            sus_scale: 0.625,
        }
    }

    fn infect(person: u32) -> InfectMsg {
        InfectMsg {
            person,
            time_min: 720,
            infector: 7,
        }
    }

    fn update(slot: u32) -> Update {
        Update {
            slot,
            state: StateId(3),
            sus_scale: 0.375,
        }
    }

    fn begin_day(n_orders: usize) -> SimMsg {
        SimMsg::BeginDay {
            day: 7,
            effects: DayEffects {
                closed_kinds: 0b0001_0100,
                r_scale: 0.75,
                vaccinations: (0..n_orders)
                    .map(|i| VaccinationOrder {
                        fraction: 0.25 * (i + 1) as f64,
                        treatment: TreatmentId(3 - i as u16),
                        efficacy_factor: 0.5 / (i + 1) as f64,
                    })
                    .collect(),
            },
        }
    }

    /// One of every variant, batches both empty and populated.
    fn every_variant() -> Vec<SimMsg> {
        vec![
            begin_day(0),
            begin_day(2),
            SimMsg::Visits(Vec::new()),
            SimMsg::Visits(vec![visit(1), visit(2), visit(3)]),
            SimMsg::ComputeDay {
                day: 3,
                r_eff: 0.0015,
                closed_kinds: 0b0000_0100,
            },
            SimMsg::Infects(Vec::new()),
            SimMsg::Infects(vec![infect(99), infect(100)]),
            SimMsg::Updates(Vec::new()),
            SimMsg::Updates(vec![update(4), update(5), update(6)]),
        ]
    }

    #[test]
    fn wire_codec_roundtrips_every_variant() {
        match roundtrip(&begin_day(2)) {
            SimMsg::BeginDay { day, effects } => {
                assert_eq!(day, 7);
                assert_eq!(effects.closed_kinds, 0b0001_0100);
                assert_eq!(effects.r_scale, 0.75);
                assert_eq!(effects.vaccinations.len(), 2);
                assert_eq!(effects.vaccinations[0].treatment, TreatmentId(3));
                assert_eq!(effects.vaccinations[1].efficacy_factor, 0.25);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let visits = vec![visit(12345), visit(6)];
        match roundtrip(&SimMsg::Visits(visits.clone())) {
            SimMsg::Visits(batch) => assert_eq!(batch, visits),
            other => panic!("wrong variant: {other:?}"),
        }

        match roundtrip(&SimMsg::ComputeDay {
            day: 3,
            r_eff: 0.0015,
            closed_kinds: 0b0000_0100,
        }) {
            SimMsg::ComputeDay {
                day,
                r_eff,
                closed_kinds,
            } => {
                assert_eq!(day, 3);
                assert_eq!(r_eff, 0.0015);
                assert_eq!(closed_kinds, 0b0000_0100);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let updates = vec![update(12345), update(6)];
        match roundtrip(&SimMsg::Updates(updates.clone())) {
            SimMsg::Updates(batch) => assert_eq!(batch, updates),
            other => panic!("wrong variant: {other:?}"),
        }

        let infects = vec![infect(99), infect(3)];
        match roundtrip(&SimMsg::Infects(infects.clone())) {
            SimMsg::Infects(batch) => assert_eq!(batch, infects),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn wire_decode_rejects_garbage() {
        // Unknown tag, and the retired tags 1, 3, 4 and 7.
        for tag in [200u8, 1, 3, 4, 7] {
            let mut buf: &[u8] = &[tag, 0, 0, 0, 0];
            assert!(SimMsg::wire_decode(&mut buf).is_none(), "tag {tag}");
        }
        // Empty buffer.
        let mut empty: &[u8] = &[];
        assert!(SimMsg::wire_decode(&mut empty).is_none());
        // BeginDay claiming more vaccination orders than bytes present.
        let mut lying = BytesMut::with_capacity(64);
        lying.put_u8(0); // BEGIN_DAY
        lying.put_u32_le(1);
        lying.put_u8(0);
        lying.put_f64_le(1.0);
        lying.put_u32_le(1000); // 1000 orders, zero bytes follow
        let lying = lying.freeze();
        let mut slice: &[u8] = &lying;
        assert!(SimMsg::wire_decode(&mut slice).is_none());
    }

    /// `remote_bytes` accounting rests on this: the size the runtime
    /// charges is the size the codec writes.
    #[test]
    fn size_bytes_equals_encoded_length_for_every_variant() {
        for msg in every_variant() {
            assert_eq!(msg.size_bytes(), encode(&msg).len(), "{msg:?}");
        }
        assert_eq!(
            SimMsg::Visits(vec![visit(1); 7]).size_bytes(),
            1 + 4 + 20 * 7
        );
        assert_eq!(
            SimMsg::Infects(vec![infect(1); 7]).size_bytes(),
            1 + 4 + 10 * 7
        );
        assert_eq!(
            SimMsg::Updates(vec![update(1); 7]).size_bytes(),
            1 + 4 + 10 * 7
        );
    }

    /// Bytes after a message are left unread, for the caller
    /// (`decode_batch`) to reject.
    #[test]
    fn trailing_bytes_are_left_to_the_caller() {
        for msg in every_variant() {
            let full = encode(&msg);
            let mut padded = full.clone();
            padded.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
            let mut slice: &[u8] = &padded;
            let back = SimMsg::wire_decode(&mut slice).expect("decode");
            assert_eq!(slice, &[0xAB, 0xCD, 0xEF], "{msg:?}");
            assert_eq!(encode(&back), full);
        }
    }

    /// A batch header whose count exceeds the bytes present must be
    /// rejected before any allocation.
    #[test]
    fn batch_count_overflow_is_rejected() {
        for tag in [tag::VISITS, tag::INFECTS, tag::UPDATES] {
            for count in [u32::MAX, u32::MAX / 20 + 1, 2] {
                let mut bytes = vec![tag];
                bytes.extend_from_slice(&count.to_le_bytes());
                bytes.extend_from_slice(&[0u8; 19]); // fewer than two of either item
                let mut slice: &[u8] = &bytes;
                assert!(
                    SimMsg::wire_decode(&mut slice).is_none(),
                    "tag {tag} count {count}"
                );
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_visits() -> impl Strategy<Value = Vec<VisitMsg>> {
            collection::vec(
                (any::<u32>(), any::<u32>(), any::<u64>(), 0.0f32..2.0),
                0..40,
            )
            .prop_map(|raw| {
                raw.into_iter()
                    .map(|(person, location, bits, sus_scale)| VisitMsg {
                        person,
                        location,
                        sublocation: bits as u16,
                        start_min: (bits >> 16) as u16,
                        end_min: (bits >> 32) as u16,
                        state: StateId((bits >> 48) as u16),
                        sus_scale,
                    })
                    .collect()
            })
        }

        fn arb_infects() -> impl Strategy<Value = Vec<InfectMsg>> {
            collection::vec((any::<u32>(), 0u16..1440, any::<u32>()), 0..40).prop_map(|raw| {
                raw.into_iter()
                    .map(|(person, time_min, infector)| InfectMsg {
                        person,
                        time_min,
                        infector,
                    })
                    .collect()
            })
        }

        proptest! {
            #[test]
            fn visit_batches_roundtrip(visits in arb_visits()) {
                let msg = SimMsg::Visits(visits.clone());
                prop_assert_eq!(msg.size_bytes(), encode(&msg).len());
                match roundtrip(&msg) {
                    SimMsg::Visits(back) => prop_assert_eq!(back, visits),
                    other => panic!("wrong variant: {other:?}"),
                }
            }

            #[test]
            fn infect_batches_roundtrip(infects in arb_infects()) {
                let msg = SimMsg::Infects(infects.clone());
                prop_assert_eq!(msg.size_bytes(), encode(&msg).len());
                match roundtrip(&msg) {
                    SimMsg::Infects(back) => prop_assert_eq!(back, infects),
                    other => panic!("wrong variant: {other:?}"),
                }
            }

            /// Decoder totality: arbitrary bytes behind any tag either
            /// decode to a message that re-encodes to exactly the bytes
            /// consumed, or are rejected — never a panic or an over-read.
            #[test]
            fn decoder_is_total(tag in 0u8..9, body in collection::vec(any::<u8>(), 0..96)) {
                let mut bytes = vec![tag];
                bytes.extend_from_slice(&body);
                let mut slice: &[u8] = &bytes;
                if let Some(msg) = SimMsg::wire_decode(&mut slice) {
                    let consumed = bytes.len() - slice.len();
                    prop_assert_eq!(msg.size_bytes(), consumed);
                    // NaN payloads re-encode bit-exactly: fields are
                    // copied, never computed on.
                    prop_assert_eq!(encode(&msg), &bytes[..consumed]);
                }
            }
        }
    }
}
