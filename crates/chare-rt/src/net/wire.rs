//! Wire format for the networked engine: little-endian payload codecs
//! built on the `bytes` shim. Every frame on a socket is
//! `[len: u32][kind: u8][payload]` (the length counts the kind byte plus
//! the payload — see [`crate::net::transport`]); this module defines what
//! goes inside the payload for each kind. DESIGN.md §8 documents the
//! layouts normatively. Decoders read through [`crate::codec`] and return
//! `None` for anything malformed, trailing bytes included.

use crate::chare::{ChareId, Message};
use crate::codec::{self, CodecError};
use crate::stats::{PeStats, ReductionSlots, REDUCTION_SLOTS};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// First field of HELLO (then [`VERSION`]).
pub const MAGIC: &[u8; 4] = b"EPNT";
/// Wire protocol version; a mismatch is a setup error, never negotiated.
/// v3: the phase protocol is CD_PROBE / CD_REPLY / PHASE_RESULT only —
/// probes carry the topology check, replies carry the worker's reductions
/// and counters, and PHASE_START, PHASE_END and STATS are retired.
/// v4: a BATCH frame carries exactly one envelope, and [`PeStats`] lost
/// its six aggregation and relay counters (21 fields).
/// v5: the core's `SimMsg` gains `Updates` (tag 7) and `ComputeDay`
/// carries the day's closed location kinds.
pub const VERSION: u32 = 5;

/// Frame kind bytes.
pub mod kind {
    /// Worker → root, first frame on the root socket.
    pub const HELLO: u8 = 1;
    /// Root → workers: every worker's mesh listen port.
    pub const PEERS: u8 = 2;
    /// Worker → worker, first frame on a mesh socket.
    pub const PEER_HELLO: u8 = 3;
    /// Worker → root: the worker's side of the mesh is fully wired.
    pub const MESH_OK: u8 = 4;
    // 5 (PHASE_START), 9 (PHASE_END) and 10 (STATS) are retired, never
    // reused: a v3 decoder rejects them like any unknown kind.
    /// One application envelope, any process → any process.
    pub const BATCH: u8 = 6;
    /// Root → workers: completion-detection wave probe (carries the SPMD
    /// topology check).
    pub const CD_PROBE: u8 = 7;
    /// Worker → root: the idle worker's produce/consume snapshot with its
    /// reductions and per-PE counters.
    pub const CD_REPLY: u8 = 8;
    /// Root → workers: completion detection fired; the phase is over and
    /// these are its globally merged reductions and per-PE stats.
    pub const PHASE_RESULT: u8 = 11;
    /// Root → workers: tear down and exit.
    pub const SHUTDOWN: u8 = 12;
    /// Root → workers: liveness probe (piggybacks on the CD probe
    /// cadence while a phase runs, fills the gaps between phases).
    pub const HEARTBEAT: u8 = 13;
    /// Worker → root: liveness echo, answered by the comm thread with no
    /// compute round-trip, carrying the worker's view of its mesh links.
    pub const HEARTBEAT_ACK: u8 = 14;
}

/// A worker's introduction to the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Which net-runtime construction within the process this socket
    /// belongs to (guards against a worker connecting to the wrong run).
    pub invocation: u64,
    /// The worker's process rank (1-based; rank 0 is the root).
    pub rank: u32,
    /// Total process count the worker was configured with.
    pub n_procs: u32,
    /// Total PE count the worker was configured with.
    pub n_pes: u32,
    /// Loopback port of the worker's mesh listener.
    pub listen_port: u16,
}

/// Every non-BATCH frame, decoded. BATCH is handled separately because its
/// payload embeds application messages (generic in `M`).
#[derive(Debug, Clone, PartialEq)]
pub enum Ctl {
    /// See [`Hello`].
    Hello(Hello),
    /// `(rank, mesh listen port)` for every worker.
    Peers(Vec<(u32, u16)>),
    /// Mesh-socket introduction.
    PeerHello {
        /// Invocation echo.
        invocation: u64,
        /// Connecting worker's rank.
        rank: u32,
    },
    /// Mesh wiring complete on this worker.
    MeshOk {
        /// Reporting worker's rank.
        rank: u32,
    },
    /// CD wave probe for `phase`. `n_chares`/`map_hash` must match on
    /// every process (the SPMD topology check rides on every probe, so it
    /// is checked at least twice before any phase can close).
    CdProbe {
        /// 1-based phase the probe belongs to; a worker answers once it is
        /// idle in that phase.
        phase: u64,
        /// Wave number, strictly increasing within a phase.
        wave: u64,
        /// Registered chare count.
        n_chares: u32,
        /// FNV-1a over the chare→PE map.
        map_hash: u64,
    },
    /// CD wave reply, sent by the compute thread only while it is idle in
    /// `phase`. It carries everything the root needs to close the phase:
    /// when two matching waves agree, the second wave's replies are final.
    CdReply {
        /// Replying worker's rank.
        rank: u32,
        /// Echo of the probe's phase.
        phase: u64,
        /// Echo of the probe's wave.
        wave: u64,
        /// Wire envelopes produced by this process so far this phase.
        produced: u64,
        /// Wire envelopes consumed by this process so far this phase.
        consumed: u64,
        /// The worker's reduction contributions so far this phase.
        reductions: ReductionSlots,
        /// `(global pe index, counters)` for each of the worker's PEs.
        per_pe: Vec<(u32, PeStats)>,
    },
    /// Completion detection fired: `phase` is over. Carries the globally
    /// merged outcome so every process returns identical
    /// [`crate::stats::PhaseStats`] (SPMD lockstep).
    PhaseResult {
        /// The finished phase.
        phase: u64,
        /// Merged reductions.
        reductions: ReductionSlots,
        /// Counters for all PEs, indexed by global PE.
        per_pe: Vec<PeStats>,
    },
    /// Tear down.
    Shutdown,
    /// Liveness probe (root → worker).
    Heartbeat {
        /// Strictly increasing probe sequence number.
        seq: u64,
    },
    /// Liveness echo (worker → root).
    HeartbeatAck {
        /// Replying worker's rank.
        rank: u32,
        /// Echo of the probe's sequence number.
        seq: u64,
        /// Bitmask of worker ranks whose *mesh* link this worker's comm
        /// thread has marked dead (bit `r` set = link to rank `r` down).
        /// Nonzero while the root's own link to those ranks is healthy
        /// means the mesh is partitioned, not crashed.
        mesh_dead: u32,
    },
}

/// Number of `u64` fields in [`PeStats`] — the codec writes them all in
/// declaration order, so this constant pins the layout.
const PE_STATS_FIELDS: usize = 21;

fn put_pe_stats(out: &mut BytesMut, s: &PeStats) {
    let fields = [
        s.sent_self,
        s.sent_intra,
        s.sent_remote,
        s.network_packets,
        s.remote_bytes,
        s.processed,
        s.busy_ns,
        s.faults_dropped,
        s.faults_dup_suppressed,
        s.lost,
        s.wire_frames_sent,
        s.wire_frames_recv,
        s.wire_bytes_sent,
        s.wire_bytes_recv,
        s.wire_flush_batch,
        s.wire_flush_idle,
        s.shm_frames_sent,
        s.shm_parks,
        s.wire_flush_eager,
        s.recovery_checkpoints,
        s.recovery_restores,
    ];
    debug_assert_eq!(fields.len(), PE_STATS_FIELDS);
    for f in fields {
        out.put_u64_le(f);
    }
}

fn get_pe_stats(buf: &mut &[u8]) -> Result<PeStats, CodecError> {
    Ok(PeStats {
        sent_self: buf.try_get_u64_le()?,
        sent_intra: buf.try_get_u64_le()?,
        sent_remote: buf.try_get_u64_le()?,
        network_packets: buf.try_get_u64_le()?,
        remote_bytes: buf.try_get_u64_le()?,
        processed: buf.try_get_u64_le()?,
        busy_ns: buf.try_get_u64_le()?,
        faults_dropped: buf.try_get_u64_le()?,
        faults_dup_suppressed: buf.try_get_u64_le()?,
        lost: buf.try_get_u64_le()?,
        wire_frames_sent: buf.try_get_u64_le()?,
        wire_frames_recv: buf.try_get_u64_le()?,
        wire_bytes_sent: buf.try_get_u64_le()?,
        wire_bytes_recv: buf.try_get_u64_le()?,
        wire_flush_batch: buf.try_get_u64_le()?,
        wire_flush_idle: buf.try_get_u64_le()?,
        shm_frames_sent: buf.try_get_u64_le()?,
        shm_parks: buf.try_get_u64_le()?,
        wire_flush_eager: buf.try_get_u64_le()?,
        recovery_checkpoints: buf.try_get_u64_le()?,
        recovery_restores: buf.try_get_u64_le()?,
    })
}

fn put_reductions(out: &mut BytesMut, r: &ReductionSlots) {
    for slot in 0..REDUCTION_SLOTS {
        out.put_u64_le(r.get(slot));
    }
}

fn get_reductions(buf: &mut &[u8]) -> Result<ReductionSlots, CodecError> {
    let mut r = ReductionSlots::default();
    for slot in 0..REDUCTION_SLOTS {
        r.add(slot, buf.try_get_u64_le()?);
    }
    Ok(r)
}

impl Ctl {
    /// Encode into `(kind byte, payload)`.
    pub fn encode(&self) -> (u8, Bytes) {
        let mut out = BytesMut::with_capacity(64);
        let kind = match self {
            Ctl::Hello(h) => {
                codec::put_header(&mut out, MAGIC, VERSION);
                out.put_u64_le(h.invocation);
                out.put_u32_le(h.rank);
                out.put_u32_le(h.n_procs);
                out.put_u32_le(h.n_pes);
                out.put_u16_le(h.listen_port);
                kind::HELLO
            }
            Ctl::Peers(peers) => {
                out.put_u32_le(peers.len() as u32);
                for (rank, port) in peers {
                    out.put_u32_le(*rank);
                    out.put_u16_le(*port);
                }
                kind::PEERS
            }
            Ctl::PeerHello { invocation, rank } => {
                out.put_u64_le(*invocation);
                out.put_u32_le(*rank);
                kind::PEER_HELLO
            }
            Ctl::MeshOk { rank } => {
                out.put_u32_le(*rank);
                kind::MESH_OK
            }
            Ctl::CdProbe {
                phase,
                wave,
                n_chares,
                map_hash,
            } => {
                out.put_u64_le(*phase);
                out.put_u64_le(*wave);
                out.put_u32_le(*n_chares);
                out.put_u64_le(*map_hash);
                kind::CD_PROBE
            }
            Ctl::CdReply {
                rank,
                phase,
                wave,
                produced,
                consumed,
                reductions,
                per_pe,
            } => {
                out.put_u32_le(*rank);
                out.put_u64_le(*phase);
                out.put_u64_le(*wave);
                out.put_u64_le(*produced);
                out.put_u64_le(*consumed);
                put_reductions(&mut out, reductions);
                out.put_u32_le(per_pe.len() as u32);
                for (pe, st) in per_pe {
                    out.put_u32_le(*pe);
                    put_pe_stats(&mut out, st);
                }
                kind::CD_REPLY
            }
            Ctl::PhaseResult {
                phase,
                reductions,
                per_pe,
            } => {
                out.put_u64_le(*phase);
                put_reductions(&mut out, reductions);
                out.put_u32_le(per_pe.len() as u32);
                for st in per_pe {
                    put_pe_stats(&mut out, st);
                }
                kind::PHASE_RESULT
            }
            Ctl::Shutdown => kind::SHUTDOWN,
            Ctl::Heartbeat { seq } => {
                out.put_u64_le(*seq);
                kind::HEARTBEAT
            }
            Ctl::HeartbeatAck {
                rank,
                seq,
                mesh_dead,
            } => {
                out.put_u32_le(*rank);
                out.put_u64_le(*seq);
                out.put_u32_le(*mesh_dead);
                kind::HEARTBEAT_ACK
            }
        };
        (kind, out.freeze())
    }

    /// Decode a control frame. `None` means malformed — the transport
    /// treats that as fatal, never skips.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> Option<Ctl> {
        let parse = |buf: &mut &[u8]| -> Result<Ctl, CodecError> {
            Ok(match kind_byte {
                kind::HELLO => {
                    codec::get_header(buf, MAGIC, VERSION)?;
                    Ctl::Hello(Hello {
                        invocation: buf.try_get_u64_le()?,
                        rank: buf.try_get_u32_le()?,
                        n_procs: buf.try_get_u32_le()?,
                        n_pes: buf.try_get_u32_le()?,
                        listen_port: buf.try_get_u16_le()?,
                    })
                }
                kind::PEERS => {
                    let n = codec::get_count(buf, 6)?;
                    let mut peers = Vec::with_capacity(n);
                    for _ in 0..n {
                        peers.push((buf.try_get_u32_le()?, buf.try_get_u16_le()?));
                    }
                    Ctl::Peers(peers)
                }
                kind::PEER_HELLO => Ctl::PeerHello {
                    invocation: buf.try_get_u64_le()?,
                    rank: buf.try_get_u32_le()?,
                },
                kind::MESH_OK => Ctl::MeshOk {
                    rank: buf.try_get_u32_le()?,
                },
                kind::CD_PROBE => Ctl::CdProbe {
                    phase: buf.try_get_u64_le()?,
                    wave: buf.try_get_u64_le()?,
                    n_chares: buf.try_get_u32_le()?,
                    map_hash: buf.try_get_u64_le()?,
                },
                kind::CD_REPLY => {
                    let rank = buf.try_get_u32_le()?;
                    let phase = buf.try_get_u64_le()?;
                    let wave = buf.try_get_u64_le()?;
                    let produced = buf.try_get_u64_le()?;
                    let consumed = buf.try_get_u64_le()?;
                    let reductions = get_reductions(buf)?;
                    let n = codec::get_count(buf, 4 + PE_STATS_FIELDS * 8)?;
                    let mut per_pe = Vec::with_capacity(n);
                    for _ in 0..n {
                        per_pe.push((buf.try_get_u32_le()?, get_pe_stats(buf)?));
                    }
                    Ctl::CdReply {
                        rank,
                        phase,
                        wave,
                        produced,
                        consumed,
                        reductions,
                        per_pe,
                    }
                }
                kind::PHASE_RESULT => {
                    let phase = buf.try_get_u64_le()?;
                    let reductions = get_reductions(buf)?;
                    let n = codec::get_count(buf, PE_STATS_FIELDS * 8)?;
                    let mut per_pe = Vec::with_capacity(n);
                    for _ in 0..n {
                        per_pe.push(get_pe_stats(buf)?);
                    }
                    Ctl::PhaseResult {
                        phase,
                        reductions,
                        per_pe,
                    }
                }
                kind::SHUTDOWN => Ctl::Shutdown,
                kind::HEARTBEAT => Ctl::Heartbeat {
                    seq: buf.try_get_u64_le()?,
                },
                kind::HEARTBEAT_ACK => Ctl::HeartbeatAck {
                    rank: buf.try_get_u32_le()?,
                    seq: buf.try_get_u64_le()?,
                    mesh_dead: buf.try_get_u32_le()?,
                },
                other => return Err(CodecError::BadTag(other)),
            })
        };
        codec::decode_exact(payload, parse).ok()
    }
}

/// Encode one envelope as a BATCH payload: `phase | chare | message`,
/// where `message` is the application's own [`Message::wire_encode`]
/// output and runs to the end of the payload.
pub fn encode_batch<M: Message>(phase: u64, to: ChareId, msg: &M) -> Bytes {
    let mut out = BytesMut::with_capacity(12 + msg.size_bytes());
    out.put_u64_le(phase);
    out.put_u32_le(to.0);
    msg.wire_encode(&mut out);
    out.freeze()
}

/// Decode a BATCH payload into `(phase, chare, message)`. `None` if the
/// header is short or the message codec fails or leaves bytes unread.
pub fn decode_batch<M: Message>(payload: &[u8]) -> Option<(u64, ChareId, M)> {
    let mut buf = payload;
    let phase = buf.try_get_u64_le().ok()?;
    let to = ChareId(buf.try_get_u32_le().ok()?);
    let msg = M::wire_decode(&mut buf)?;
    // The message codec must consume its own payload exactly.
    buf.is_empty().then_some((phase, to, msg))
}

/// FNV-1a over the chare→PE map; every CD_PROBE carries it so a worker whose
/// SPMD replay built a different topology fails loudly instead of
/// misrouting messages.
pub fn map_hash(pe_of: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(pe_of.len() as u64);
    for &pe in pe_of {
        mix(u64::from(pe));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ctl: Ctl) {
        let (kind, payload) = ctl.encode();
        let back = Ctl::decode(kind, &payload).expect("decodes");
        assert_eq!(back, ctl);
    }

    #[test]
    fn control_frames_roundtrip() {
        roundtrip(Ctl::Hello(Hello {
            invocation: 3,
            rank: 2,
            n_procs: 4,
            n_pes: 16,
            listen_port: 45_001,
        }));
        roundtrip(Ctl::Peers(vec![(1, 40_001), (2, 40_002), (3, 40_003)]));
        roundtrip(Ctl::PeerHello {
            invocation: 9,
            rank: 3,
        });
        roundtrip(Ctl::MeshOk { rank: 1 });
        roundtrip(Ctl::CdProbe {
            phase: 7,
            wave: 41,
            n_chares: 120,
            map_hash: 0xdead_beef_cafe_f00d,
        });
        let mut reductions = ReductionSlots::default();
        reductions.add(0, 5);
        reductions.add(15, 9);
        let st = PeStats {
            sent_remote: 11,
            wire_bytes_sent: 2048,
            shm_frames_sent: 12,
            shm_parks: 2,
            recovery_restores: 1,
            ..Default::default()
        };
        roundtrip(Ctl::CdReply {
            rank: 2,
            phase: 7,
            wave: 41,
            produced: 1000,
            consumed: 998,
            reductions: reductions.clone(),
            per_pe: vec![(4, st), (5, PeStats::default())],
        });
        roundtrip(Ctl::PhaseResult {
            phase: 7,
            reductions,
            per_pe: vec![st, PeStats::default(), st],
        });
        roundtrip(Ctl::Shutdown);
        roundtrip(Ctl::Heartbeat { seq: 17 });
        roundtrip(Ctl::HeartbeatAck {
            rank: 3,
            seq: 17,
            mesh_dead: 0b0110,
        });
    }

    #[test]
    fn bad_magic_and_truncation_rejected() {
        let (kind, payload) = Ctl::Hello(Hello {
            invocation: 0,
            rank: 1,
            n_procs: 2,
            n_pes: 2,
            listen_port: 1,
        })
        .encode();
        let mut corrupt = payload.to_vec();
        corrupt[0] ^= 0xff;
        assert!(Ctl::decode(kind, &corrupt).is_none(), "bad magic");
        assert!(
            Ctl::decode(kind, &payload[..payload.len() - 1]).is_none(),
            "truncated"
        );
        let mut trailing = payload.to_vec();
        trailing.push(0);
        assert!(Ctl::decode(kind, &trailing).is_none(), "trailing garbage");
        assert!(Ctl::decode(200, &payload).is_none(), "unknown kind");
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Tok(u64);
    impl Message for Tok {
        fn wire_encode(&self, out: &mut BytesMut) {
            out.put_u64_le(self.0);
        }

        fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
            buf.try_get_u64_le().ok().map(Tok)
        }
    }

    #[test]
    fn batch_roundtrip() {
        let payload = encode_batch(5, ChareId(3), &Tok(u64::MAX));
        assert_eq!(payload.len(), 20);
        let back = decode_batch::<Tok>(&payload).expect("decodes");
        assert_eq!(back, (5, ChareId(3), Tok(u64::MAX)));
    }

    #[test]
    fn batch_truncation_and_trailing_bytes_rejected() {
        let payload = encode_batch(1, ChareId(1), &Tok(1));
        for cut in 0..payload.len() {
            assert!(
                decode_batch::<Tok>(&payload[..cut]).is_none(),
                "cut at {cut} must not decode"
            );
        }
        let mut trailing = payload.to_vec();
        trailing.push(0);
        assert!(decode_batch::<Tok>(&trailing).is_none());
    }

    /// Kinds 5, 9 and 10 (PHASE_START, PHASE_END, STATS in v2) are retired,
    /// not reused: a v3 peer rejects them.
    #[test]
    fn retired_kinds_are_rejected() {
        for k in [5u8, 9, 10] {
            assert!(Ctl::decode(k, &[0u8; 64]).is_none(), "kind {k}");
            assert!(Ctl::decode(k, &[]).is_none(), "kind {k}");
        }
    }

    /// A count that promises more PEs than the payload holds is rejected
    /// before anything is reserved for it.
    #[test]
    fn cd_reply_lying_count_rejected() {
        let (kind, payload) = Ctl::CdReply {
            rank: 1,
            phase: 3,
            wave: 2,
            produced: 5,
            consumed: 5,
            reductions: ReductionSlots::default(),
            per_pe: vec![(2, PeStats::default()), (3, PeStats::default())],
        }
        .encode();
        let count_at = 36 + REDUCTION_SLOTS * 8;
        let mut lying = payload.to_vec();
        lying[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Ctl::decode(kind, &lying).is_none());
    }

    #[test]
    fn map_hash_sensitive_to_placement() {
        let a = map_hash(&[0, 0, 1, 1]);
        let b = map_hash(&[0, 1, 0, 1]);
        let c = map_hash(&[0, 0, 1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, map_hash(&[0, 0, 1, 1]));
    }
}
