//! Every binary format, pinned and checked for totality in one place.
//!
//! The formats: the net engine's control frames (`Ctl`) and BATCH payload
//! with the `SimMsg` codec inside it, the EPRC recovery shard with the
//! person shard and the meta record inside it, the checkpoint (a one-rank
//! EPRC epoch), and the episerve request/response/event payloads.
//!
//! * **Golden pins.** An FNV-1a hash over the encoded bytes of a fixed
//!   sample of every variant of every format. A refactor of a codec must
//!   leave these unchanged: a format change is a version bump, never a
//!   side effect.
//! * **One totality harness** ([`check_total`]), applied to every format:
//!   round trip, every strict prefix rejected, a byte appended rejected,
//!   a lying `u32::MAX` at every offset and arbitrary bytes never panic
//!   or over-allocate, and in the CRC formats (EPRC, serve) every
//!   single-bit flip rejected.

use episimdemics::chare_rt::net::wire::{decode_batch, encode_batch, Ctl, Hello};
use episimdemics::chare_rt::stats::ReductionSlots;
use episimdemics::chare_rt::{ChareId, EpochStore, PeStats, RecoverySnapshot, RuntimeConfig};
use episimdemics::core::checkpoint::{
    decode_meta, decode_person_shard, encode_meta, encode_person_shard, Checkpoint,
};
use episimdemics::core::messages::{DayEffects, InfectMsg, SimMsg, Update, VisitMsg};
use episimdemics::core::person::PersonSlot;
use episimdemics::core::resilient::KEEP_EPOCHS;
use episimdemics::core::Strategy as DistStrategy;
use episimdemics::core::{run_resilient, DataDistribution, DayStats, RecoveryConfig, SimConfig};
use episimdemics::episerve::protocol::{
    decode_event, decode_request, decode_response, encode_event, encode_request, encode_response,
    errcode, Event, Request, Response, MAGIC, VERSION,
};
use episimdemics::episerve::{EngineSel, JobSpec, JobState, Priority, ScenarioSource};
use episimdemics::ptts::flu_model;
use episimdemics::ptts::intervention::{InterventionSnapshot, VaccinationOrder};
use episimdemics::ptts::model::{HealthTracker, StateId, TreatmentId};
use episimdemics::synthpop::{Population, PopulationConfig};

// ---------------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------------

/// FNV-1a over each sample's length and bytes, in order.
fn pin(encoded: &[Vec<u8>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for bytes in encoded {
        for b in (bytes.len() as u64).to_le_bytes() {
            mix(b);
        }
        for &b in bytes {
            mix(b);
        }
    }
    h
}

/// SplitMix64: the arbitrary-bytes source, seeded per format.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Decode, then re-encode what was accepted.
type Reencode = Box<dyn Fn(&[u8]) -> Option<Vec<u8>>>;

/// One format under test: its encoded samples, its pinned hash, and a
/// decoder that re-encodes what it accepts — a round trip is judged on
/// the bytes, so no format needs `PartialEq` and NaN payloads must
/// survive bit-exactly.
struct Format {
    name: &'static str,
    samples: Vec<Vec<u8>>,
    decode: Reencode,
    crc: bool,
    pin: u64,
}

fn format<T: 'static>(
    name: &'static str,
    samples: Vec<T>,
    encode: fn(&T) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<T>,
    crc: bool,
    pin: u64,
) -> Format {
    Format {
        name,
        samples: samples.iter().map(encode).collect(),
        decode: Box::new(move |b| decode(b).map(|v| encode(&v))),
        crc,
        pin,
    }
}

/// The totality harness: round trip, every strict prefix rejected, a
/// byte appended rejected, a `u32::MAX` at every offset and arbitrary
/// bytes never panic, and in a CRC format every single-bit flip rejected.
fn check_total(f: &Format) {
    let (name, decode) = (f.name, &f.decode);
    let mut rng = Rng(pin(&[name.as_bytes().to_vec()]));
    for (i, bytes) in f.samples.iter().enumerate() {
        assert_eq!(
            decode(bytes).as_ref(),
            Some(bytes),
            "{name}[{i}]: round trip"
        );
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_none(),
                "{name}[{i}]: prefix of {cut}/{} bytes accepted",
                bytes.len()
            );
        }
        let mut appended = bytes.clone();
        appended.push(0);
        assert!(
            decode(&appended).is_none(),
            "{name}[{i}]: appended byte accepted"
        );
        for at in 0..bytes.len().saturating_sub(3) {
            let mut lying = bytes.clone();
            lying[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let _ = decode(&lying);
        }
        for bit in (0..bytes.len() * 8).filter(|_| f.crc) {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode(&flipped).is_none(),
                "{name}[{i}]: flip of bit {bit} accepted"
            );
        }
        for _ in 0..64 {
            let mut mutated = bytes.clone();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(mutated.len().max(1));
                if let Some(b) = mutated.get_mut(at) {
                    *b = rng.next() as u8;
                }
            }
            mutated.truncate(rng.below(mutated.len() + 1));
            let _ = decode(&mutated);
        }
    }
    for _ in 0..256 {
        let len = rng.below(96);
        let noise: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = decode(&noise);
    }
}

// ---------------------------------------------------------------------------
// Samples.
// ---------------------------------------------------------------------------

fn ctl_samples() -> Vec<Ctl> {
    let mut reductions = ReductionSlots::default();
    reductions.add(0, 5);
    reductions.add(15, 9);
    let st = PeStats {
        sent_remote: 11,
        remote_bytes: 4096,
        busy_ns: 123_456,
        wire_bytes_sent: 2048,
        shm_frames_sent: 12,
        recovery_restores: 1,
        ..Default::default()
    };
    vec![
        Ctl::Hello(Hello {
            invocation: 3,
            rank: 2,
            n_procs: 4,
            n_pes: 16,
            listen_port: 45_001,
        }),
        Ctl::Peers(Vec::new()),
        Ctl::Peers(vec![(1, 40_001), (2, 40_002)]),
        Ctl::PeerHello {
            invocation: 9,
            rank: 3,
        },
        Ctl::MeshOk { rank: 1 },
        Ctl::CdProbe {
            phase: 7,
            wave: 41,
            n_chares: 120,
            map_hash: 0xdead_beef_cafe_f00d,
        },
        Ctl::CdReply {
            rank: 2,
            phase: 7,
            wave: 41,
            produced: 1000,
            consumed: 998,
            reductions: reductions.clone(),
            per_pe: vec![(4, st), (5, PeStats::default())],
        },
        Ctl::PhaseResult {
            phase: 7,
            reductions,
            per_pe: vec![st, PeStats::default()],
        },
        Ctl::Shutdown,
        Ctl::Heartbeat { seq: 17 },
        Ctl::HeartbeatAck {
            rank: 3,
            seq: 17,
            mesh_dead: 0b0110,
        },
    ]
}

fn ctl_bytes(c: &Ctl) -> Vec<u8> {
    let (kind, payload) = c.encode();
    let mut out = vec![kind];
    out.extend_from_slice(&payload);
    out
}

fn ctl_decode(b: &[u8]) -> Option<Ctl> {
    let (&kind, payload) = b.split_first()?;
    Ctl::decode(kind, payload)
}

fn visit(person: u32) -> VisitMsg {
    VisitMsg {
        person,
        location: 67_890,
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

/// BATCH payloads, one per `SimMsg` shape: the `SimMsg` codec leaves
/// bytes after a message to its caller, and `decode_batch` is the caller
/// that rejects them.
fn batch_samples() -> Vec<(u64, ChareId, SimMsg)> {
    vec![
        (1, ChareId(0), begin_day(0)),
        (1, ChareId(3), begin_day(2)),
        (2, ChareId(5), SimMsg::Visits(Vec::new())),
        (
            2,
            ChareId(5),
            SimMsg::Visits(vec![visit(1), visit(2), visit(3)]),
        ),
        (
            3,
            ChareId(9),
            SimMsg::ComputeDay {
                day: 3,
                r_eff: 0.0015,
                closed_kinds: 0b0000_0100,
            },
        ),
        (4, ChareId(2), SimMsg::Infects(Vec::new())),
        (
            4,
            ChareId(2),
            SimMsg::Infects(vec![infect(99), infect(100)]),
        ),
        (1, ChareId(6), SimMsg::Updates(Vec::new())),
        (
            1,
            ChareId(6),
            SimMsg::Updates(vec![update(4), update(5), update(6)]),
        ),
    ]
}

fn slot(id: u32, state: u16, on: Option<u32>, by: Option<u32>) -> PersonSlot {
    PersonSlot {
        id,
        health: HealthTracker {
            state: StateId(state),
            days_remaining: 3 + id,
            treatment: TreatmentId(state % 2),
        },
        sus_scale: 0.75,
        infected_on: on,
        infected_by: by,
    }
}

fn checkpoint_samples() -> Vec<Checkpoint> {
    vec![
        Checkpoint {
            next_day: 0,
            seeds: 0,
            cumulative: 0,
            yesterday_new: 0,
            yesterday_infected: 0,
            interventions: InterventionSnapshot {
                fired: Vec::new(),
                active: Vec::new(),
            },
            states: Vec::new(),
        },
        Checkpoint {
            next_day: 15,
            seeds: 8,
            cumulative: 21,
            yesterday_new: 2,
            yesterday_infected: 5,
            interventions: InterventionSnapshot {
                fired: vec![true, false],
                active: vec![(0, 19)],
            },
            states: vec![
                slot(0, 0, None, None),
                slot(1, 2, Some(4), Some(0)),
                slot(2, 1, Some(0), None),
            ],
        },
    ]
}

fn shard_samples() -> Vec<Vec<PersonSlot>> {
    vec![
        Vec::new(),
        vec![slot(17, 2, Some(4), None), slot(1031, 0, None, Some(17))],
    ]
}

fn snapshot_samples() -> Vec<RecoverySnapshot> {
    vec![
        RecoverySnapshot {
            epoch: 0,
            next_phase: 1,
            rank: 0,
            n_ranks: 1,
            in_flight: 0,
            meta: Vec::new(),
            chares: Vec::new(),
        },
        RecoverySnapshot {
            epoch: 3,
            next_phase: 7,
            rank: 1,
            n_ranks: 2,
            in_flight: 0,
            meta: vec![9, 8, 7, 1],
            chares: vec![(2, vec![1, 2, 3]), (3, Vec::new())],
        },
    ]
}

fn day(d: u32) -> DayStats {
    DayStats {
        day: d,
        new_infections: 17 + u64::from(d),
        infected_now: 40,
        susceptible: 900,
        symptomatic: 11,
        cumulative: 62,
        visits: 4_000,
        events: 9_000,
        interactions: 123,
        infects_sent: 18,
        infections_by_kind: [1, 2, 3, 4, 8],
    }
}

fn meta_samples() -> Vec<(Checkpoint, Vec<DayStats>)> {
    checkpoint_samples()
        .into_iter()
        .map(|mut head| {
            head.states.clear();
            let days = (0..head.next_day.min(3)).map(day).collect();
            (head, days)
        })
        .collect()
}

fn specs() -> Vec<JobSpec> {
    let mut plain = JobSpec::dsl("alpha", "disease x\n", EngineSel::Seq);
    plain.seed = Some(99);
    plain.days = Some(30);
    plain.priority = Priority::High;
    let mut sweep = JobSpec::dsl("beta", "disease y\n", EngineSel::Ensemble);
    sweep.source = ScenarioSource::Sweep {
        dsl: "disease y\n".into(),
        r_values: vec![0.0004, 0.0008, 0.0016],
        replicates: 4,
        workers: 2,
    };
    vec![plain, sweep]
}

fn request_samples() -> Vec<Request> {
    let mut reqs = vec![
        Request::Hello {
            magic: MAGIC,
            version: VERSION,
        },
        Request::Subscribe { job: 3 },
        Request::Pause { job: 4 },
        Request::Resume { job: 5 },
        Request::Cancel { job: 6 },
        Request::Status { job: 7 },
        Request::List,
        Request::Shutdown,
    ];
    reqs.extend(specs().into_iter().map(|spec| Request::Submit { spec }));
    reqs
}

fn response_samples() -> Vec<Response> {
    vec![
        Response::HelloOk { version: VERSION },
        Response::Submitted { job: 12 },
        Response::Ack {
            job: 12,
            state: JobState::Running,
        },
        Response::JobStatus {
            job: 12,
            state: JobState::Paused,
            days_done: 17,
        },
        Response::Jobs { jobs: Vec::new() },
        Response::Jobs {
            jobs: vec![(1, JobState::Completed), (2, JobState::Queued)],
        },
        Response::Error {
            code: errcode::NO_SUCH_JOB,
            message: "no job 9".into(),
        },
        Response::Bye,
    ]
}

fn event_samples() -> Vec<Event> {
    vec![
        Event::Day {
            job: 1,
            stats: day(3),
        },
        Event::State {
            job: 1,
            state: JobState::Cancelled,
        },
        Event::Completed {
            job: 1,
            days: 120,
            cumulative: 800,
            curve_hash: 0xdead_beef_cafe_f00d,
        },
        Event::Failed {
            job: 2,
            message: "scenario DSL does not parse".into(),
        },
        Event::Lagged { job: 1, missed: 42 },
    ]
}

fn formats() -> Vec<Format> {
    vec![
        format(
            "ctl",
            ctl_samples(),
            ctl_bytes,
            ctl_decode,
            false,
            0x7d88_b6bd_611b_c9f4,
        ),
        format(
            "batch",
            batch_samples(),
            |b| encode_batch(b.0, b.1, &b.2).to_vec(),
            decode_batch,
            false,
            0x4286_4ebf_ec6c_a679,
        ),
        format(
            "checkpoint",
            checkpoint_samples(),
            |c| c.encode().to_vec(),
            |b| Checkpoint::decode(b).ok(),
            true,
            0xa4c5_68af_0e9a_e774,
        ),
        format(
            "person_shard",
            shard_samples(),
            |s| encode_person_shard(s).to_vec(),
            |b| decode_person_shard(b).ok(),
            false,
            0x9e3b_30ac_9f82_2eb8,
        ),
        format(
            "eprc",
            snapshot_samples(),
            |s| s.encode().to_vec(),
            |b| RecoverySnapshot::decode(b).ok(),
            true,
            0x3e27_2437_7e82_9a1a,
        ),
        format(
            "meta",
            meta_samples(),
            |(head, days)| encode_meta(head, days),
            |b| decode_meta(b).ok(),
            false,
            0x908d_1aaa_ed04_d691,
        ),
        format(
            "request",
            request_samples(),
            |r| encode_request(r).to_vec(),
            |b| decode_request(b).ok(),
            true,
            0x410c_891b_b4f0_e104,
        ),
        format(
            "response",
            response_samples(),
            |r| encode_response(r).to_vec(),
            |b| decode_response(b).ok(),
            true,
            0xf5a8_b7c6_cada_c84c,
        ),
        format(
            "event",
            event_samples(),
            |e| encode_event(e).to_vec(),
            |b| decode_event(b).ok(),
            true,
            0xcf24_383b_72c7_f165,
        ),
    ]
}

/// A format change is a version bump, never a side effect of a refactor.
#[test]
fn golden_pins_hold() {
    let got: Vec<_> = formats()
        .iter()
        .map(|f| (f.name, pin(&f.samples)))
        .collect();
    let want: Vec<_> = formats().iter().map(|f| (f.name, f.pin)).collect();
    assert_eq!(got, want);
}

#[test]
fn every_format_is_total() {
    for f in &formats() {
        check_total(f);
    }
}

/// The meta record and the person shard as a real resilient run writes
/// them: every rank's shard of the last committed epoch of a short run.
#[test]
fn golden_pin_of_a_resilient_runs_epoch() {
    let pop = Population::generate(&PopulationConfig::small("CD", 400, 7));
    let dist = DataDistribution::build(&pop, DistStrategy::RoundRobin, 2, 7);
    let cfg = SimConfig {
        days: 4,
        r: 0.002,
        seed: 7,
        initial_infections: 6,
        stop_when_extinct: false,
        ..SimConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("episim-codecs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rec = RecoveryConfig::new(&dir);
    run_resilient(
        &dist,
        &flu_model(),
        &cfg,
        &RuntimeConfig::sequential(2),
        &rec,
    )
    .expect("resilient run");
    let store = EpochStore::open(&dir, KEEP_EPOCHS).expect("store");
    let epoch = store.latest_committed(1).expect("a committed epoch");
    let shard = store.load_epoch(epoch, 1).expect("epoch loads").remove(0);
    let mut blobs = vec![shard.meta.clone()];
    blobs.extend(shard.chares.iter().map(|(_, b)| b.clone()));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!((epoch, pin(&blobs)), (4, 0x6a8f_92aa_6cd2_6598));
}
