//! The episerve wire protocol: CRC-trailed request/response/event payloads
//! inside the same `[len: u32 LE][kind: u8][payload]` frames the net
//! engine uses ([`chare_rt::write_frame`] / [`chare_rt::read_frame`]).
//!
//! Layout (DESIGN.md §12):
//!
//! ```text
//! frame   := [len: u32 LE] [kind: u8] [payload]          (transport framing)
//! payload := [body] [crc32(body): u32 LE]                (this module)
//! body    := [tag: u8] [variant fields, LE]              (one enum variant)
//! ```
//!
//! Frame kinds: [`kind::REQUEST`] (client→server), [`kind::RESPONSE`]
//! (server→client, exactly one per request), [`kind::EVENT`]
//! (server→client on subscription streams).
//!
//! This file is simlint R3-scoped: every malformed input surfaces as a
//! typed [`ProtoError`] — no panic paths — and R5 holds the
//! encode/decode pairs ([`encode_request`]/[`decode_request`],
//! [`encode_response`]/[`decode_response`], [`encode_event`]/
//! [`decode_event`]) in variant lockstep. Decoders read through
//! [`chare_rt::codec`] ([`chare_rt::codec::decode_sealed`]: parse the
//! body, reject trailing bytes, then check the CRC) and reject bad tags.

use crate::job::{EngineSel, JobId, JobSpec, JobState, Priority, ResourceHints, ScenarioSource};
use bytes::{Buf, BufMut, Bytes, BytesMut, TryGetError};
use chare_rt::codec::{self, CodecError};
use episim_core::checkpoint::{get_day, put_day};
use episim_core::DayStats;
use std::fmt;

/// "EPSV" little-endian: the hello magic every connection leads with.
pub const MAGIC: u32 = 0x5653_5045;
/// Protocol version; bumped on any incompatible layout change.
pub const VERSION: u32 = 1;
/// Longest string (job name, DSL text, error message) accepted on the
/// wire; anything larger is malformed by definition.
pub const MAX_STR: usize = 1 << 20;
/// Longest vector (sweep grid, job listing) accepted on the wire.
pub const MAX_VEC: usize = 1 << 16;

/// Frame kinds carried in the transport header.
pub mod kind {
    /// Client → server.
    pub const REQUEST: u8 = 1;
    /// Server → client, one per request.
    pub const RESPONSE: u8 = 2;
    /// Server → client, subscription streams only.
    pub const EVENT: u8 = 3;
}

/// Error codes carried by [`Response::Error`].
pub mod errcode {
    /// The scheduler queue is at capacity.
    pub const QUEUE_FULL: u8 = 1;
    /// No job with that id.
    pub const NO_SUCH_JOB: u8 = 2;
    /// The job's current state does not allow the request
    /// (e.g. pausing a completed job).
    pub const BAD_TRANSITION: u8 = 3;
    /// The spec failed validation (DSL parse error, bad sizing, engine /
    /// source mismatch).
    pub const BAD_SPEC: u8 = 4;
    /// Malformed frame, wrong magic/version, or wrong first request.
    pub const BAD_PROTO: u8 = 5;
    /// The server is shutting down and not accepting work.
    pub const SHUTTING_DOWN: u8 = 6;
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Truncated, CRC mismatch, unknown variant / state / engine tag, or
    /// bytes left over after a complete variant.
    Codec(CodecError),
    /// A length field exceeded [`MAX_STR`] / [`MAX_VEC`].
    TooLong(usize),
    /// A string field was not UTF-8.
    BadUtf8,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Codec(e) => write!(f, "malformed payload: {e}"),
            ProtoError::TooLong(n) => write!(f, "length field {n} exceeds protocol bounds"),
            ProtoError::BadUtf8 => write!(f, "string field is not utf-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::Codec(e)
    }
}

impl From<TryGetError> for ProtoError {
    fn from(e: TryGetError) -> Self {
        CodecError::from(e).into()
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake; must be the first request on every connection.
    Hello {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// Must equal [`VERSION`].
        version: u32,
    },
    /// Queue a job; answered with [`Response::Submitted`].
    Submit {
        /// The job to run.
        spec: JobSpec,
    },
    /// Turn this connection into an event stream for `job` (replays the
    /// curve so far, then follows live until a terminal event).
    Subscribe {
        /// Target job.
        job: JobId,
    },
    /// Request a checkpoint-pause at the next day boundary.
    Pause {
        /// Target job.
        job: JobId,
    },
    /// Re-enqueue a paused job.
    Resume {
        /// Target job.
        job: JobId,
    },
    /// Cancel: dequeue, discard the checkpoint, or cooperatively stop at
    /// the next day boundary, depending on state.
    Cancel {
        /// Target job.
        job: JobId,
    },
    /// One-shot state + progress snapshot.
    Status {
        /// Target job.
        job: JobId,
    },
    /// List every job the server knows.
    List,
    /// Stop accepting work, cancel running jobs, drain, exit.
    Shutdown,
}

/// Server → client replies, exactly one per [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// Server protocol version.
        version: u32,
    },
    /// Job accepted and queued.
    Submitted {
        /// Assigned id.
        job: JobId,
    },
    /// Lifecycle request accepted; `state` is the job's state at the
    /// moment the request was applied (a pause/cancel of a running job
    /// reports `Running` — the transition lands at the next day boundary
    /// and is observable on the event stream).
    Ack {
        /// Target job.
        job: JobId,
        /// State when the request took effect.
        state: JobState,
    },
    /// Status snapshot.
    JobStatus {
        /// Target job.
        job: JobId,
        /// Current state.
        state: JobState,
        /// Days simulated so far (curve length).
        days_done: u32,
    },
    /// Listing.
    Jobs {
        /// `(id, state)` per job, id-ascending.
        jobs: Vec<(JobId, JobState)>,
    },
    /// Request refused; see [`errcode`].
    Error {
        /// Machine-readable code.
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// Acknowledges [`Request::Shutdown`]; the server drains and exits.
    Bye,
}

/// Server → client stream items on a subscription.
///
/// [`Event::Completed`], [`Event::Failed`], and
/// [`Event::State`]`{ state: Cancelled }` are terminal: the server closes
/// the stream after sending one, and the pubsub layer never drops them
/// (only [`Event::Day`] curve points are subject to the lagging-subscriber
/// drop policy, which is surfaced as [`Event::Lagged`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One finished simulation day.
    Day {
        /// Source job.
        job: JobId,
        /// The day's global statistics.
        stats: DayStats,
    },
    /// A lifecycle transition.
    State {
        /// Source job.
        job: JobId,
        /// New state.
        state: JobState,
    },
    /// Terminal success summary.
    Completed {
        /// Source job.
        job: JobId,
        /// Days in the final curve.
        days: u32,
        /// Cumulative infections (seeds included).
        cumulative: u64,
        /// FNV-1a determinism hash of the full curve
        /// ([`episim_core::output::curve_hash`]); bit-identical to a
        /// direct uninterrupted run of the same spec.
        curve_hash: u64,
    },
    /// Terminal failure.
    Failed {
        /// Source job.
        job: JobId,
        /// What went wrong.
        message: String,
    },
    /// The subscriber fell behind and `missed` [`Event::Day`] points were
    /// dropped (oldest first) since the last delivered event.
    Lagged {
        /// Source job.
        job: JobId,
        /// Dropped event count.
        missed: u64,
    },
}

impl Event {
    /// Does this event end the stream?
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Completed { .. }
                | Event::Failed { .. }
                | Event::State {
                    state: JobState::Cancelled,
                    ..
                }
        )
    }
}

// ---------------------------------------------------------------------------
// Shared field codecs.
// ---------------------------------------------------------------------------

fn tag(code: u8) -> ProtoError {
    CodecError::BadTag(code).into()
}

fn put_string(buf: &mut BytesMut, s: &str) {
    codec::put_blob(buf, s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, ProtoError> {
    let raw = codec::get_blob(buf)?;
    if raw.len() > MAX_STR {
        return Err(ProtoError::TooLong(raw.len()));
    }
    String::from_utf8(raw.to_vec()).map_err(|_| ProtoError::BadUtf8)
}

/// A vector's `u32` count, checked against the bytes present for items at
/// least `item_bytes` wide and against [`MAX_VEC`].
fn get_vec_len(buf: &mut &[u8], item_bytes: usize) -> Result<usize, ProtoError> {
    match codec::get_count(buf, item_bytes)? {
        n if n > MAX_VEC => Err(ProtoError::TooLong(n)),
        n => Ok(n),
    }
}

fn put_state(buf: &mut BytesMut, s: JobState) {
    buf.put_u8(s.code());
}

fn get_state(buf: &mut &[u8]) -> Result<JobState, ProtoError> {
    let code = buf.try_get_u8()?;
    JobState::from_code(code).ok_or(tag(code))
}

fn put_spec(buf: &mut BytesMut, spec: &JobSpec) {
    put_string(buf, &spec.name);
    match &spec.source {
        ScenarioSource::Dsl(text) => {
            buf.put_u8(1);
            put_string(buf, text);
        }
        ScenarioSource::Sweep {
            dsl,
            r_values,
            replicates,
            workers,
        } => {
            buf.put_u8(2);
            put_string(buf, dsl);
            buf.put_u32_le(r_values.len() as u32);
            for r in r_values {
                buf.put_u64_le(r.to_bits());
            }
            buf.put_u32_le(*replicates);
            buf.put_u32_le(*workers);
        }
    }
    buf.put_u8(spec.engine.code());
    match spec.seed {
        Some(seed) => {
            buf.put_u8(1);
            buf.put_u64_le(seed);
        }
        None => buf.put_u8(0),
    }
    match spec.days {
        Some(days) => {
            buf.put_u8(1);
            buf.put_u32_le(days);
        }
        None => buf.put_u8(0),
    }
    buf.put_u8(spec.priority.code());
    buf.put_u32_le(spec.hints.pop_size);
    buf.put_u64_le(spec.hints.pop_seed);
    buf.put_u32_le(spec.hints.n_pes);
    buf.put_u32_le(spec.hints.n_partitions);
    buf.put_u32_le(spec.hints.throttle_ms);
}

fn get_spec(buf: &mut &[u8]) -> Result<JobSpec, ProtoError> {
    let name = get_string(buf)?;
    let source = match buf.try_get_u8()? {
        1 => ScenarioSource::Dsl(get_string(buf)?),
        2 => {
            let dsl = get_string(buf)?;
            let n = get_vec_len(buf, 8)?;
            let mut r_values = Vec::with_capacity(n);
            for _ in 0..n {
                r_values.push(buf.try_get_f64_le()?);
            }
            ScenarioSource::Sweep {
                dsl,
                r_values,
                replicates: buf.try_get_u32_le()?,
                workers: buf.try_get_u32_le()?,
            }
        }
        t => return Err(tag(t)),
    };
    let engine_code = buf.try_get_u8()?;
    let engine = EngineSel::from_code(engine_code).ok_or(tag(engine_code))?;
    let seed = match buf.try_get_u8()? {
        0 => None,
        1 => Some(buf.try_get_u64_le()?),
        t => return Err(tag(t)),
    };
    let days = match buf.try_get_u8()? {
        0 => None,
        1 => Some(buf.try_get_u32_le()?),
        t => return Err(tag(t)),
    };
    let prio_code = buf.try_get_u8()?;
    let priority = Priority::from_code(prio_code).ok_or(tag(prio_code))?;
    let hints = ResourceHints {
        pop_size: buf.try_get_u32_le()?,
        pop_seed: buf.try_get_u64_le()?,
        n_pes: buf.try_get_u32_le()?,
        n_partitions: buf.try_get_u32_le()?,
        throttle_ms: buf.try_get_u32_le()?,
    };
    Ok(JobSpec {
        name,
        source,
        engine,
        seed,
        days,
        priority,
        hints,
    })
}

// ---------------------------------------------------------------------------
// Request codec (R5 lockstep: encode_request / decode_request).
// ---------------------------------------------------------------------------

/// Encode a [`Request`] into a CRC-trailed payload.
pub fn encode_request(req: &Request) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match req {
        Request::Hello { magic, version } => {
            buf.put_u8(1);
            buf.put_u32_le(*magic);
            buf.put_u32_le(*version);
        }
        Request::Submit { spec } => {
            buf.put_u8(2);
            put_spec(&mut buf, spec);
        }
        Request::Subscribe { job } => {
            buf.put_u8(3);
            buf.put_u64_le(*job);
        }
        Request::Pause { job } => {
            buf.put_u8(4);
            buf.put_u64_le(*job);
        }
        Request::Resume { job } => {
            buf.put_u8(5);
            buf.put_u64_le(*job);
        }
        Request::Cancel { job } => {
            buf.put_u8(6);
            buf.put_u64_le(*job);
        }
        Request::Status { job } => {
            buf.put_u8(7);
            buf.put_u64_le(*job);
        }
        Request::List => buf.put_u8(8),
        Request::Shutdown => buf.put_u8(9),
    }
    codec::seal(buf)
}

/// Decode a CRC-trailed payload into a [`Request`].
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    codec::decode_sealed(payload, |buf| {
        Ok(match buf.try_get_u8()? {
            1 => Request::Hello {
                magic: buf.try_get_u32_le()?,
                version: buf.try_get_u32_le()?,
            },
            2 => Request::Submit {
                spec: get_spec(buf)?,
            },
            3 => Request::Subscribe {
                job: buf.try_get_u64_le()?,
            },
            4 => Request::Pause {
                job: buf.try_get_u64_le()?,
            },
            5 => Request::Resume {
                job: buf.try_get_u64_le()?,
            },
            6 => Request::Cancel {
                job: buf.try_get_u64_le()?,
            },
            7 => Request::Status {
                job: buf.try_get_u64_le()?,
            },
            8 => Request::List,
            9 => Request::Shutdown,
            t => return Err(tag(t)),
        })
    })
}

// ---------------------------------------------------------------------------
// Response codec (R5 lockstep: encode_response / decode_response).
// ---------------------------------------------------------------------------

/// Encode a [`Response`] into a CRC-trailed payload.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match resp {
        Response::HelloOk { version } => {
            buf.put_u8(1);
            buf.put_u32_le(*version);
        }
        Response::Submitted { job } => {
            buf.put_u8(2);
            buf.put_u64_le(*job);
        }
        Response::Ack { job, state } => {
            buf.put_u8(3);
            buf.put_u64_le(*job);
            put_state(&mut buf, *state);
        }
        Response::JobStatus {
            job,
            state,
            days_done,
        } => {
            buf.put_u8(4);
            buf.put_u64_le(*job);
            put_state(&mut buf, *state);
            buf.put_u32_le(*days_done);
        }
        Response::Jobs { jobs } => {
            buf.put_u8(5);
            buf.put_u32_le(jobs.len() as u32);
            for (job, state) in jobs {
                buf.put_u64_le(*job);
                put_state(&mut buf, *state);
            }
        }
        Response::Error { code, message } => {
            buf.put_u8(6);
            buf.put_u8(*code);
            put_string(&mut buf, message);
        }
        Response::Bye => buf.put_u8(7),
    }
    codec::seal(buf)
}

/// Decode a CRC-trailed payload into a [`Response`].
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    codec::decode_sealed(payload, |buf| {
        Ok(match buf.try_get_u8()? {
            1 => Response::HelloOk {
                version: buf.try_get_u32_le()?,
            },
            2 => Response::Submitted {
                job: buf.try_get_u64_le()?,
            },
            3 => Response::Ack {
                job: buf.try_get_u64_le()?,
                state: get_state(buf)?,
            },
            4 => Response::JobStatus {
                job: buf.try_get_u64_le()?,
                state: get_state(buf)?,
                days_done: buf.try_get_u32_le()?,
            },
            5 => {
                let n = get_vec_len(buf, 9)?;
                let mut jobs = Vec::with_capacity(n);
                for _ in 0..n {
                    let job = buf.try_get_u64_le()?;
                    let state = get_state(buf)?;
                    jobs.push((job, state));
                }
                Response::Jobs { jobs }
            }
            6 => Response::Error {
                code: buf.try_get_u8()?,
                message: get_string(buf)?,
            },
            7 => Response::Bye,
            t => return Err(tag(t)),
        })
    })
}

// ---------------------------------------------------------------------------
// Event codec (R5 lockstep: encode_event / decode_event).
// ---------------------------------------------------------------------------

/// Encode an [`Event`] into a CRC-trailed payload.
pub fn encode_event(ev: &Event) -> Bytes {
    let mut buf = BytesMut::with_capacity(128);
    match ev {
        Event::Day { job, stats } => {
            buf.put_u8(1);
            buf.put_u64_le(*job);
            put_day(&mut buf, stats);
        }
        Event::State { job, state } => {
            buf.put_u8(2);
            buf.put_u64_le(*job);
            put_state(&mut buf, *state);
        }
        Event::Completed {
            job,
            days,
            cumulative,
            curve_hash,
        } => {
            buf.put_u8(3);
            buf.put_u64_le(*job);
            buf.put_u32_le(*days);
            buf.put_u64_le(*cumulative);
            buf.put_u64_le(*curve_hash);
        }
        Event::Failed { job, message } => {
            buf.put_u8(4);
            buf.put_u64_le(*job);
            put_string(&mut buf, message);
        }
        Event::Lagged { job, missed } => {
            buf.put_u8(5);
            buf.put_u64_le(*job);
            buf.put_u64_le(*missed);
        }
    }
    codec::seal(buf)
}

/// Decode a CRC-trailed payload into an [`Event`].
pub fn decode_event(payload: &[u8]) -> Result<Event, ProtoError> {
    codec::decode_sealed(payload, |buf| {
        Ok(match buf.try_get_u8()? {
            1 => Event::Day {
                job: buf.try_get_u64_le()?,
                stats: get_day(buf)?,
            },
            2 => Event::State {
                job: buf.try_get_u64_le()?,
                state: get_state(buf)?,
            },
            3 => Event::Completed {
                job: buf.try_get_u64_le()?,
                days: buf.try_get_u32_le()?,
                cumulative: buf.try_get_u64_le()?,
                curve_hash: buf.try_get_u64_le()?,
            },
            4 => Event::Failed {
                job: buf.try_get_u64_le()?,
                message: get_string(buf)?,
            },
            5 => Event::Lagged {
                job: buf.try_get_u64_le()?,
                missed: buf.try_get_u64_le()?,
            },
            t => return Err(tag(t)),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{EngineSel, JobSpec, JobState, Priority, ScenarioSource};
    use proptest::prelude::*;

    fn sample_specs() -> Vec<JobSpec> {
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

    fn sample_requests() -> Vec<Request> {
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
        for spec in sample_specs() {
            reqs.push(Request::Submit { spec });
        }
        reqs
    }

    fn sample_responses() -> Vec<Response> {
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

    fn sample_events() -> Vec<Event> {
        let stats = DayStats {
            day: 3,
            new_infections: 17,
            infected_now: 40,
            susceptible: 900,
            symptomatic: 11,
            cumulative: 62,
            visits: 4_000,
            events: 9_000,
            interactions: 123,
            infects_sent: 18,
            infections_by_kind: [1, 2, 3, 4, 8],
        };
        vec![
            Event::Day { job: 1, stats },
            Event::State {
                job: 1,
                state: JobState::Paused,
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

    #[test]
    fn requests_roundtrip() {
        for req in sample_requests() {
            let wire = encode_request(&req);
            assert_eq!(decode_request(&wire).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in sample_responses() {
            let wire = encode_response(&resp);
            assert_eq!(decode_response(&wire).unwrap(), resp);
        }
    }

    #[test]
    fn events_roundtrip() {
        for ev in sample_events() {
            let wire = encode_event(&ev);
            assert_eq!(decode_event(&wire).unwrap(), ev);
        }
    }

    #[test]
    fn terminal_classification() {
        let evs = sample_events();
        let terminal: Vec<bool> = evs.iter().map(Event::is_terminal).collect();
        assert_eq!(terminal, [false, false, true, true, false]);
        assert!(Event::State {
            job: 1,
            state: JobState::Cancelled
        }
        .is_terminal());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        // Append garbage *inside* the CRC'd body: rebuild with a valid
        // trailer over body+garbage, so only the Trailing check can catch
        // it.
        let wire = encode_request(&Request::List);
        let body = &wire[..wire.len() - 4];
        let mut padded = body.to_vec();
        padded.push(0xAA);
        let crc = codec::crc32(&padded);
        padded.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_request(&padded),
            Err(ProtoError::Codec(CodecError::Trailing(1)))
        );
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        let mut body = vec![200u8]; // no such request tag
        let crc = codec::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_request(&body),
            Err(ProtoError::Codec(CodecError::BadTag(200)))
        );

        // Bad state code inside an Ack.
        let wire = encode_response(&Response::Ack {
            job: 1,
            state: JobState::Queued,
        });
        let mut bad = wire[..wire.len() - 4].to_vec();
        let last = bad.len() - 1;
        bad[last] = 77; // state code slot
        let crc = codec::crc32(&bad);
        bad.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_response(&bad),
            Err(ProtoError::Codec(CodecError::BadTag(77)))
        );
    }

    proptest! {
        /// Arbitrary payload bytes never panic the decoders (R3 in spirit
        /// and in letter).
        #[test]
        fn decoders_are_total(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_request(&payload);
            let _ = decode_response(&payload);
            let _ = decode_event(&payload);
        }
    }
}
