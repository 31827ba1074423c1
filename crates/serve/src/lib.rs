//! # episerve — simulation-as-a-service over the episim engines
//!
//! The paper's workflow is batch: build a population, pick an engine,
//! run, read the curve. This crate wraps that pipeline in a long-lived
//! control plane (DESIGN.md §12): clients submit typed job specs over
//! localhost TCP, a bounded FIFO+priority queue feeds a worker pool with
//! per-engine concurrency caps, and per-day curve points stream back over
//! subscription connections while jobs run. A pause writes a checkpoint
//! ([`episim_core::checkpoint`]), which is a one-rank recovery epoch in
//! the workspace's one CRC snapshot format, and a resume reads it back
//! through [`episim_core::Simulator::resume_from`]; cancel is the cooperative
//! day-boundary stop ([`episim_core::DayControl`]). The determinism
//! contract survives service-ification: a job's completion event carries
//! the same FNV-1a `curve_hash` a direct run of the same spec produces —
//! including jobs that were paused and resumed mid-flight.
//!
//! Modules:
//! * [`protocol`] — CRC-trailed request/response/event codecs inside the
//!   net engine's length-prefixed frames.
//! * [`job`] — [`job::JobSpec`] and the [`job::JobState`] machine.
//! * [`queue`] — the bounded FIFO+priority scheduler queue.
//! * [`manager`] — registry, transition log, lease protocol, topics.
//! * [`pool`] — worker threads driving the four engines.
//! * `worlds` — the bounded, single-flight world cache every lease takes
//!   its population and partition from.
//! * [`pubsub`] — per-job broadcast with a bounded lagging-subscriber
//!   drop policy.
//! * [`server`] / [`client`] — the TCP front-end and the blocking client.
//! * [`timer`] — the crate's only wall-clock access (simlint R2).

pub mod client;
pub mod job;
pub mod manager;
pub mod pool;
pub mod protocol;
pub mod pubsub;
pub mod queue;
pub mod server;
pub mod timer;
mod worlds;

pub use client::{Client, ClientError, EventStream};
pub use job::{EngineSel, JobId, JobSpec, JobState, Priority, ResourceHints, ScenarioSource};
pub use manager::{EngineCaps, LifecycleError, Manager, SubmitError};
pub use pool::{reference_hash, PoolConfig};
pub use protocol::{Event, ProtoError, Request, Response};
pub use pubsub::{Subscription, Topic};
pub use server::{Server, ServerConfig};
pub use timer::{Deadline, Stopwatch};
pub use worlds::WorldCacheStats;
