//! The networked multi-process engine (`ExecMode::Net`).
//!
//! Maps the paper's Blue Waters deployment shape onto one host: one
//! OS process per "node", each owning a contiguous PE range, a dedicated
//! comm thread per process owning the socket set (the SMP comm-thread
//! design of §III), one BATCH frame per cross-process message (the
//! application has already aggregated, §IV-C), and root-coordinated
//! cross-process completion detection (§IV-B) layered over per-process
//! counters.
//!
//! Layout:
//! - [`wire`] — frame kinds, little-endian control/batch codecs
//! - [`transport`] — length-prefixed framing, vectored flushes, reassembly
//! - [`shm`] — same-host shared-memory SPSC rings + futex doorbells
//! - [`comm`] — the per-process comm thread and its shared state
//! - [`launch`] — SPMD self-exec launcher, mesh wiring, shm inheritance
//! - [`engine`] — [`NetEngine`], the phase loop itself
//! - [`recovery`] — CRC-framed epoch snapshots (a checkpoint is the
//!   one-rank case), the on-disk epoch store, the one durable file
//!   write, and the jittered backoff shared by reconnects and respawns
//!   (§10)
//!
//! Two transports coexist (DESIGN.md §8): loopback TCP (always present;
//! carries mesh setup and heartbeats, and everything on links without a
//! ring) and the shared-memory ring transport (BATCH frames and the phase
//! protocol, compute thread to compute thread, selected per
//! [`crate::NetTransport`]). Liveness is a TCP property in both cases, so
//! worker exit codes and the [`TransportError`] surface are
//! transport-independent.
//!
//! ## The SPMD contract
//!
//! Chares are not serializable, so worker processes are spawned by
//! re-executing the current binary: every process runs the *same* driver
//! code, builds the *same* chare array, and keeps only its share. The
//! engine validates this (chare count + placement-map hash in every
//! CD_PROBE) and fails loudly on divergence. Phase results are
//! all-reduced, so every process observes identical [`crate::stats::PhaseStats`]
//! and inter-phase driver decisions stay in lockstep.
//!
//! Test drivers that must not run their expensive body in worker
//! processes more than once use [`worker_target`] / [`align_to_invocation`]
//! to skip unrelated work while keeping runtime-invocation counts aligned.

pub mod comm;
pub mod engine;
pub mod launch;
pub mod recovery;
pub mod shm;
pub mod transport;
pub mod wire;

pub use engine::{NetEngine, KILL_EXIT, TRANSPORT_EXIT};
pub use launch::{align_to_invocation, worker_target};
pub use recovery::{commit_file, Backoff, EpochStore, RecoveryError, RecoverySnapshot};
pub use transport::{read_frame, write_frame, write_frames, FrameBuf, Polled, MAX_FRAME};

/// A transport-layer failure: a peer disconnected, a frame failed to
/// decode, or the socket mesh could not be established.
///
/// This is the *typed* failure surface of the net engine (simlint rule
/// R3): the comm thread records it in [`comm::CommShared`], the root
/// surfaces it as a panic payload of exactly this type (so harnesses can
/// `downcast_ref::<TransportError>()` and distinguish a clean transport
/// failure from an arbitrary crash), and workers exit with
/// [`TRANSPORT_EXIT`] instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError(pub String);

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "net transport error: {}", self.0)
    }
}

impl std::error::Error for TransportError {}
