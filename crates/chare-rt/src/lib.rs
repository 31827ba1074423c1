//! # chare-rt — a Charm++-style message-driven runtime
//!
//! EpiSimdemics is "implemented in a parallel language called CHARM++ …
//! accompanied by a message-driven asynchronous runtime. The underlying idea
//! is to over-decompose the computation … into smaller units called chares
//! … and to let the runtime then assign a set of work units to each physical
//! processor" (paper §II-C). No Charm++ exists for Rust, so this crate is a
//! from-scratch runtime with the same execution semantics and the §IV
//! optimizations that belong to a runtime:
//!
//! * **Chare arrays** ([`chare`]): application objects addressed by dense
//!   ids, mapped to processing elements (PEs) by an arbitrary assignment.
//! * **SMP mode** ([`config::SmpConfig`]): PEs are grouped into OS-process
//!   analogues; intra-process sends are direct memory handoffs,
//!   inter-process sends pay the network path and are accounted
//!   separately. The net engine gives each process a dedicated
//!   communication thread (§IV-A).
//! * **Completion detection** ([`completion`]): the 4-counter two-wave
//!   produce/consume algorithm Charm++ exposes as CD (§IV-B), staged: one
//!   phase ([`runtime::Runtime::run_stages`]) can hold several stages, each
//!   delivered once the stages before it are complete.
//!
//! Message aggregation (§IV-C) is the application's: it knows which items
//! travel together and batches them into one message, and every engine
//! passes each message on at once. [`config::AggregationConfig`] is the
//! switch the application reads.
//!
//! Four interchangeable engines run the same application code: a
//! deterministic sequential engine ([`seq`]) that simulates any number of
//! PEs on one thread (and measures per-PE busy time, which the
//! `scale-model` crate consumes), a threaded engine ([`threads`]) using
//! real OS threads with crossbeam channels, and a virtual-time
//! deterministic-simulation-testing engine ([`vt`]) that replays arbitrary
//! delivery interleavings from a seed and injects transport faults
//! ([`faults`]), and a networked multi-process engine ([`net`]) that runs
//! one OS process per node, exchanging frames over shared-memory rings
//! (loopback TCP where there are none) with a dedicated comm thread per
//! process; a net runtime without peers is the sequential engine. The
//! engines differ only in delivery: what a PE does with a message once it
//! is there — the chare table, the timed entry-method call, the send
//! count — exists once, in `pe`. Applications built on
//! [`runtime::Runtime`] produce identical results under every engine and
//! every benign fault plan; the conformance suites in this crate and in
//! `episim-core` rely on that.

pub mod chare;
pub mod codec;
pub mod completion;
pub mod config;
pub mod faults;
pub mod net;
mod pe;
pub mod runtime;
pub mod seq;
pub mod stats;
#[cfg(test)]
mod testkit;
pub mod threads;
pub mod vt;

pub use chare::{Chare, ChareId, Ctx, Message};
pub use config::{AggregationConfig, ExecMode, NetConfig, NetTransport, RuntimeConfig, SmpConfig};
pub use faults::{FaultPlan, FaultRng, PacketFate, PlanFaults};
pub use net::{
    align_to_invocation, commit_file, read_frame, worker_target, write_frame, write_frames,
    Backoff, EpochStore, FrameBuf, NetEngine, Polled, RecoveryError, RecoverySnapshot,
    TransportError, KILL_EXIT, MAX_FRAME, TRANSPORT_EXIT,
};
pub use runtime::Runtime;
pub use stats::{PeStats, PhaseStats};
pub use vt::VtEngine;
