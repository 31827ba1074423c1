//! The networked multi-process engine.
//!
//! One process per rank: rank 0 (the **root**) is the process the driver
//! started; it spawns the workers (see [`crate::net::launch`]), owns phase
//! control and cross-process completion detection, and merges stats.
//! Every process runs the same SPMD driver code, registers the same chare
//! array, keeps only the chares whose PE falls in its contiguous range,
//! and executes the same compute loop: drain local queues → drain inbound
//! frames → report idle. A message bound for another process leaves at
//! once, as one BATCH frame.
//!
//! Cross-process completion detection composes the local produce/consume
//! idea of [`crate::completion`] with a wire protocol: each process keeps
//! two counters (wire envelopes produced / consumed); the idle root probes
//! all workers with CD_PROBE waves, each worker's compute thread answers a
//! probe once it is idle itself (queues drained, inbound empty), and the
//! root declares the phase complete when two consecutive waves see equal
//! and unchanged Σproduced == Σconsumed. Producers bump
//! `produced` *before* a frame leaves and consumers bump `consumed` only
//! *after* processing, so an in-flight message always shows up as an
//! imbalance. Every reply carries the worker's reductions and counters, so
//! the second matching wave already holds the phase's outcome and one
//! PHASE_RESULT broadcast closes the phase: five serialised control legs
//! per quiet phase. All of it — probes, replies, the close, SHUTDOWN —
//! travels on the plane the link's data uses (the shm ring where there is
//! one, the comm thread's socket otherwise) through one send path
//! ([`NetEngine::send_frame`]) and one receive path
//! ([`NetEngine::on_batch`] / [`NetEngine::on_ctl`]); only heartbeats are
//! always TCP (DESIGN.md §8).
//!
//! Every idle wait — the root collecting a wave, a worker idling or
//! awaiting `PHASE_RESULT`, teardown awaiting `SHUTDOWN` — is one call,
//! `wait_inbound`, through the runtime's shared wait that the threaded
//! engine uses too: poll the rings and the comm thread's channel with a
//! `yield_now` after each miss, then park on the rank's doorbell (on the
//! channel on TCP-only runs). A rank that shares a CPU with the peer it
//! waits for thus hands that peer the CPU instead of spinning it away.

use crate::chare::{Chare, ChareId, Message};
use crate::config::{NetTransport, RuntimeConfig, SmpConfig};
use crate::net::comm::{self, CommHandle, Event};
use crate::net::launch;
use crate::net::shm::{Doorbell, RingConsumer, RingProducer, ShmRegion};
use crate::net::transport::FrameBuf;
use crate::net::wire::{self, Ctl};
use crate::net::TransportError;
use crate::pe::{self, Hop, PeCore};
use crate::stats::{PeStats, PhaseStats, ReductionSlots};
use bytes::Bytes;
use std::collections::VecDeque;
use std::process::Child;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on one idle wait (futex park, or channel wait on TCP-only
/// runs). Progress never depends on it — every ring push rings the bell
/// and the comm thread rings it after every TCP event and every failure —
/// it only bounds how stale the watchdog and failure-flag checks can get.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);
/// Exit code of a worker killed by a [`crate::FaultPlan::proc_kill`]
/// fault.
pub const KILL_EXIT: i32 = 17;
/// Exit code of a worker that shut down *cleanly* after a transport
/// failure (peer loss, root abort). Distinct from 101 (a Rust panic) so
/// the conformance harness can tell an orderly transport-failure exit
/// from a crash.
pub const TRANSPORT_EXIT: i32 = 16;

/// Abort this process on a transport failure.
///
/// Role-dependent on purpose: the **root** carries the failure to the
/// driver as a panic whose payload is a typed [`TransportError`]
/// (harnesses `downcast_ref` it); a **worker** must not panic — its
/// driver is a replayed SPMD copy with nobody above it to catch anything
/// — so it logs and exits with [`TRANSPORT_EXIT`].
fn transport_abort(role: Role, err: TransportError) -> ! {
    eprintln!("[net] {err}");
    if role == Role::Worker {
        std::process::exit(TRANSPORT_EXIT);
    }
    std::panic::panic_any(err);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Rank 0 of a multi-process run: spawns workers, drives CD, merges
    /// stats.
    Root,
    /// A spawned worker at its target invocation.
    Worker,
}

/// Which inter-process links ride the shared-memory rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShmMode {
    /// Every link (the `shm` transport).
    All,
    /// Worker↔worker only; root links stay on TCP (the `mixed` transport,
    /// exercised by conformance to prove the two planes interoperate
    /// mid-run).
    Mixed,
}

impl ShmMode {
    fn env_str(self) -> &'static str {
        match self {
            ShmMode::All => "shm",
            ShmMode::Mixed => "mixed",
        }
    }

    fn link_is_shm(self, a: u32, b: u32) -> bool {
        match self {
            ShmMode::All => true,
            ShmMode::Mixed => a != 0 && b != 0,
        }
    }
}

/// This process's attachments to the shared ring region: a producer toward
/// and a consumer from every shm-linked peer, the peers' doorbells (rung
/// after each push) and our own (futex-parked on when idle).
struct ShmPlane {
    producers: Vec<Option<RingProducer>>,
    consumers: Vec<Option<(RingConsumer, FrameBuf)>>,
    bells: Vec<Option<Doorbell>>,
    my_bell: Doorbell,
}

impl ShmPlane {
    fn build(
        region: &Arc<ShmRegion>,
        mode: ShmMode,
        my_rank: u32,
        n_procs: u32,
    ) -> std::io::Result<ShmPlane> {
        let n = n_procs as usize;
        let mut producers = Vec::with_capacity(n);
        let mut consumers = Vec::with_capacity(n);
        let mut bells = Vec::with_capacity(n);
        for r in 0..n_procs {
            let linked = r != my_rank && mode.link_is_shm(my_rank, r);
            producers.push(if linked {
                Some(RingProducer::attach(region.clone(), my_rank, r)?)
            } else {
                None
            });
            consumers.push(if linked {
                Some((
                    RingConsumer::attach(region.clone(), r, my_rank)?,
                    FrameBuf::default(),
                ))
            } else {
                None
            });
            bells.push(if linked {
                Some(Doorbell::attach(region.clone(), r)?)
            } else {
                None
            });
        }
        let my_bell = Doorbell::attach(region.clone(), my_rank)?;
        Ok(ShmPlane {
            producers,
            consumers,
            bells,
            my_bell,
        })
    }

    /// Any ring holding undelivered bytes? Cheap (one Acquire load per
    /// peer) — this is what an idle wait polls.
    fn has_inbound(&self) -> bool {
        self.consumers
            .iter()
            .flatten()
            .any(|(c, _)| c.pending() > 0)
    }
}

/// The effective transport: the `ChareNetTransport` env override applies
/// when [`RuntimeConfig`] leaves the choice at [`NetTransport::Auto`]; a
/// config that *forces* a plane keeps it (the transport-matrix tests rely
/// on that meaning under CI's env matrix). Only the root consults it —
/// workers follow the inherited region fd, so both sides always agree.
fn resolve_transport(cfg: &RuntimeConfig) -> NetTransport {
    if cfg.net.transport != NetTransport::Auto {
        return cfg.net.transport;
    }
    std::env::var("ChareNetTransport")
        .ok()
        .as_deref()
        .and_then(NetTransport::parse)
        .unwrap_or(NetTransport::Auto)
}

/// A worker's newest CD reply of the current phase, as the root holds it.
struct CdReply {
    wave: u64,
    produced: u64,
    consumed: u64,
    reductions: ReductionSlots,
    per_pe: Vec<(u32, PeStats)>,
}

/// A queued envelope; `wire` marks cross-process origin (its processing
/// bumps the consumed counter).
struct Queued<M> {
    to: ChareId,
    msg: M,
    wire: bool,
}

/// The networked engine (one per process; see module docs).
pub struct NetEngine<M: Message> {
    cfg: RuntimeConfig,
    role: Role,
    rank: u32,
    /// First PE owned by this process; `queues[i]` is PE `pe_lo + i`'s.
    pe_lo: u32,
    /// This process's PEs, their chares and counters.
    core: PeCore<M>,
    queues: Vec<VecDeque<Queued<M>>>,
    phase: u64,
    map_hash: Option<u64>,
    /// Envelopes that arrived tagged one phase ahead, held until we enter
    /// that phase.
    pending: Vec<(ChareId, M)>,
    comm: CommHandle<M>,
    children: Vec<Child>,
    /// Exit codes of reaped workers, indexed `rank - 1` (root only, filled
    /// by teardown; `None` = still running when force-killed or unknown).
    child_exits: Vec<Option<i32>>,
    kill_phase: Option<u64>,
    /// Fault injection: `(phase, ms)` at which this worker goes silent
    /// (comm + compute both sleep; sockets stay open).
    stall_at: Option<(u64, u64)>,
    /// Recovery snapshots committed so far (cumulative; bumped by the
    /// resilient driver via [`Self::note_checkpoint`]).
    recovery_checkpoints: u64,
    /// State rebuilds from a committed epoch so far (cumulative).
    recovery_restores: u64,
    /// Wire envelopes this process produced this phase; bumped *before*
    /// the frame leaves (the CD soundness invariant).
    produced: u64,
    /// Wire envelopes this process consumed this phase; bumped only
    /// *after* the receiving chare ran.
    consumed: u64,
    /// Worker: the newest CD probe not answered yet, as `(phase, wave)`.
    /// Answered from the compute loop the next time it is idle in `phase`.
    probe: Option<(u64, u64)>,
    /// Root: every worker's newest CD reply of this phase, by `rank - 1`.
    replies: Vec<Option<CdReply>>,
    /// Worker: the current phase's closing frame, once it arrived.
    result: Option<PhaseStats>,
    /// Teardown began: only SHUTDOWN still matters to the receive path.
    shut_down: bool,
    /// Worker: SHUTDOWN arrived.
    shutdown_seen: bool,
    /// Shared-memory plane (None on TCP-only runs).
    shm: Option<ShmPlane>,
    /// Frames pushed into rings since the last stats harvest.
    shm_frames_sent: u64,
    /// Futex parks taken by the compute thread since the last harvest.
    shm_parks: u64,
}

impl<M: Message> NetEngine<M> {
    /// Build the engine: decide this process's role, wire the socket mesh,
    /// spawn the comm thread. `None` when this process has no peers — one
    /// process in all, or a worker replaying an earlier invocation of its
    /// driver to stay in step with it: the caller then runs the sequential
    /// engine with every PE in one process, which is what a networked run
    /// without a network is. Every call draws an invocation index.
    pub fn new(cfg: RuntimeConfig) -> Option<Self> {
        assert!(cfg.net.n_procs >= 1, "need at least one process");
        assert!(
            cfg.n_pes.is_multiple_of(cfg.net.n_procs),
            "n_pes ({}) must divide evenly over n_procs ({})",
            cfg.n_pes,
            cfg.net.n_procs
        );
        let invocation = launch::next_invocation();
        let (role, rank, kill_phase, wenv) = match launch::worker_env() {
            Some(env) if env.target == invocation => {
                (Role::Worker, env.rank, env.kill_phase, Some(env))
            }
            Some(env) => {
                assert!(
                    env.target > invocation,
                    "worker rank {} ran past its target invocation ({invocation} > {})",
                    env.rank,
                    env.target
                );
                return None;
            }
            None if cfg.net.n_procs <= 1 => return None,
            None => (Role::Root, 0, None, None),
        };
        let stall_at = wenv.as_ref().and_then(|e| e.stall);
        // A process is an SMP process: local sends are intra, the rest
        // cross the wire.
        let ppp = cfg.n_pes / cfg.net.n_procs;
        let cfg = RuntimeConfig {
            smp: SmpConfig {
                pes_per_process: ppp,
            },
            ..cfg
        };
        let pe_lo = rank * ppp;
        // Heartbeats are symmetric config: every comm thread answers them,
        // but only the root's (rank 0) originates probes and classifies.
        let hb = (cfg.net.heartbeat_interval_ms > 0).then(|| comm::HeartbeatCfg {
            interval: Duration::from_millis(cfg.net.heartbeat_interval_ms as u64),
            timeout: Duration::from_millis(cfg.net.heartbeat_timeout_ms as u64),
        });
        let spawn_comm = move |rank: u32, sockets, bell: Option<Doorbell>| {
            comm::spawn::<M>(rank, sockets, bell, hb).unwrap_or_else(|e| {
                transport_abort(
                    role,
                    TransportError(format!("comm thread spawn failed: {e}")),
                )
            })
        };
        let shm_fail = |e: std::io::Error| -> ! {
            transport_abort(role, TransportError(format!("shm attach failed: {e}")))
        };
        let (comm, children, shm) = match role {
            Role::Root => {
                // The root is transport-authoritative: it resolves config +
                // env override here, and workers simply follow the region
                // fd it passes (or doesn't) down the exec.
                let transport = resolve_transport(&cfg);
                let mode = match transport {
                    NetTransport::Mixed => ShmMode::Mixed,
                    _ => ShmMode::All,
                };
                let region = match transport {
                    NetTransport::Tcp => None,
                    t => {
                        match ShmRegion::create(cfg.net.n_procs, cfg.net.shm_ring_bytes, invocation)
                        {
                            Ok(r) => Some(r),
                            Err(e) if t == NetTransport::Auto => {
                                eprintln!("[net] shm transport unavailable ({e}); using tcp");
                                None
                            }
                            Err(e) => transport_abort(
                                role,
                                TransportError(format!(
                                    "shm transport requested but unavailable: {e}"
                                )),
                            ),
                        }
                    }
                };
                let shm_env = region.as_ref().map(|r| (r.fd(), mode.env_str()));
                let (sockets, children) = launch::spawn_mesh_root(&cfg, invocation, shm_env)
                    .unwrap_or_else(|e| {
                        transport_abort(role, TransportError(format!("launch failed: {e}")))
                    });
                // Workers inherited the fd across their exec; re-arm
                // close-on-exec so no later spawn leaks the region.
                if let Some(r) = &region {
                    let _ = r.set_cloexec();
                }
                let plane = region.map(|r| {
                    ShmPlane::build(&r, mode, 0, cfg.net.n_procs).unwrap_or_else(|e| shm_fail(e))
                });
                let bell = plane.as_ref().map(|p| p.my_bell.clone());
                (spawn_comm(0, sockets, bell), children, plane)
            }
            Role::Worker => {
                let env = wenv.expect("worker role implies worker env");
                let plane = env.shm_fd.map(|fd| {
                    // `from_fd` validates magic/shape/invocation, so a stale
                    // fd inherited from an unrelated run dies loudly here
                    // instead of corrupting frames later.
                    let region = ShmRegion::from_fd(fd, invocation).unwrap_or_else(|e| shm_fail(e));
                    let mode = if env.shm_mixed {
                        ShmMode::Mixed
                    } else {
                        ShmMode::All
                    };
                    ShmPlane::build(&region, mode, env.rank, cfg.net.n_procs)
                        .unwrap_or_else(|e| shm_fail(e))
                });
                let sockets = launch::connect_mesh_worker(&env, &cfg).unwrap_or_else(|e| {
                    transport_abort(role, TransportError(format!("mesh setup failed: {e}")))
                });
                let bell = plane.as_ref().map(|p| p.my_bell.clone());
                (spawn_comm(rank, sockets, bell), Vec::new(), plane)
            }
        };
        Some(NetEngine {
            core: PeCore::new(&cfg, pe_lo..pe_lo + ppp),
            cfg,
            role,
            rank,
            pe_lo,
            queues: (0..ppp).map(|_| VecDeque::new()).collect(),
            phase: 0,
            map_hash: None,
            pending: Vec::new(),
            children,
            child_exits: Vec::new(),
            kill_phase,
            stall_at,
            recovery_checkpoints: 0,
            recovery_restores: 0,
            produced: 0,
            consumed: 0,
            probe: None,
            replies: Vec::new(),
            result: None,
            shut_down: false,
            shutdown_seen: false,
            shm,
            shm_frames_sent: 0,
            shm_parks: 0,
            comm,
        })
    }

    /// Register a chare. Every SPMD process registers the *full* array;
    /// only locally-owned chares are kept, the rest contribute their PE to
    /// the routing map.
    pub fn add_chare(&mut self, id: ChareId, pe: u32, chare: Box<dyn Chare<M>>) {
        self.core.add(id, pe, chare);
    }

    /// Abort with a typed [`TransportError`] (root panics with it as the
    /// payload; a worker exits with [`TRANSPORT_EXIT`]).
    fn transport_fail(&self, err: TransportError) -> ! {
        transport_abort(self.role, err)
    }

    fn comm_failed(&self) -> bool {
        self.comm.shared.failure().is_some()
    }

    fn fail_if_poisoned(&self) {
        if let Some(err) = self.comm.shared.failure() {
            self.transport_fail(err);
        }
    }

    fn deadline(&self) -> Option<Instant> {
        (self.cfg.watchdog_secs > 0)
            // simlint: allow(R2) -- hang watchdog arming; never feeds simulation state
            .then(|| Instant::now() + Duration::from_secs(u64::from(self.cfg.watchdog_secs)))
    }

    fn check_deadline(&self, deadline: Option<Instant>, state: &str) {
        if let Some(d) = deadline {
            // simlint: allow(R2) -- hang watchdog check; aborts the run, never feeds results
            if Instant::now() > d {
                panic!(
                    "net watchdog: rank {} stuck in phase {} ({state}) after {}s \
                     [produced={} consumed={}]",
                    self.rank, self.phase, self.cfg.watchdog_secs, self.produced, self.consumed
                );
            }
        }
    }

    /// Send one frame to `dst` on the plane its link uses: pushed into the
    /// SPSC ring (and the peer's doorbell rung) on a shm link, handed to
    /// the comm thread's socket otherwise — or when the frame is larger
    /// than the ring accepts (one oversized envelope). Data and control
    /// share this path, so a link's frames arrive in the order they were
    /// sent.
    fn send_frame(&mut self, dst: u32, kind: u8, payload: Bytes) {
        let d = dst as usize;
        let on_ring = self
            .shm
            .as_ref()
            .and_then(|plane| plane.producers[d].as_ref())
            .is_some_and(|p| payload.len() + 5 <= p.max_frame());
        if !on_ring {
            self.comm.send(dst, kind, payload);
            return;
        }
        let mut plane = self.shm.take().expect("on_ring implies a plane");
        let mut tries = 0u32;
        while !plane.producers[d]
            .as_ref()
            .is_some_and(|p| p.try_push(kind, &payload))
        {
            // Ring full: drain our own inbound rings while retrying so two
            // mutually-full peers cannot deadlock (each side's consumer
            // frees the other's producer). A peer that died with its ring
            // full never frees it; the comm thread's failure flag ends
            // that wait. Yield, not spin: the peer that frees the ring
            // may be queued on this CPU.
            self.drain_plane(&mut plane);
            tries = tries.wrapping_add(1);
            if tries.is_multiple_of(1024) {
                self.fail_if_poisoned();
            }
            std::thread::yield_now();
        }
        if let Some(bell) = &plane.bells[d] {
            bell.ring();
        }
        self.shm = Some(plane);
        self.shm_frames_sent += 1;
    }

    fn send_ctl(&mut self, dst: u32, ctl: &Ctl) {
        let (kind, payload) = ctl.encode();
        self.send_frame(dst, kind, payload);
    }

    fn broadcast(&mut self, ctl: &Ctl) {
        let (kind, payload) = ctl.encode();
        for r in 1..self.cfg.net.n_procs {
            self.send_frame(r, kind, payload.clone());
        }
    }

    // ------------------------------------------------------------------
    // Routing and execution
    // ------------------------------------------------------------------

    fn route(&mut self, src_pe: u32, to: ChareId, msg: M) {
        let (dst_pe, hop) = self.core.count_send(src_pe, to, &msg);
        if hop != Hop::Remote {
            self.queues[(dst_pe - self.pe_lo) as usize].push_back(Queued {
                to,
                msg,
                wire: false,
            });
            return;
        }
        // `produced` goes up before the frame leaves the compute thread:
        // the CD soundness invariant.
        self.produced += 1;
        let payload = wire::encode_batch(self.phase, to, &msg);
        self.send_frame(self.cfg.smp.process_of(dst_pe), wire::kind::BATCH, payload);
    }

    /// Drain every inbound ring of `plane` (the plane is passed explicitly
    /// so [`Self::send_frame`]'s backpressure loop can drain while holding
    /// it). Returns whether current-phase work arrived.
    fn drain_plane(&mut self, plane: &mut ShmPlane) -> bool {
        let mut worked = false;
        for src in 0..plane.consumers.len() {
            let Some((cons, fb)) = plane.consumers[src].as_mut() else {
                continue;
            };
            let polled = match fb.poll(cons) {
                Ok(p) => p,
                Err(e) => self.transport_fail(TransportError(format!(
                    "shm ring from rank {src} corrupt: {e}"
                ))),
            };
            for (kind, payload) in polled.frames {
                worked |= self.on_ring_frame(src as u32, kind, &payload);
            }
        }
        worked
    }

    /// Poll the shm plane (no-op on TCP-only runs). Returns whether
    /// current-phase work arrived.
    fn poll_rings(&mut self) -> bool {
        let Some(mut plane) = self.shm.take() else {
            return false;
        };
        let worked = self.drain_plane(&mut plane);
        self.shm = Some(plane);
        worked
    }

    /// One frame lifted off a ring: decoded here (the comm thread does the
    /// same for socket frames) and handed to the shared receive path.
    fn on_ring_frame(&mut self, src: u32, kind: u8, payload: &[u8]) -> bool {
        if kind == wire::kind::BATCH {
            let Some((phase, to, msg)) = wire::decode_batch::<M>(payload) else {
                self.transport_fail(TransportError(format!(
                    "malformed BATCH on shm ring from rank {src}"
                )))
            };
            return self.on_batch(phase, to, msg);
        }
        match Ctl::decode(kind, payload) {
            Some(ctl) => self.on_ctl(ctl),
            None => self.transport_fail(TransportError(format!(
                "malformed frame of kind {kind} on shm ring from rank {src}"
            ))),
        }
        false
    }

    /// One event from the comm thread, through the same receive path as a
    /// ring frame. Returns whether current-phase work was enqueued.
    fn on_event(&mut self, ev: Event<M>) -> bool {
        match ev {
            Event::Batch { phase, to, msg } => self.on_batch(phase, to, msg),
            Event::Ctl(ctl) => {
                self.on_ctl(ctl);
                false
            }
            // The root closes its sockets as it leaves — during teardown,
            // or right behind the last phase's PHASE_RESULT, which on a
            // shm link overtakes the socket's EOF. With the closing frame
            // in hand the phase still completes; the failure flag stays
            // set for whoever runs next.
            Event::TransportError(_) if self.shut_down || self.result.is_some() => false,
            Event::TransportError(e) => self.transport_fail(e),
        }
    }

    /// A decoded envelope, from either plane: the current phase's is
    /// enqueued (returns `true`), the next phase's is stashed until we
    /// enter it, anything else is a protocol error.
    fn on_batch(&mut self, phase: u64, to: ChareId, msg: M) -> bool {
        if phase == self.phase {
            self.enqueue_wire(to, msg);
            true
        } else if phase == self.phase + 1 {
            self.pending.push((to, msg));
            false
        } else {
            panic!(
                "net protocol error: batch for phase {phase} while rank {} is in {}",
                self.rank, self.phase
            );
        }
    }

    /// A decoded phase-protocol frame, from either plane. Nothing here
    /// sends: a probe is only recorded — [`Self::answer_probe`] replies
    /// from the compute loop once this process is idle — so the receive
    /// path may run inside [`Self::send_frame`]'s backpressure loop.
    fn on_ctl(&mut self, ctl: Ctl) {
        // SHUTDOWN can sit right behind the last PHASE_RESULT and be lifted
        // in the same drain; teardown then finds it already seen (and
        // `worker_phase` treats it as an abort if another phase starts).
        let is_shutdown = matches!(ctl, Ctl::Shutdown);
        if self.shut_down || (is_shutdown && self.result.is_some()) {
            self.shutdown_seen |= is_shutdown;
            return;
        }
        match (self.role, ctl) {
            (
                Role::Worker,
                Ctl::CdProbe {
                    phase,
                    wave,
                    n_chares,
                    map_hash,
                },
            ) => {
                assert!(
                    n_chares as usize == self.core.map().len() && Some(map_hash) == self.map_hash,
                    "rank {} built a different chare topology than the root \
                     ({} chares, map hash {:#x} vs root's {} / {:#x}) — SPMD replay diverged",
                    self.rank,
                    self.core.map().len(),
                    self.map_hash.unwrap_or(0),
                    n_chares,
                    map_hash
                );
                // The root may be one phase ahead of a worker whose
                // PHASE_RESULT took the other plane; never behind it.
                assert!(
                    phase == self.phase || phase == self.phase + 1,
                    "rank {} is in phase {} but the root probed {phase} — SPMD drivers diverged",
                    self.rank,
                    self.phase
                );
                if self.probe.is_none_or(|held| held < (phase, wave)) {
                    self.probe = Some((phase, wave));
                }
            }
            (
                Role::Root,
                Ctl::CdReply {
                    rank,
                    phase,
                    wave,
                    produced,
                    consumed,
                    reductions,
                    per_pe,
                },
            ) => {
                // A reply of a closed phase can only trail in when its
                // wave was abandoned and it took the other plane.
                if phase != self.phase {
                    return;
                }
                let Some(slot) = (rank as usize)
                    .checked_sub(1)
                    .and_then(|i| self.replies.get_mut(i))
                else {
                    self.transport_fail(TransportError(format!(
                        "CD_REPLY from unknown rank {rank}"
                    )))
                };
                if slot.as_ref().is_none_or(|held| held.wave < wave) {
                    *slot = Some(CdReply {
                        wave,
                        produced,
                        consumed,
                        reductions,
                        per_pe,
                    });
                }
            }
            (
                Role::Worker,
                Ctl::PhaseResult {
                    phase,
                    reductions,
                    per_pe,
                },
            ) => {
                assert_eq!(
                    phase, self.phase,
                    "rank {} is in phase {} but the root closed {phase} — SPMD drivers diverged",
                    self.rank, self.phase
                );
                self.result = Some(PhaseStats { per_pe, reductions });
            }
            (Role::Worker, Ctl::Shutdown) => {
                // The root aborted (e.g. its transport failed after
                // another worker died): leave cleanly, not by a crash.
                self.transport_fail(TransportError(format!(
                    "root shut down while rank {} was in phase {} — treating as root abort",
                    self.rank, self.phase
                )))
            }
            (_, other) => self.transport_fail(TransportError(format!(
                "unexpected frame kind {} on rank {} in phase {}",
                other.encode().0,
                self.rank,
                self.phase
            ))),
        }
    }

    fn comm_has_event(&self) -> bool {
        !self.comm.in_rx.is_empty()
    }

    fn process_one(&mut self, lp: usize, q: Queued<M>) {
        let pe = self.pe_lo + lp as u32;
        self.core.execute(pe, q.to, q.msg);
        if q.wire {
            self.consumed += 1;
        }
        while let Some((to, msg)) = self.core.pop_sent() {
            self.route(pe, to, msg);
        }
    }

    fn enqueue_wire(&mut self, to: ChareId, msg: M) {
        let dst_pe = self.core.pe_of(to);
        self.queues[(dst_pe - self.pe_lo) as usize].push_back(Queued {
            to,
            msg,
            wire: true,
        });
    }

    /// One round-robin pass over the local queues. Returns whether any
    /// message was processed.
    fn drain_queues(&mut self) -> bool {
        pe::round_robin(self, |e| &mut e.queues, Self::process_one)
    }

    /// Move the envelopes stashed for this phase (they arrived tagged one
    /// phase ahead, so this is all of them) into the queues.
    fn adopt_pending(&mut self) {
        for (to, msg) in std::mem::take(&mut self.pending) {
            self.enqueue_wire(to, msg);
        }
    }

    fn inject(&mut self, injections: Vec<(ChareId, M)>) {
        for (to, msg) in injections {
            let dst_pe = self.core.pe_of(to);
            if self.core.holds(dst_pe) {
                self.queues[(dst_pe - self.pe_lo) as usize].push_back(Queued {
                    to,
                    msg,
                    wire: false,
                });
            }
            // Non-local injections are dropped here: the owning process's
            // SPMD driver passes the identical list and injects them
            // itself, so nothing is lost and nothing crosses the wire.
        }
    }

    // ------------------------------------------------------------------
    // Phase loop
    // ------------------------------------------------------------------

    /// Run a phase of stages, each a wire phase of its own.
    pub fn run_stages(&mut self, stages: Vec<Vec<(ChareId, M)>>) -> Vec<PhaseStats> {
        stages.into_iter().map(|s| self.wire_phase(s)).collect()
    }

    /// Run one wire phase to global completion.
    fn wire_phase(&mut self, injections: Vec<(ChareId, M)>) -> PhaseStats {
        self.phase += 1;
        self.core.begin_phase();
        if self.map_hash.is_none() {
            self.map_hash = Some(wire::map_hash(self.core.map()));
        }
        self.produced = 0;
        self.consumed = 0;
        match self.role {
            Role::Root => self.root_phase(injections),
            Role::Worker => self.worker_phase(injections),
        }
    }

    fn root_phase(&mut self, injections: Vec<(ChareId, M)>) -> PhaseStats {
        let deadline = self.deadline();
        self.replies.clear();
        self.replies
            .resize_with(self.cfg.net.n_procs as usize - 1, || None);
        self.adopt_pending();
        self.inject(injections);
        self.root_compute_loop(deadline);
        // Two matching quiet waves: nothing ran anywhere after the second
        // wave's replies were cut, so the counters they carry are final.
        let mut per_pe = vec![PeStats::default(); self.cfg.n_pes as usize];
        for (pe, st) in self.harvest() {
            per_pe[pe as usize] = st;
        }
        let mut reductions = self.core.reductions().clone();
        for reply in self.replies.drain(..).flatten() {
            reductions.merge(&reply.reductions);
            for (pe, st) in reply.per_pe {
                match per_pe.get_mut(pe as usize) {
                    Some(slot) => *slot = st,
                    None => transport_abort(
                        self.role,
                        TransportError(format!("CD_REPLY carries stats for unknown PE {pe}")),
                    ),
                }
            }
        }
        let result = PhaseStats { per_pe, reductions };
        self.broadcast(&Ctl::PhaseResult {
            phase: self.phase,
            reductions: result.reductions.clone(),
            per_pe: result.per_pe.clone(),
        });
        result
    }

    /// The root's compute + CD loop: work while there is work, probe the
    /// workers while idle, return once two consecutive waves agree the
    /// system is quiet.
    fn root_compute_loop(&mut self, deadline: Option<Instant>) {
        let mut wave = 0u64;
        let mut snapshot: Option<(u64, u64)> = None;
        loop {
            self.fail_if_poisoned();
            self.check_deadline(deadline, "completion detection");
            let mut worked = self.drain_queues();
            worked |= self.drain_inbound();
            if worked {
                snapshot = None;
                continue;
            }
            // Idle: probe wave.
            wave += 1;
            self.broadcast(&Ctl::CdProbe {
                phase: self.phase,
                wave,
                n_chares: self.core.map().len() as u32,
                map_hash: self.map_hash.expect("set at phase entry"),
            });
            match self.collect_wave(wave, deadline) {
                None => {
                    // Work arrived mid-wave; abandon it.
                    snapshot = None;
                }
                Some((sum_p, sum_c)) => {
                    let totals = (sum_p + self.produced, sum_c + self.consumed);
                    if totals.0 != totals.1 {
                        snapshot = None;
                    } else if snapshot == Some(totals) {
                        return; // two matching waves: globally quiet
                    } else {
                        snapshot = Some(totals);
                    }
                }
            }
        }
    }

    /// Wait until every worker answered `wave` — each does so once it is
    /// idle. Returns `None` if local work arrived meanwhile (the wave is
    /// abandoned), else the workers' summed produced/consumed counters.
    fn collect_wave(&mut self, wave: u64, deadline: Option<Instant>) -> Option<(u64, u64)> {
        loop {
            self.fail_if_poisoned();
            self.check_deadline(deadline, "waiting for CD replies");
            if self.drain_inbound() {
                return None;
            }
            if self
                .replies
                .iter()
                .all(|r| r.as_ref().is_some_and(|r| r.wave == wave))
            {
                let replies = self.replies.iter().flatten();
                return Some(replies.fold((0, 0), |(p, c), r| (p + r.produced, c + r.consumed)));
            }
            if self.wait_inbound() {
                return None;
            }
        }
    }

    /// Drain inbound frames (rings first, then the comm thread's channel)
    /// without blocking. Returns whether current-phase work was enqueued.
    fn drain_inbound(&mut self) -> bool {
        let mut worked = self.poll_rings();
        while let Ok(ev) = self.comm.in_rx.try_recv() {
            worked |= self.on_event(ev);
        }
        worked
    }

    /// Wait until something may have arrived, through the runtime's one
    /// idle wait ([`pe::poll_then_park`]). With the shm plane active: poll
    /// both sources, then futex-park on our doorbell — remote producers
    /// ring it after every push and our comm thread after every TCP event.
    /// Without it, poll the comm thread's channel, then block on it, and
    /// run the one event received through [`Self::on_event`]; returns
    /// whether that enqueued current-phase work.
    fn wait_inbound(&mut self) -> bool {
        if let Some(plane) = &self.shm {
            let ready = || plane.has_inbound() || self.comm_has_event();
            let parked = pe::poll_then_park(
                || ready().then_some(false),
                || {
                    // Snapshot seq, then re-check both sources: a push in
                    // between bumps seq and aborts the park.
                    let seen = plane.my_bell.read_seq();
                    !ready() && plane.my_bell.park(seen, PARK_TIMEOUT)
                },
            );
            self.shm_parks += u64::from(parked);
            return false;
        }
        let rx = &self.comm.in_rx;
        match pe::poll_then_park(
            || rx.try_recv().ok().map(Some),
            || rx.recv_timeout(PARK_TIMEOUT).ok(),
        ) {
            Some(ev) => self.on_event(ev),
            None => false,
        }
    }

    fn worker_phase(&mut self, injections: Vec<(ChareId, M)>) -> PhaseStats {
        let deadline = self.deadline();
        if self.shutdown_seen {
            // SHUTDOWN was lifted together with the previous phase's
            // closing frame and taken for the orderly end of the run; a
            // driver that starts another phase proves it was an abort.
            self.transport_fail(TransportError(format!(
                "root shut down before rank {} entered phase {} — treating as root abort",
                self.rank, self.phase
            )));
        }
        if self.kill_phase == Some(self.phase) {
            // Fault injection: die abruptly, mid-protocol, so the root's
            // transport — not a wrong curve — reports the loss.
            eprintln!(
                "[net] rank {} killing itself at phase {} (fault injection)",
                self.rank, self.phase
            );
            std::process::exit(KILL_EXIT);
        }
        if let Some((phase, ms)) = self.stall_at {
            if phase == self.phase {
                // Fault injection: go silent without dying. The comm
                // thread sleeps the same window, so no probe, heartbeat,
                // or batch is answered — indistinguishable from SIGSTOP,
                // which is exactly what the stalled-peer detector must
                // classify.
                self.stall_at = None;
                eprintln!(
                    "[net] rank {} stalling {ms}ms at phase {} (fault injection)",
                    self.rank, self.phase
                );
                self.comm.shared.stall_ms.store(ms, Ordering::SeqCst);
                self.comm.wake();
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        // No barrier at phase entry: a worker starts on its own share at
        // once, batches from peers that entered earlier are already
        // stashed, and the topology check rides on the root's probes.
        self.adopt_pending();
        self.inject(injections);
        loop {
            let mut worked = self.drain_queues();
            worked |= self.drain_inbound();
            // A closing frame already here outranks the failure flag: the
            // root may drop its sockets right behind the last one.
            if let Some(result) = self.result.take() {
                return result;
            }
            self.fail_if_poisoned();
            self.check_deadline(deadline, "worker compute loop");
            if worked {
                continue;
            }
            // Idle: queues drained, inbound empty. This is
            // the only state a probe is answered from, so a busy worker
            // costs the root one late reply instead of a stream of
            // not-idle waves.
            self.answer_probe();
            self.wait_inbound();
        }
    }

    /// Answer the newest probe of the current phase, if one is waiting.
    /// Called only when idle; the reply carries the reductions and
    /// counters so far — final if this wave turns out to close the phase.
    fn answer_probe(&mut self) {
        let Some((phase, wave)) = self.probe.filter(|&(p, _)| p == self.phase) else {
            return;
        };
        self.probe = None;
        let reply = Ctl::CdReply {
            rank: self.rank,
            phase,
            wave,
            produced: self.produced,
            consumed: self.consumed,
            per_pe: self.harvest(),
            reductions: self.core.reductions().clone(),
        };
        self.send_ctl(0, &reply);
    }

    /// Fold the process-level counters — the comm thread's wire counters,
    /// ring frames, parks — into the first local PE's stats (DESIGN.md §8
    /// documents the attribution) and return this process's
    /// `(global pe, counters)` pairs. The sources are drained, not read:
    /// a phase may harvest several times (once per CD reply), and whatever
    /// happens after its last harvest is counted in the next phase
    /// instead of nowhere.
    fn harvest(&mut self) -> Vec<(u32, PeStats)> {
        let st = self.core.stats_mut(self.pe_lo);
        let sh = &self.comm.shared;
        st.wire_frames_sent += sh.frames_sent.swap(0, Ordering::SeqCst);
        st.wire_frames_recv += sh.frames_recv.swap(0, Ordering::SeqCst);
        st.wire_bytes_sent += sh.bytes_sent.swap(0, Ordering::SeqCst);
        st.wire_bytes_recv += sh.bytes_recv.swap(0, Ordering::SeqCst);
        st.shm_frames_sent += std::mem::take(&mut self.shm_frames_sent);
        st.shm_parks += std::mem::take(&mut self.shm_parks);
        // Cumulative levels, not per-phase counts.
        st.recovery_checkpoints = self.recovery_checkpoints;
        st.recovery_restores = self.recovery_restores;
        self.core.per_pe()
    }

    // ------------------------------------------------------------------
    // Recovery hooks (consumed by the resilient driver in `core`)
    // ------------------------------------------------------------------

    /// This process's rank (0 for the root).
    pub fn net_rank(&self) -> u32 {
        self.rank
    }

    /// The PEs this process hosts.
    pub fn local_pes(&self) -> std::ops::Range<u32> {
        self.pe_lo..self.pe_lo + self.queues.len() as u32
    }

    /// Serialize every locally-owned chare that opts into checkpointing
    /// (`Chare::snapshot` returning `Some`), as `(chare id, bytes)` pairs.
    /// Only meaningful between phases, when the system is quiescent.
    pub fn snapshot_chares(&self) -> Vec<(u32, Vec<u8>)> {
        self.core.snapshot()
    }

    /// Record that a recovery snapshot was committed (feeds the
    /// `recovery_checkpoints` stat).
    pub fn note_checkpoint(&mut self) {
        self.recovery_checkpoints += 1;
    }

    /// Record that state was rebuilt from a committed epoch (feeds the
    /// `recovery_restores` stat).
    pub fn note_restore(&mut self) {
        self.recovery_restores += 1;
    }

    // ------------------------------------------------------------------
    // Teardown
    // ------------------------------------------------------------------

    /// Orderly teardown. On the root: broadcast SHUTDOWN, reap workers.
    /// On a worker: wait for SHUTDOWN, then **exit the process** — an SPMD
    /// worker must never outlive its run and go on executing driver code.
    fn teardown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        match self.role {
            Role::Root => {
                let failed = self.comm_failed();
                for r in 1..self.cfg.net.n_procs {
                    if failed {
                        // A dead worker never drains its ring, and a full
                        // ring would hold this thread forever; survivors
                        // treat SHUTDOWN as a root abort on either plane.
                        let (kind, payload) = Ctl::Shutdown.encode();
                        self.comm.send(r, kind, payload);
                    } else {
                        self.send_ctl(r, &Ctl::Shutdown);
                    }
                }
                self.comm.shared.stop.store(true, Ordering::SeqCst);
                self.comm.wake();
                if let Some(join) = self.comm.join.take() {
                    let _ = join.join();
                }
                // After a transport failure the dead worker will never
                // answer SHUTDOWN — don't make the recovery driver's
                // retry loop pay the full orderly-teardown grace for it.
                let grace = Duration::from_secs(if failed { 1 } else { 10 });
                let started = Instant::now(); // simlint: allow(R2) -- teardown reaping timeout, after all simulation output is final
                self.child_exits = self
                    .children
                    .iter_mut()
                    .map(|child| loop {
                        match child.try_wait() {
                            Ok(Some(status)) => break status.code(),
                            Ok(None) if started.elapsed() > grace => {
                                let _ = child.kill();
                                break child.wait().ok().and_then(|s| s.code());
                            }
                            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                            Err(_) => break None,
                        }
                    })
                    .collect();
            }
            Role::Worker => {
                if std::thread::panicking() {
                    // Let the panic surface (stderr is inherited); the
                    // process dies with the test harness and the root sees
                    // the EOF.
                    self.comm.shared.stop.store(true, Ordering::SeqCst);
                    return;
                }
                // Wait for the root's SHUTDOWN (bounded), then leave. It
                // arrives on the root link's plane, behind the last
                // PHASE_RESULT; a failure recorded meanwhile (the root's
                // sockets closing) ends the wait just the same.
                // simlint: allow(R2) -- bounded teardown wait, post-simulation
                let started = Instant::now();
                while !self.shutdown_seen && started.elapsed() < Duration::from_secs(10) {
                    self.drain_inbound();
                    if self.comm_failed() {
                        break;
                    }
                    self.wait_inbound();
                }
                self.comm.shared.stop.store(true, Ordering::SeqCst);
                self.comm.wake();
                std::process::exit(0);
            }
        }
    }

    /// Tear down and return the locally-owned chares (the root's share in
    /// a multi-process run; workers exit inside). `Simulator::dismantle`
    /// and other full-array reclamation is therefore unsupported under the
    /// net engine — use it only for result extraction on single-process
    /// configurations.
    pub fn into_chares(mut self) -> Vec<(ChareId, Box<dyn Chare<M>>)> {
        self.teardown();
        self.core.take_chares()
    }

    /// Tear down (if not already done) and return every worker's exit
    /// code, indexed `rank - 1`. Root only — empty on workers. The fault-injection tests use this to assert that
    /// a killed worker exited with [`KILL_EXIT`] while every *survivor*
    /// shut down cleanly with [`TRANSPORT_EXIT`] rather than panicking.
    pub fn reap_workers(&mut self) -> Vec<Option<i32>> {
        self.teardown();
        self.child_exits.clone()
    }
}

impl<M: Message> Drop for NetEngine<M> {
    fn drop(&mut self) {
        self.teardown();
    }
}
