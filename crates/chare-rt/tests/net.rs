//! Multi-process integration tests for the networked engine.
//!
//! Any test here that configures `n_procs > 1` re-executes this very test
//! binary, filtered to the same test, to create its worker processes (see
//! `chare_rt::net::launch`). The test body therefore runs once per
//! process and must stay SPMD-deterministic: every process takes the same
//! branches and builds the same chare array.

use bytes::{Buf, BufMut, BytesMut};
use chare_rt::{
    Chare, ChareId, Ctx, FaultPlan, Message, NetTransport, Runtime, RuntimeConfig, TransportError,
    KILL_EXIT, TRANSPORT_EXIT,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hop {
    remaining: u32,
    payload: u64,
}

impl Message for Hop {
    fn wire_encode(&self, out: &mut BytesMut) {
        out.put_u32_le(self.remaining);
        out.put_u64_le(self.payload);
    }

    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        if buf.remaining() < 12 {
            return None;
        }
        Some(Hop {
            remaining: buf.get_u32_le(),
            payload: buf.get_u64_le(),
        })
    }
}

/// Accumulates payloads and forwards around a ring — the same workload
/// the in-process engine suites use, so results are directly comparable.
struct Acc {
    next: ChareId,
    sum: u64,
}

impl Chare<Hop> for Acc {
    fn receive(&mut self, msg: Hop, ctx: &mut Ctx<'_, Hop>) {
        self.sum += msg.payload;
        ctx.contribute(0, msg.payload);
        if msg.remaining > 0 {
            ctx.send(
                self.next,
                Hop {
                    remaining: msg.remaining - 1,
                    payload: msg.payload + 1,
                },
            );
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

const N_CHARES: u32 = 12;

fn build(cfg: RuntimeConfig) -> Runtime<Hop> {
    let mut rt = Runtime::new(cfg);
    for i in 0..N_CHARES {
        rt.add_chare(
            ChareId(i),
            i % cfg.n_pes,
            Box::new(Acc {
                next: ChareId((i + 1) % N_CHARES),
                sum: 0,
            }),
        );
    }
    rt
}

/// Run three phases of ring traffic and fingerprint the per-phase
/// reductions and processed counts.
fn run_phases(cfg: RuntimeConfig) -> Vec<(u64, u64)> {
    let mut rt = build(cfg);
    (0..3u32)
        .map(|phase| {
            let stats = rt.run_phase(vec![(
                ChareId(phase % N_CHARES),
                Hop {
                    remaining: 40 + phase,
                    payload: 1,
                },
            )]);
            (stats.reduction(0), stats.totals().processed)
        })
        .collect()
}

#[test]
fn net_single_process_matches_sequential() {
    let reference = run_phases(RuntimeConfig::sequential(4));
    assert_eq!(run_phases(RuntimeConfig::net(4, 1)), reference);
}

#[test]
fn net_two_processes_match_sequential() {
    let reference = run_phases(RuntimeConfig::sequential(4));
    assert_eq!(run_phases(RuntimeConfig::net(4, 2)), reference);
}

#[test]
fn net_wire_counters_account_for_cross_process_traffic() {
    // Forced TCP: on a shm link nothing but heartbeats touches a socket.
    let mut cfg = RuntimeConfig::net(4, 2);
    cfg.net.transport = NetTransport::Tcp;
    let mut rt = build(cfg);
    let stats = rt.run_phase(vec![(
        ChareId(0),
        Hop {
            remaining: 60,
            payload: 1,
        },
    )]);
    let totals = stats.totals();
    // A 12-chare ring over 4 PEs in 2 processes crosses the process
    // boundary on every wrap, so messages must actually hit the wire —
    // and both directions of every socket are counted somewhere.
    assert!(totals.sent_remote > 0, "ring must cross processes");
    assert!(totals.wire_frames_sent > 0, "messages must hit the wire");
    assert!(totals.wire_frames_recv > 0);
    assert!(totals.wire_bytes_sent > totals.wire_frames_sent);
    assert_eq!(
        totals.network_packets, totals.sent_remote,
        "every remote message leaves at once as one frame"
    );
    // Chares survive teardown on the root (workers exit inside).
    let chares = rt.into_chares();
    assert!(!chares.is_empty());
}

#[test]
fn net_killed_worker_surfaces_transport_error() {
    let mut cfg = RuntimeConfig::net(4, 2);
    cfg.faults = FaultPlan::proc_kill(0, 1, 2);
    let mut rt = build(cfg);
    rt.run_phase(vec![(
        ChareId(0),
        Hop {
            remaining: 20,
            payload: 1,
        },
    )]);
    // Phase 2: rank 1 kills itself on entry; the root must fail loudly
    // with a *typed* transport error rather than hang, crash with an
    // arbitrary panic, or return a short curve.
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run_phase(vec![(
            ChareId(0),
            Hop {
                remaining: 20,
                payload: 1,
            },
        )])
    }))
    .expect_err("losing a worker must not look like success");
    let te = err
        .downcast_ref::<TransportError>()
        .expect("panic payload must be a typed TransportError");
    assert!(
        te.0.contains("disconnected") || te.0.contains("failed"),
        "error should describe the peer loss, got: {te}"
    );
}

/// Four processes, rank 2 killed: the root panics with a typed
/// `TransportError`, the killed worker exits with `KILL_EXIT`, and — the
/// part that regresses easily — both *surviving* workers shut down
/// cleanly with `TRANSPORT_EXIT` instead of panicking (exit 101).
#[test]
fn net_killed_worker_survivors_exit_cleanly() {
    let mut cfg = RuntimeConfig::net(4, 4);
    cfg.faults = FaultPlan::proc_kill(0, 2, 2);
    let mut rt = build(cfg);
    rt.run_phase(vec![(
        ChareId(0),
        Hop {
            remaining: 20,
            payload: 1,
        },
    )]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run_phase(vec![(
            ChareId(0),
            Hop {
                remaining: 20,
                payload: 1,
            },
        )])
    }))
    .expect_err("losing a worker must not look like success");
    assert!(
        err.downcast_ref::<TransportError>().is_some(),
        "root panic payload must be a typed TransportError"
    );
    // Reap the children the catch_unwind kept alive (Drop has not run).
    let exits = rt.reap_workers();
    assert_eq!(exits.len(), 3, "three workers were spawned");
    assert_eq!(exits[1], Some(KILL_EXIT), "rank 2 died by fault injection");
    for (i, code) in exits.iter().enumerate() {
        if i != 1 {
            assert_eq!(
                *code,
                Some(TRANSPORT_EXIT),
                "surviving rank {} must exit cleanly on root abort, not panic",
                i + 1
            );
        }
    }
}

// ---------------------------------------------------------------------
// Transport-matrix tests: the same workload must be bit-identical no
// matter which data plane carries the batches, and the plane that was
// asked for must actually be the one used.
// ---------------------------------------------------------------------

#[test]
fn net_forced_tcp_matches_sequential_and_skips_rings() {
    let reference = run_phases(RuntimeConfig::sequential(4));
    let mut cfg = RuntimeConfig::net(4, 2);
    cfg.net.transport = NetTransport::Tcp;
    assert_eq!(run_phases(cfg), reference);

    let mut cfg = RuntimeConfig::net(4, 2);
    cfg.net.transport = NetTransport::Tcp;
    let mut rt = build(cfg);
    let stats = rt.run_phase(vec![(
        ChareId(0),
        Hop {
            remaining: 40,
            payload: 1,
        },
    )]);
    let totals = stats.totals();
    assert!(totals.sent_remote > 0, "ring must cross processes");
    assert_eq!(
        totals.shm_frames_sent, 0,
        "forced tcp must never touch the rings"
    );
}

#[test]
fn net_forced_shm_matches_sequential_and_uses_rings() {
    let reference = run_phases(RuntimeConfig::sequential(4));
    let mut cfg = RuntimeConfig::net(4, 2);
    cfg.net.transport = NetTransport::Shm;
    assert_eq!(run_phases(cfg), reference);

    let mut cfg = RuntimeConfig::net(4, 2);
    cfg.net.transport = NetTransport::Shm;
    let mut rt = build(cfg);
    let stats = rt.run_phase(vec![(
        ChareId(0),
        Hop {
            remaining: 40,
            payload: 1,
        },
    )]);
    let totals = stats.totals();
    assert!(totals.sent_remote > 0, "ring must cross processes");
    assert!(
        totals.shm_frames_sent > 0,
        "forced shm must push batches through the rings"
    );
}

/// `mixed` keeps root links on TCP while worker↔worker links ride the
/// rings — both planes are live in the same phase, so this doubles as the
/// mid-run-interleaving conformance case.
#[test]
fn net_mixed_transport_matches_sequential() {
    let reference = run_phases(RuntimeConfig::sequential(8));
    let mut cfg = RuntimeConfig::net(8, 4);
    cfg.net.transport = NetTransport::Mixed;
    assert_eq!(run_phases(cfg), reference);
}

/// A killed worker must produce the same exit-code triple on the TCP
/// plane as on the (default) shm plane: liveness is a TCP property in
/// both, so the fault surface is transport-independent.
#[test]
fn net_killed_worker_exit_codes_forced_tcp() {
    let mut cfg = RuntimeConfig::net(4, 4);
    cfg.net.transport = NetTransport::Tcp;
    cfg.faults = FaultPlan::proc_kill(0, 2, 2);
    let mut rt = build(cfg);
    rt.run_phase(vec![(
        ChareId(0),
        Hop {
            remaining: 20,
            payload: 1,
        },
    )]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run_phase(vec![(
            ChareId(0),
            Hop {
                remaining: 20,
                payload: 1,
            },
        )])
    }))
    .expect_err("losing a worker must not look like success");
    assert!(err.downcast_ref::<TransportError>().is_some());
    let exits = rt.reap_workers();
    assert_eq!(exits[1], Some(KILL_EXIT));
    for (i, code) in exits.iter().enumerate() {
        if i != 1 {
            assert_eq!(*code, Some(TRANSPORT_EXIT));
        }
    }
}

/// Peer death on the shm plane: a worker killed mid-phase may leave a
/// torn frame in its outbound rings, but liveness travels over the comm
/// threads' sockets, so the root must still surface `TransportError` and the
/// exit-code triple must match the TCP plane's (kill=17, survivors=16).
/// The rings' torn prefix is simply never yielded (FrameBuf buffers it).
#[test]
fn net_killed_worker_exit_codes_forced_shm() {
    let mut cfg = RuntimeConfig::net(4, 4);
    cfg.net.transport = NetTransport::Shm;
    cfg.faults = FaultPlan::proc_kill(0, 2, 2);
    let mut rt = build(cfg);
    rt.run_phase(vec![(
        ChareId(0),
        Hop {
            remaining: 20,
            payload: 1,
        },
    )]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run_phase(vec![(
            ChareId(0),
            Hop {
                remaining: 20,
                payload: 1,
            },
        )])
    }))
    .expect_err("losing a worker must not look like success");
    assert!(err.downcast_ref::<TransportError>().is_some());
    let exits = rt.reap_workers();
    assert_eq!(exits[1], Some(KILL_EXIT));
    for (i, code) in exits.iter().enumerate() {
        if i != 1 {
            assert_eq!(*code, Some(TRANSPORT_EXIT));
        }
    }
}

/// A stalled worker (process alive, threads descheduled — the
/// SIGSTOP-equivalent) produces no socket EOF, so only the heartbeat
/// detector can catch it, and the abort must *name* the classification:
/// "stalled", not a generic disconnect.
#[test]
fn net_stalled_worker_classified_by_heartbeat() {
    let mut cfg = RuntimeConfig::net(4, 2);
    cfg.net.heartbeat_interval_ms = 50;
    cfg.net.heartbeat_timeout_ms = 500;
    cfg.faults = FaultPlan::proc_stall(7, 1, 2, 3_000);
    let mut rt = build(cfg);
    rt.run_phase(vec![(
        ChareId(0),
        Hop {
            remaining: 20,
            payload: 1,
        },
    )]);
    // Phase 2: rank 1 goes silent for 3s with its sockets open; the
    // detector must declare it stalled within the 500ms timeout.
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run_phase(vec![(
            ChareId(0),
            Hop {
                remaining: 20,
                payload: 1,
            },
        )])
    }))
    .expect_err("a stalled worker must not look like success");
    let te = err
        .downcast_ref::<TransportError>()
        .expect("panic payload must be a typed TransportError");
    assert!(
        te.0.contains("stalled"),
        "detector must classify the silence as a stall, got: {te}"
    );
}

/// Count live-or-zombie children of this process whose state is `Z`
/// (exited but not waited on) by scanning `/proc`.
fn zombie_children() -> usize {
    let me = std::process::id();
    std::fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| {
            let Ok(name) = e.file_name().into_string() else {
                return false;
            };
            if name.parse::<u32>().is_err() {
                return false;
            }
            let Ok(stat) = std::fs::read_to_string(e.path().join("stat")) else {
                return false;
            };
            // Layout: `pid (comm) state ppid ...` — comm may hold spaces,
            // so split from the closing paren.
            let Some(rest) = stat.rsplit(')').next() else {
                return false;
            };
            let mut fields = rest.split_whitespace();
            let state = fields.next();
            let ppid = fields.next().and_then(|p| p.parse::<u32>().ok());
            state == Some("Z") && ppid == Some(me)
        })
        .count()
}

/// After a mid-run worker kill, tearing the runtime down must `wait()`
/// every child: no zombie processes may outlive the reap. One runtime
/// per test — a worker replays earlier net constructions standalone,
/// where the kill never fires, so a multi-runtime kill test would panic
/// in the worker. (Other tests in this binary run concurrently and may
/// have momentarily-unreaped children, so only a *persistent* zombie
/// fails.)
fn assert_no_zombies_after_kill(transport: NetTransport) {
    let mut cfg = RuntimeConfig::net(4, 4);
    cfg.net.transport = transport;
    cfg.faults = FaultPlan::proc_kill(0, 2, 2);
    let mut rt = build(cfg);
    rt.run_phase(vec![(
        ChareId(0),
        Hop {
            remaining: 20,
            payload: 1,
        },
    )]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run_phase(vec![(
            ChareId(0),
            Hop {
                remaining: 20,
                payload: 1,
            },
        )])
    }))
    .expect_err("losing a worker must not look like success");
    assert!(err.downcast_ref::<TransportError>().is_some());
    let exits = rt.reap_workers();
    assert_eq!(exits.len(), 3, "all three workers must be accounted for");
    let mut zombies = zombie_children();
    for _ in 0..40 {
        if zombies == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        zombies = zombie_children();
    }
    assert_eq!(
        zombies, 0,
        "reap must leave no zombie children ({transport:?} plane)"
    );
}

#[test]
fn net_reap_leaves_no_zombies_after_worker_kill_tcp() {
    assert_no_zombies_after_kill(NetTransport::Tcp);
}

#[test]
fn net_reap_leaves_no_zombies_after_worker_kill_shm() {
    assert_no_zombies_after_kill(NetTransport::Shm);
}

// ---------------------------------------------------------------------
// Control plane: completion detection and the phase close travel on the
// link's own plane, probes are answered by the compute thread, and the
// close is fused into the CD replies. Each property is pinned under
// forced tcp, forced shm and mixed.
// ---------------------------------------------------------------------

/// Spends `busy_ms` in its entry method, then sends one message on.
struct Slow {
    next: ChareId,
    busy_ms: u64,
}

impl Chare<Hop> for Slow {
    fn receive(&mut self, msg: Hop, ctx: &mut Ctx<'_, Hop>) {
        std::thread::sleep(std::time::Duration::from_millis(self.busy_ms));
        ctx.contribute(0, msg.payload);
        ctx.send(
            self.next,
            Hop {
                remaining: 0,
                payload: msg.payload + 1,
            },
        );
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

fn sink(next: u32) -> Box<Acc> {
    Box::new(Acc {
        next: ChareId(next),
        sum: 0,
    })
}

fn two_procs(transport: NetTransport) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::net(2, 2);
    cfg.net.transport = transport;
    cfg
}

/// Busy-worker soundness. The root has nothing to do and probes at once;
/// the worker's chare is inside a 25 ms entry method and only then sends
/// its one remote message. The phase must not close before the root
/// consumed that message — and because the compute thread answers probes
/// when it is idle, the wait costs the root a handful of frames, where a
/// comm thread answering "not idle" was probed some hundred times.
fn busy_worker_is_waited_for(transport: NetTransport) {
    let mut rt: Runtime<Hop> = Runtime::new(two_procs(transport));
    rt.add_chare(ChareId(0), 0, sink(0));
    rt.add_chare(
        ChareId(1),
        1,
        Box::new(Slow {
            next: ChareId(0),
            busy_ms: 25,
        }),
    );
    for phase in 0..2 {
        let stats = rt.run_phase(vec![(
            ChareId(1),
            Hop {
                remaining: 0,
                payload: 10,
            },
        )]);
        let totals = stats.totals();
        assert_eq!(totals.processed, 2, "phase {phase}: both entry methods ran");
        assert_eq!(
            stats.reduction(0),
            10 + 11,
            "phase {phase}: the late message's contribution is in the reduction"
        );
        assert_eq!(totals.sent_remote, 1);
        let frames = totals.wire_frames_sent + totals.shm_frames_sent;
        assert!(
            frames <= 16,
            "phase {phase}: {frames} frames sent — the root must wait for one late reply, \
             not stream probe waves at a busy worker"
        );
    }
}

#[test]
fn net_busy_worker_is_waited_for_tcp() {
    busy_worker_is_waited_for(NetTransport::Tcp);
}

#[test]
fn net_busy_worker_is_waited_for_shm() {
    busy_worker_is_waited_for(NetTransport::Shm);
}

#[test]
fn net_busy_worker_is_waited_for_mixed() {
    busy_worker_is_waited_for(NetTransport::Mixed);
}

/// Hop budget. With no remote traffic a phase is two probe waves and one
/// closing frame: per worker 2 × CD_PROBE out, 2 × CD_REPLY back, then
/// PHASE_RESULT. Counters travel *in* the replies, so a frame sent after
/// the sender last cut its counters — the worker's second reply, the
/// root's PHASE_RESULT — is counted in the next phase: 3 frames sent in
/// the first phase, 5 in every later one (4 and 5 received). On a shm link
/// all of them travel on the ring and no socket carries anything
/// (heartbeats are off here).
fn quiet_phase_takes_two_waves(transport: NetTransport) {
    let mut rt: Runtime<Hop> = Runtime::new(two_procs(transport));
    rt.add_chare(ChareId(0), 0, sink(0));
    rt.add_chare(ChareId(1), 1, sink(1));
    let quiet = || {
        (0..2)
            .map(|c| {
                (
                    ChareId(c),
                    Hop {
                        remaining: 0,
                        payload: 1,
                    },
                )
            })
            .collect::<Vec<_>>()
    };
    let on_ring = transport == NetTransport::Shm;
    for (phase, (sent, recv)) in [(3u64, 4u64), (5, 5), (5, 5)].into_iter().enumerate() {
        let totals = rt.run_phase(quiet()).totals();
        assert_eq!(totals.processed, 2);
        assert_eq!(totals.sent_remote, 0, "the workload must stay local");
        let (ring, sock_out, sock_in) = if on_ring {
            (sent, 0, 0)
        } else {
            (0, sent, recv)
        };
        assert_eq!(totals.shm_frames_sent, ring, "phase {phase}: ring frames");
        assert_eq!(
            totals.wire_frames_sent, sock_out,
            "phase {phase}: socket frames"
        );
        assert_eq!(
            totals.wire_frames_recv, sock_in,
            "phase {phase}: socket frames in"
        );
    }
    // SHUTDOWN follows the last PHASE_RESULT down the same link, and the
    // root's sockets close right behind both: the worker must still leave
    // through the orderly exit, not the transport-failure one.
    assert_eq!(rt.reap_workers(), vec![Some(0)]);
}

#[test]
fn net_quiet_phase_takes_two_waves_tcp() {
    quiet_phase_takes_two_waves(NetTransport::Tcp);
}

#[test]
fn net_quiet_phase_takes_two_waves_shm() {
    quiet_phase_takes_two_waves(NetTransport::Shm);
}

/// Two processes have only a root link, which `mixed` keeps on TCP.
#[test]
fn net_quiet_phase_takes_two_waves_mixed() {
    quiet_phase_takes_two_waves(NetTransport::Mixed);
}

#[derive(Clone, Copy)]
enum Fault {
    Kill,
    Stall,
}

/// Failure while the root is parked waiting for a CD reply. The root has
/// no work, so from the start of phase 2 it sits in its idle wait — on
/// its doorbell under shm/mixed, on the comm channel under tcp — and the
/// reply it waits for never comes. The comm thread's failure (socket EOF
/// for a kill, heartbeat silence for a stall) must wake it: the panic
/// payload is the typed `TransportError`, and it surfaces within the
/// heartbeat timeout (plus scheduling slack), long before the watchdog.
fn failure_wakes_a_parked_root(transport: NetTransport, fault: Fault) {
    const TIMEOUT_MS: u32 = 400;
    let mut cfg = two_procs(transport);
    cfg.watchdog_secs = 60;
    cfg.net.heartbeat_interval_ms = 50;
    cfg.net.heartbeat_timeout_ms = TIMEOUT_MS;
    match fault {
        Fault::Kill => cfg.faults = FaultPlan::proc_kill(0, 1, 2),
        Fault::Stall => cfg.faults = FaultPlan::proc_stall(7, 1, 2, 5_000),
    }
    let mut rt: Runtime<Hop> = Runtime::new(cfg);
    rt.add_chare(ChareId(0), 0, sink(0));
    rt.add_chare(ChareId(1), 1, sink(1));
    let inject = || {
        vec![(
            ChareId(1),
            Hop {
                remaining: 0,
                payload: 1,
            },
        )]
    };
    rt.run_phase(inject());
    let started = std::time::Instant::now(); // simlint: allow(R2) -- test-only detection-latency bound, never feeds the DES
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.run_phase(inject())))
        .expect_err("a lost worker must not look like success");
    let took = started.elapsed();
    let te = err
        .downcast_ref::<TransportError>()
        .expect("panic payload must be a typed TransportError, not the watchdog's message");
    match fault {
        Fault::Kill => assert!(
            te.0.contains("disconnected") || te.0.contains("failed"),
            "error should describe the peer loss, got: {te}"
        ),
        Fault::Stall => assert!(
            te.0.contains("stalled"),
            "detector must classify the silence as a stall, got: {te}"
        ),
    }
    assert!(
        took < std::time::Duration::from_millis(u64::from(TIMEOUT_MS) + 1_500),
        "the parked root took {took:?} to notice"
    );
}

#[test]
fn net_kill_wakes_a_parked_root_tcp() {
    failure_wakes_a_parked_root(NetTransport::Tcp, Fault::Kill);
}

#[test]
fn net_kill_wakes_a_parked_root_shm() {
    failure_wakes_a_parked_root(NetTransport::Shm, Fault::Kill);
}

#[test]
fn net_kill_wakes_a_parked_root_mixed() {
    failure_wakes_a_parked_root(NetTransport::Mixed, Fault::Kill);
}

#[test]
fn net_stall_wakes_a_parked_root_tcp() {
    failure_wakes_a_parked_root(NetTransport::Tcp, Fault::Stall);
}

#[test]
fn net_stall_wakes_a_parked_root_shm() {
    failure_wakes_a_parked_root(NetTransport::Shm, Fault::Stall);
}

#[test]
fn net_stall_wakes_a_parked_root_mixed() {
    failure_wakes_a_parked_root(NetTransport::Mixed, Fault::Stall);
}

/// A message of any size: a length-prefixed byte string on the wire.
#[derive(Debug)]
struct Blob(Vec<u8>);

impl Message for Blob {
    fn wire_encode(&self, out: &mut BytesMut) {
        out.put_u32_le(self.0.len() as u32);
        out.put_slice(&self.0);
    }

    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        if buf.remaining() < 4 {
            return None;
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return None;
        }
        let (head, tail) = buf.split_at(len);
        *buf = tail;
        Some(Blob(head.to_vec()))
    }
}

/// Passes every blob on to `to`.
struct Relay {
    to: ChareId,
}

impl Chare<Blob> for Relay {
    fn receive(&mut self, msg: Blob, ctx: &mut Ctx<'_, Blob>) {
        ctx.send(self.to, msg);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Counts blobs (slot 1) and their bytes (slot 0).
struct Tally;

impl Chare<Blob> for Tally {
    fn receive(&mut self, msg: Blob, ctx: &mut Ctx<'_, Blob>) {
        ctx.contribute(0, msg.0.len() as u64);
        ctx.contribute(1, 1);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// An envelope larger than a ring frame (half the ring) cannot ride the
/// shm plane, so that one BATCH frame falls back to the link's socket
/// while the small ones around it stay on the ring: everything arrives,
/// in the phase it was sent.
#[test]
fn net_oversized_envelope_falls_back_to_the_socket() {
    const SIZES: [usize; 3] = [16, 4000, 16]; // frames take at most 2 KiB
    let mut cfg = RuntimeConfig::net(2, 2);
    cfg.net.transport = NetTransport::Shm;
    cfg.net.shm_ring_bytes = 4096;
    let mut rt: Runtime<Blob> = Runtime::new(cfg);
    rt.add_chare(ChareId(0), 0, Box::new(Relay { to: ChareId(1) }));
    rt.add_chare(ChareId(1), 1, Box::new(Tally));
    for phase in 0..2 {
        let blobs = SIZES.map(|n| (ChareId(0), Blob(vec![7; n])));
        let stats = rt.run_phase(blobs.into());
        let totals = stats.totals();
        assert_eq!(stats.reduction(1), 3, "phase {phase}: every blob arrived");
        assert_eq!(stats.reduction(0), SIZES.iter().sum::<usize>() as u64);
        assert_eq!(totals.network_packets, 3, "one frame per remote message");
        assert_eq!(
            totals.wire_frames_recv, 1,
            "phase {phase}: only the oversized frame may take the socket"
        );
        assert!(totals.shm_frames_sent > 0);
    }
}
