//! Launcher/orchestrator: forks worker processes, wires the socket mesh,
//! and gives workers a way to find their place in the run.
//!
//! ## The SPMD re-exec model
//!
//! Chares are `Box<dyn Chare<M>>` — not serializable. Instead of shipping
//! objects, the launcher re-executes the *current binary*: every worker
//! runs the same driver code, rebuilds the same chare array (the
//! determinism contract of DESIGN.md §7 makes that reconstruction
//! bit-identical), and the engine keeps only the chares whose PE falls in
//! the worker's range. Workers are told who they are through environment
//! variables:
//!
//! * `EPISIM_NET_ROLE=worker` — this process is a worker.
//! * `EPISIM_NET_RANK` — its process rank (1-based).
//! * `EPISIM_NET_ADDR` — the root's loopback listener address.
//! * `EPISIM_NET_INVOCATION` — which net-runtime construction (0-based,
//!   counted per driver thread) this worker should join; earlier net
//!   constructions replay on the sequential engine, so a driver that
//!   builds several net runtimes in sequence still lines up. Drivers that want to skip the
//!   replay instead call [`worker_target`] and [`align_to_invocation`].
//! * `EPISIM_NET_KILL_PHASE` — optional fault injection: exit abruptly at
//!   this phase (the conformance suite's kill-one-worker control).
//! * `EPISIM_NET_CHILD_ARGS` — optional space-separated argv override for
//!   spawned workers. Without it, a worker spawned from a `cargo test`
//!   thread gets `[<test name>, --exact, --nocapture]` (libtest names the
//!   test's thread after the test), so the worker re-runs exactly one
//!   test; workers spawned from a `main` thread get no args and re-run the
//!   whole binary.

use crate::config::RuntimeConfig;
use crate::net::recovery::Backoff;
use crate::net::transport::{read_frame, write_frame};
use crate::net::wire::{Ctl, Hello};
use std::cell::Cell;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub(crate) const ENV_ROLE: &str = "EPISIM_NET_ROLE";
pub(crate) const ENV_RANK: &str = "EPISIM_NET_RANK";
pub(crate) const ENV_ADDR: &str = "EPISIM_NET_ADDR";
pub(crate) const ENV_INVOCATION: &str = "EPISIM_NET_INVOCATION";
pub(crate) const ENV_KILL_PHASE: &str = "EPISIM_NET_KILL_PHASE";
pub(crate) const ENV_CHILD_ARGS: &str = "EPISIM_NET_CHILD_ARGS";
/// File descriptor of the inherited shm ring region. Presence of this
/// variable IS the worker-side transport decision: the root resolves the
/// transport ([`crate::NetTransport`] + `ChareNetTransport` override) and
/// workers simply attach whatever region they were handed — there is no
/// way for one side to run shm while the other runs TCP.
pub(crate) const ENV_SHM_FD: &str = "EPISIM_NET_SHM_FD";
/// `"shm"` (all links ride the rings) or `"mixed"` (worker↔worker only).
pub(crate) const ENV_SHM_MODE: &str = "EPISIM_NET_SHM_MODE";
/// Fault injection: phase at which this worker goes silent (comm and
/// compute threads both sleep, sockets stay open — the SIGSTOP-equivalent
/// the stalled-peer detector classifies).
pub(crate) const ENV_STALL_PHASE: &str = "EPISIM_NET_STALL_PHASE";
/// Duration of the injected stall, milliseconds.
pub(crate) const ENV_STALL_MS: &str = "EPISIM_NET_STALL_MS";

thread_local! {
    /// Net-runtime constructions seen on this driver thread. Thread-local
    /// (not global) so parallel `cargo test` threads count independently —
    /// a worker re-runs exactly one test and must see that test's own
    /// sequence.
    static INVOCATION: Cell<u64> = const { Cell::new(0) };
}

/// In a worker process: the invocation index this worker must join, else
/// `None`. Drivers that construct several net runtimes use this to skip
/// straight to the target (guarding expensive root-only work behind
/// `worker_target().is_none()`), paired with [`align_to_invocation`].
pub fn worker_target() -> Option<u64> {
    if std::env::var(ENV_ROLE).ok()?.as_str() != "worker" {
        return None;
    }
    std::env::var(ENV_INVOCATION).ok()?.parse().ok()
}

/// Declare that the next net-runtime construction on this thread is
/// invocation `target` (used together with [`worker_target`] when a driver
/// skips the replay of earlier invocations).
pub fn align_to_invocation(target: u64) {
    INVOCATION.with(|c| c.set(target));
}

/// Allocate this thread's next invocation index.
pub(crate) fn next_invocation() -> u64 {
    INVOCATION.with(|c| {
        let v = c.get();
        c.set(v + 1);
        v
    })
}

/// A worker's identity, parsed from the environment.
#[derive(Debug, Clone)]
pub(crate) struct WorkerEnv {
    pub rank: u32,
    pub addr: String,
    pub target: u64,
    pub kill_phase: Option<u64>,
    /// Fault injection: `(phase, ms)` at which this worker goes silent.
    pub stall: Option<(u64, u64)>,
    /// Inherited shm region fd, when the root chose a shm transport.
    pub shm_fd: Option<i32>,
    /// Worker↔worker links only ride the rings (root links stay TCP).
    pub shm_mixed: bool,
}

pub(crate) fn worker_env() -> Option<WorkerEnv> {
    if std::env::var(ENV_ROLE).ok()?.as_str() != "worker" {
        return None;
    }
    fn parse<T: std::str::FromStr>(k: &str) -> Option<T> {
        std::env::var(k).ok().and_then(|v| v.parse().ok())
    }
    Some(WorkerEnv {
        rank: parse(ENV_RANK)?,
        addr: std::env::var(ENV_ADDR).ok()?,
        target: parse(ENV_INVOCATION)?,
        kill_phase: parse(ENV_KILL_PHASE),
        stall: parse(ENV_STALL_PHASE).zip(parse(ENV_STALL_MS)),
        shm_fd: parse(ENV_SHM_FD),
        shm_mixed: std::env::var(ENV_SHM_MODE).is_ok_and(|m| m == "mixed"),
    })
}

/// Argv for spawned workers (see module docs).
fn child_args() -> Vec<String> {
    if let Ok(raw) = std::env::var(ENV_CHILD_ARGS) {
        return raw.split_whitespace().map(str::to_owned).collect();
    }
    match std::thread::current().name() {
        Some(name) if !name.is_empty() && name != "main" => vec![
            name.to_owned(),
            "--exact".to_owned(),
            "--nocapture".to_owned(),
        ],
        _ => Vec::new(),
    }
}

fn timeout_err(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::TimedOut,
        format!("net setup timed out: {what}"),
    )
}

fn expect_ctl(sock: &mut TcpStream, what: &str) -> io::Result<Ctl> {
    let (kind, payload, _) = read_frame(sock)?;
    Ctl::decode(kind, &payload).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed {what} frame (kind {kind})"),
        )
    })
}

fn send_ctl(sock: &mut TcpStream, ctl: &Ctl) -> io::Result<()> {
    let (kind, payload) = ctl.encode();
    write_frame(sock, kind, &payload).map(|_| ())
}

/// Root side: spawn workers, accept their HELLOs, broadcast the peer list,
/// wait for every MESH_OK. Returns the per-rank sockets (non-blocking,
/// nodelay) and the child handles.
///
/// `shm` carries the ring region's fd and mode string (`"shm"`/`"mixed"`)
/// when the root chose a shared-memory transport; the fd is deliberately
/// *not* close-on-exec yet so children inherit it, and the engine flips
/// `FD_CLOEXEC` back on right after this returns.
#[allow(clippy::type_complexity)]
pub(crate) fn spawn_mesh_root(
    cfg: &RuntimeConfig,
    invocation: u64,
    shm: Option<(i32, &'static str)>,
) -> io::Result<(Vec<(u32, TcpStream)>, Vec<Child>)> {
    let n_procs = cfg.net.n_procs;
    let deadline = Instant::now() + Duration::from_millis(u64::from(cfg.net.connect_timeout_ms));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let exe = std::env::current_exe()?;
    let args = child_args();
    let mut children = Vec::with_capacity(n_procs as usize - 1);
    for rank in 1..n_procs {
        let mut cmd = Command::new(&exe);
        cmd.args(&args)
            .env(ENV_ROLE, "worker")
            .env(ENV_RANK, rank.to_string())
            .env(ENV_ADDR, addr.to_string())
            .env(ENV_INVOCATION, invocation.to_string())
            .env_remove(ENV_KILL_PHASE)
            .env_remove(ENV_STALL_PHASE)
            .env_remove(ENV_STALL_MS)
            .env_remove(ENV_SHM_FD)
            .env_remove(ENV_SHM_MODE)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some((fd, mode)) = shm {
            cmd.env(ENV_SHM_FD, fd.to_string()).env(ENV_SHM_MODE, mode);
        }
        if cfg.faults.proc_kill_rank == rank {
            cmd.env(ENV_KILL_PHASE, cfg.faults.proc_kill_phase.to_string());
        }
        if cfg.faults.proc_stall_rank == rank {
            cmd.env(ENV_STALL_PHASE, cfg.faults.proc_stall_phase.to_string())
                .env(ENV_STALL_MS, cfg.faults.proc_stall_ms.to_string());
        }
        children.push(cmd.spawn()?);
    }

    // Accept one HELLO per worker; bail early if a child dies during setup.
    let mut by_rank: Vec<Option<(TcpStream, u16)>> = (0..n_procs).map(|_| None).collect();
    let mut accepted = 0u32;
    while accepted + 1 < n_procs {
        match listener.accept() {
            Ok((mut sock, _)) => {
                sock.set_nonblocking(false)?;
                sock.set_read_timeout(Some(Duration::from_secs(10)))?;
                match expect_ctl(&mut sock, "HELLO")? {
                    Ctl::Hello(h) => {
                        validate_hello(&h, invocation, cfg)
                            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                        if by_rank[h.rank as usize].is_some() {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("duplicate HELLO from rank {}", h.rank),
                            ));
                        }
                        by_rank[h.rank as usize] = Some((sock, h.listen_port));
                        accepted += 1;
                    }
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("expected HELLO, got {other:?}"),
                        ))
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                for (i, child) in children.iter_mut().enumerate() {
                    if let Some(status) = child.try_wait()? {
                        return Err(io::Error::new(
                            io::ErrorKind::BrokenPipe,
                            format!("worker rank {} exited during setup: {status}", i + 1),
                        ));
                    }
                }
                if Instant::now() > deadline {
                    return Err(timeout_err("waiting for worker HELLOs"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }

    let peers: Vec<(u32, u16)> = by_rank
        .iter()
        .enumerate()
        .filter_map(|(rank, slot)| slot.as_ref().map(|(_, port)| (rank as u32, *port)))
        .collect();
    let mut sockets = Vec::with_capacity(n_procs as usize - 1);
    for (rank, slot) in by_rank.into_iter().enumerate() {
        if let Some((mut sock, _)) = slot {
            send_ctl(&mut sock, &Ctl::Peers(peers.clone()))?;
            sockets.push((rank as u32, sock));
        }
    }
    // Wait for every worker's MESH_OK so no phase starts on a half-wired
    // mesh.
    for (rank, sock) in &mut sockets {
        match expect_ctl(sock, "MESH_OK")? {
            Ctl::MeshOk { rank: r } if r == *rank => {}
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected MESH_OK from rank {rank}, got {other:?}"),
                ))
            }
        }
    }
    for (_, sock) in &mut sockets {
        sock.set_nodelay(true)?;
        sock.set_read_timeout(None)?;
        sock.set_nonblocking(true)?;
    }
    Ok((sockets, children))
}

fn validate_hello(h: &Hello, invocation: u64, cfg: &RuntimeConfig) -> Result<(), String> {
    if h.invocation != invocation {
        return Err(format!(
            "rank {} joined invocation {} but root is at {} — worker replay desynchronized",
            h.rank, h.invocation, invocation
        ));
    }
    if h.n_procs != cfg.net.n_procs || h.n_pes != cfg.n_pes {
        return Err(format!(
            "rank {} configured {} procs × {} PEs, root has {} × {} — SPMD drivers diverged",
            h.rank, h.n_procs, h.n_pes, cfg.net.n_procs, cfg.n_pes
        ));
    }
    if h.rank == 0 || h.rank >= cfg.net.n_procs {
        return Err(format!("rank {} out of range", h.rank));
    }
    Ok(())
}

/// Worker side: connect to the root, exchange HELLO/PEERS, inter-connect
/// with the other workers, confirm with MESH_OK. Returns per-rank sockets
/// (non-blocking, nodelay), root at rank 0.
pub(crate) fn connect_mesh_worker(
    env: &WorkerEnv,
    cfg: &RuntimeConfig,
) -> io::Result<Vec<(u32, TcpStream)>> {
    let deadline = Instant::now() + Duration::from_millis(u64::from(cfg.net.connect_timeout_ms));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let my_port = listener.local_addr()?.port();

    let mut root = connect_retry(&env.addr, deadline)?;
    root.set_read_timeout(Some(Duration::from_secs(10)))?;
    send_ctl(
        &mut root,
        &Ctl::Hello(Hello {
            invocation: env.target,
            rank: env.rank,
            n_procs: cfg.net.n_procs,
            n_pes: cfg.n_pes,
            listen_port: my_port,
        }),
    )?;
    let peers = match expect_ctl(&mut root, "PEERS")? {
        Ctl::Peers(p) => p,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected PEERS, got {other:?}"),
            ))
        }
    };

    let mut sockets: Vec<(u32, TcpStream)> = Vec::with_capacity(cfg.net.n_procs as usize - 1);
    // Connect outward to lower-ranked workers…
    for &(rank, port) in peers.iter().filter(|(r, _)| *r != 0 && *r < env.rank) {
        let mut sock = connect_retry(&format!("127.0.0.1:{port}"), deadline)?;
        send_ctl(
            &mut sock,
            &Ctl::PeerHello {
                invocation: env.target,
                rank: env.rank,
            },
        )?;
        sockets.push((rank, sock));
    }
    // …and accept from higher-ranked ones.
    let expect_inbound = peers.iter().filter(|(r, _)| *r > env.rank).count();
    listener.set_nonblocking(true)?;
    for _ in 0..expect_inbound {
        let mut sock = accept_retry(&listener, deadline)?;
        sock.set_nonblocking(false)?;
        sock.set_read_timeout(Some(Duration::from_secs(10)))?;
        match expect_ctl(&mut sock, "PEER_HELLO")? {
            Ctl::PeerHello { invocation, rank } if invocation == env.target => {
                sockets.push((rank, sock));
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad PEER_HELLO: {other:?}"),
                ))
            }
        }
    }

    send_ctl(&mut root, &Ctl::MeshOk { rank: env.rank })?;
    sockets.push((0, root));
    for (_, sock) in &mut sockets {
        sock.set_nodelay(true)?;
        sock.set_read_timeout(None)?;
        sock.set_nonblocking(true)?;
    }
    Ok(sockets)
}

/// Deterministic seed for a retry schedule, derived from what we are
/// retrying against (FNV-1a) so concurrent retry loops decorrelate.
fn retry_seed(tag: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in tag.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Retry dialing `addr` until `deadline`, sleeping a jittered exponential
/// backoff between attempts (2 ms base, 100 ms cap). A fixed short
/// interval stampedes the root's accept queue when many workers start at
/// once — exactly the reconnect storm the jitter exists to break up. On
/// expiry the error reports how many attempts were made.
fn connect_retry(addr: &str, deadline: Instant) -> io::Result<TcpStream> {
    let mut backoff = Backoff::new(2, 100, retry_seed(addr));
    let mut attempts = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                attempts += 1;
                if Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "connect to {addr} timed out after {attempts} attempts (last error: {e})"
                        ),
                    ));
                }
                backoff.sleep(attempts - 1);
            }
        }
    }
}

/// Accept-side twin of [`connect_retry`]: jittered exponential poll of the
/// nonblocking listener (1 ms base, 50 ms cap), attempt count surfaced on
/// deadline expiry.
fn accept_retry(listener: &TcpListener, deadline: Instant) -> io::Result<TcpStream> {
    let seed = listener.local_addr().map(|a| a.port()).unwrap_or(0);
    let mut backoff = Backoff::new(1, 50, u64::from(seed));
    let mut attempts = 0u32;
    loop {
        match listener.accept() {
            Ok((sock, _)) => return Ok(sock),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                attempts += 1;
                if Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "net setup timed out: waiting for peer connections \
                             ({attempts} accept attempts)"
                        ),
                    ));
                }
                backoff.sleep(attempts - 1);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_counter_is_per_thread() {
        assert_eq!(next_invocation(), 0);
        assert_eq!(next_invocation(), 1);
        let other = std::thread::spawn(next_invocation).join().unwrap();
        assert_eq!(other, 0, "fresh thread starts at 0");
        align_to_invocation(7);
        assert_eq!(next_invocation(), 7);
        assert_eq!(next_invocation(), 8);
    }

    #[test]
    fn worker_env_absent_outside_workers() {
        // The test process is never spawned with the worker env.
        assert!(worker_target().is_none());
        assert!(worker_env().is_none());
    }

    #[test]
    fn connect_retry_reports_attempts_on_expiry() {
        // Nothing listens on port 1; loopback connects fail immediately,
        // so the loop retries with backoff until the deadline.
        let deadline = Instant::now() + Duration::from_millis(30);
        let err = connect_retry("127.0.0.1:1", deadline).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let msg = err.to_string();
        assert!(msg.contains("attempts"), "attempt count missing: {msg}");
    }

    #[test]
    fn accept_retry_reports_attempts_on_expiry() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let err = accept_retry(&listener, Instant::now() + Duration::from_millis(20)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let msg = err.to_string();
        assert!(
            msg.contains("accept attempts"),
            "attempt count missing: {msg}"
        );
    }

    #[test]
    fn hello_validation_catches_divergence() {
        let cfg = RuntimeConfig::net(4, 2);
        let good = Hello {
            invocation: 3,
            rank: 1,
            n_procs: 2,
            n_pes: 4,
            listen_port: 1,
        };
        assert!(validate_hello(&good, 3, &cfg).is_ok());
        assert!(validate_hello(&good, 4, &cfg)
            .unwrap_err()
            .contains("desynchronized"));
        let bad_topo = Hello { n_pes: 8, ..good };
        assert!(validate_hello(&bad_topo, 3, &cfg)
            .unwrap_err()
            .contains("diverged"));
        let bad_rank = Hello { rank: 2, ..good };
        assert!(validate_hello(&bad_rank, 3, &cfg)
            .unwrap_err()
            .contains("out of range"));
    }
}
