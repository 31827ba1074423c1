//! The per-process communication thread (§IV-A's dedicated comm thread,
//! made real). It owns every socket of the process: it drains the compute
//! side's outbound channel onto the wire, reassembles inbound frames,
//! deserializes BATCH payloads off the compute thread, hands phase-protocol
//! frames (CD_PROBE, CD_REPLY, PHASE_RESULT, SHUTDOWN) to compute decoded
//! but unanswered — only compute knows whether it is idle — answers
//! heartbeats itself, and keeps the wire counters that end up in
//! [`crate::stats::PeStats`]. It never polls: between events it blocks in
//! `poll(2)` on its sockets plus a wake socket that compute signals after
//! queueing outbound work, timed out at the next heartbeat deadline.

use crate::chare::{ChareId, Message};
use crate::net::shm::{self, Doorbell, PollFd};
use crate::net::transport::{write_frame, write_frames, FrameBuf};
use crate::net::wire::{self, Ctl};
use crate::net::TransportError;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the comm thread may sit in `poll(2)` with no heartbeat due.
/// Nothing depends on it — every reason to run (inbound bytes, outbound
/// work, `stop`, an injected stall) comes with a wake — it only bounds the
/// damage of a bug in that reasoning.
const IDLE_WAIT: Duration = Duration::from_millis(100);

/// State shared between the compute thread and its comm thread.
#[derive(Debug, Default)]
pub struct CommShared {
    /// Set by compute to stop the comm thread (after the outbound channel
    /// has been drained onto the wire). Follow with [`CommHandle::wake`].
    pub stop: AtomicBool,
    /// First transport failure, if any; compute checks this every loop.
    pub failed: Mutex<Option<TransportError>>,
    /// Frames written to sockets since compute last harvested the counter
    /// (compute `swap(0)`s these four into the phase's stats).
    pub frames_sent: AtomicU64,
    /// Frames read from sockets.
    pub frames_recv: AtomicU64,
    /// Bytes written (including frame headers).
    pub bytes_sent: AtomicU64,
    /// Bytes read (including frame headers).
    pub bytes_recv: AtomicU64,
    /// The comm thread is (about to be) blocked in `poll(2)`: whoever
    /// clears this owes it one byte on the wake socket.
    sleeping: AtomicBool,
    /// Fault injection: when nonzero, the comm thread sleeps this many
    /// milliseconds (once, resetting the cell) without touching any
    /// socket — the silent-but-connected window the process-stall fault
    /// uses. The compute thread sleeps the same window, so the process is
    /// indistinguishable from one that received SIGSTOP. Follow a store
    /// with [`CommHandle::wake`].
    pub stall_ms: AtomicU64,
}

impl CommShared {
    /// Record a failure (first one wins) — every subsequent compute-side
    /// loop iteration will see it and abort the run.
    pub fn fail(&self, msg: String) {
        let mut f = lock_recover(&self.failed);
        if f.is_none() {
            *f = Some(TransportError(msg));
        }
    }

    /// The recorded failure, if any.
    pub fn failure(&self) -> Option<TransportError> {
        lock_recover(&self.failed).clone()
    }
}

/// Failure-detector settings handed to [`spawn`]. Probes originate from
/// the root's comm thread only; every comm thread answers them.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatCfg {
    /// Gap between HEARTBEAT probes.
    pub interval: Duration,
    /// Silence threshold after which a peer is declared stalled.
    pub timeout: Duration,
}

/// Lock a mutex, recovering the data from a poisoned lock instead of
/// panicking (transport paths must never add panics of their own).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Events the comm thread hands to compute.
#[derive(Debug)]
pub enum Event<M: Message> {
    /// A decoded application envelope (one BATCH frame).
    Batch {
        /// Phase the sender stamped on the frame.
        phase: u64,
        /// Destination chare.
        to: ChareId,
        /// The message.
        msg: M,
    },
    /// A decoded phase-protocol frame: CD_PROBE, CD_REPLY, PHASE_RESULT or
    /// SHUTDOWN. Compute handles it exactly as if it had come off a ring.
    Ctl(Ctl),
    /// A socket died or a frame failed to decode. Fatal.
    TransportError(TransportError),
}

/// Compute's handle on the comm thread.
pub struct CommHandle<M: Message> {
    out_tx: Sender<(u32, u8, Bytes)>,
    wake_tx: UnixStream,
    /// Inbound events.
    pub in_rx: Receiver<Event<M>>,
    /// Shared counters and flags.
    pub shared: Arc<CommShared>,
    /// The thread itself (joined on teardown).
    pub join: Option<JoinHandle<()>>,
}

impl<M: Message> CommHandle<M> {
    /// Queue one frame for `dst` on its TCP socket and wake the comm
    /// thread if it is blocked.
    pub fn send(&self, dst: u32, kind: u8, payload: Bytes) {
        let _ = self.out_tx.send((dst, kind, payload));
        self.wake();
    }

    /// Make the comm thread take a loop turn now. Costs a syscall only
    /// when the thread is actually blocked: the `sleeping` swap pairs with
    /// the comm loop's store-then-recheck, so a frame queued just before
    /// it blocks is either seen by its recheck or earns this wake byte.
    pub fn wake(&self) {
        if self.shared.sleeping.swap(false, Ordering::SeqCst) {
            let _ = (&self.wake_tx).write(&[1]);
        }
    }
}

struct Peer {
    sock: TcpStream,
    buf: FrameBuf,
    dead: bool,
}

/// The comm thread's channel to compute. Every send also rings compute's
/// doorbell (when the shm transport is active) so a futex-parked compute
/// thread wakes for TCP-delivered events, not just ring pushes.
struct Inbox<M: Message> {
    tx: Sender<Event<M>>,
    bell: Option<Doorbell>,
}

impl<M: Message> Inbox<M> {
    fn send(&self, ev: Event<M>) {
        let _ = self.tx.send(ev);
        if let Some(b) = &self.bell {
            b.ring();
        }
    }
}

/// Spawn the comm thread over an established socket set. `my_rank` is this
/// process's rank (used for heartbeat acks); `sockets` maps peer rank →
/// connected non-blocking stream; `bell` is compute's own doorbell when
/// the shm transport is active (rung after every delivered event). Errors
/// (the OS refusing a thread) are returned, not panicked, so the engine
/// can surface them as a [`TransportError`].
pub fn spawn<M: Message>(
    my_rank: u32,
    sockets: Vec<(u32, TcpStream)>,
    bell: Option<Doorbell>,
    hb: Option<HeartbeatCfg>,
) -> std::io::Result<CommHandle<M>> {
    let (out_tx, out_rx) = unbounded::<(u32, u8, Bytes)>();
    let (in_tx, in_rx) = unbounded::<Event<M>>();
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let shared = Arc::new(CommShared::default());
    let shared2 = shared.clone();
    let inbox = Inbox { tx: in_tx, bell };
    let join = std::thread::Builder::new()
        .name(format!("net-comm-{my_rank}"))
        .spawn(move || comm_loop::<M>(my_rank, sockets, out_rx, wake_rx, inbox, shared2, hb))?;
    Ok(CommHandle {
        out_tx,
        wake_tx,
        in_rx,
        shared,
        join: Some(join),
    })
}

/// The root-side failure detector's working state (see module docs): a
/// probe timer plus per-peer liveness clocks. Every inbound frame from a
/// peer on its socket — batches and CD replies on TCP links, not just
/// heartbeat acks — refreshes its clock; on shm links the acks are the
/// only socket traffic, so there they carry liveness alone.
struct Detector {
    interval: Duration,
    timeout: Duration,
    next_probe: Instant,
    seq: u64,
    last_heard: BTreeMap<u32, Instant>,
}

fn comm_loop<M: Message>(
    my_rank: u32,
    sockets: Vec<(u32, TcpStream)>,
    out_rx: Receiver<(u32, u8, Bytes)>,
    mut wake_rx: UnixStream,
    in_tx: Inbox<M>,
    shared: Arc<CommShared>,
    hb: Option<HeartbeatCfg>,
) {
    let mut peers: BTreeMap<u32, Peer> = sockets
        .into_iter()
        .map(|(rank, sock)| {
            (
                rank,
                Peer {
                    sock,
                    buf: FrameBuf::default(),
                    dead: false,
                },
            )
        })
        .collect();
    let ranks: Vec<u32> = peers.keys().copied().collect();
    let fatal = |shared: &CommShared, in_tx: &Inbox<M>, msg: String| {
        shared.fail(msg.clone());
        in_tx.send(Event::TransportError(TransportError(msg)));
    };
    // Only the root originates probes and classifies peers; workers just
    // answer (and their mesh-link view rides in each ack).
    let mut detector = hb.filter(|_| my_rank == 0).map(|cfg| {
        // simlint: allow(R2) -- liveness clocks; wall time never feeds simulation state
        let started = Instant::now();
        Detector {
            interval: cfg.interval,
            timeout: cfg.timeout,
            next_probe: started,
            seq: 0,
            last_heard: ranks.iter().map(|&r| (r, started)).collect(),
        }
    });
    let mut fds: Vec<PollFd> = Vec::with_capacity(ranks.len() + 1);
    loop {
        // Injected process stall: go completely silent (no reads, no
        // writes, sockets open) for the requested window.
        let stall = shared.stall_ms.swap(0, Ordering::SeqCst);
        if stall > 0 {
            std::thread::sleep(Duration::from_millis(stall));
        }
        let mut progressed = false;
        let mut idle_wait = IDLE_WAIT;

        // Outbound: drain everything compute has queued, staged per peer,
        // then flush each peer's backlog in one vectored write — one
        // syscall per peer per drain pass instead of one per frame.
        let mut staged: BTreeMap<u32, Vec<(u8, Bytes)>> = BTreeMap::new();
        loop {
            match out_rx.try_recv() {
                Ok((dst, kind, payload)) => {
                    progressed = true;
                    staged.entry(dst).or_default().push((kind, payload));
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }
        for (dst, frames) in staged {
            match peers.get_mut(&dst) {
                Some(p) if !p.dead => {
                    let refs: Vec<(u8, &[u8])> = frames.iter().map(|(k, b)| (*k, &b[..])).collect();
                    match write_frames(&mut p.sock, &refs) {
                        Ok(n) => {
                            shared
                                .frames_sent
                                .fetch_add(refs.len() as u64, Ordering::SeqCst);
                            shared.bytes_sent.fetch_add(n, Ordering::SeqCst);
                        }
                        Err(e) => {
                            p.dead = true;
                            fatal(&shared, &in_tx, format!("write to rank {dst} failed: {e}"));
                        }
                    }
                }
                _ => fatal(&shared, &in_tx, format!("no live socket to rank {dst}")),
            }
        }

        // Inbound: poll every socket, dispatch complete frames.
        for &rank in &ranks {
            let polled = {
                let Some(p) = peers.get_mut(&rank) else {
                    continue;
                };
                if p.dead {
                    continue;
                }
                match p.buf.poll(&mut p.sock) {
                    Ok(polled) => polled,
                    Err(e) => {
                        p.dead = true;
                        fatal(&shared, &in_tx, format!("rank {rank} disconnected: {e}"));
                        continue;
                    }
                }
            };
            if polled.bytes > 0 {
                progressed = true;
                shared.bytes_recv.fetch_add(polled.bytes, Ordering::SeqCst);
                if let Some(d) = detector.as_mut() {
                    // Any traffic is proof of life, not just heartbeat acks.
                    // simlint: allow(R2) -- liveness clock refresh; wall time never feeds simulation state
                    d.last_heard.insert(rank, Instant::now());
                }
            }
            for (kind, payload) in polled.frames {
                shared.frames_recv.fetch_add(1, Ordering::SeqCst);
                if dispatch::<M>(my_rank, rank, kind, &payload, &mut peers, &in_tx, &shared) {
                    return; // SHUTDOWN delivered
                }
            }
            if polled.eof {
                // Frames that rode in ahead of the close were dispatched
                // above. Who closed decides severity: the root losing any
                // worker, or a worker losing the root, is fatal. A worker
                // seeing a *peer worker* close is not — workers exit at
                // their own pace during teardown, and the root (which has
                // a socket to every worker) remains the liveness
                // authority. A later send to the dead peer still fails.
                if let Some(p) = peers.get_mut(&rank) {
                    p.dead = true;
                }
                if my_rank == 0 || rank == 0 {
                    fatal(
                        &shared,
                        &in_tx,
                        format!("rank {rank} disconnected: peer closed the connection"),
                    );
                }
            }
        }

        // Failure detection (root only): originate probes on the interval
        // and sweep for peers that have gone silent past the timeout. A
        // write error means the peer is *crashed* (kernel saw the socket
        // die); silence on an open socket past the timeout means *stalled*.
        if let Some(d) = detector.as_mut() {
            // simlint: allow(R2) -- failure-detector clock; wall time never feeds simulation state
            let now = Instant::now();
            if now >= d.next_probe {
                d.next_probe = now + d.interval;
                d.seq += 1;
                let (k, p) = Ctl::Heartbeat { seq: d.seq }.encode();
                let mut crashed: Vec<(u32, String)> = Vec::new();
                for (&rank, peer) in peers.iter_mut() {
                    if peer.dead {
                        continue;
                    }
                    match write_frame(&mut peer.sock, k, &p) {
                        Ok(n) => {
                            shared.frames_sent.fetch_add(1, Ordering::SeqCst);
                            shared.bytes_sent.fetch_add(n, Ordering::SeqCst);
                        }
                        Err(e) => {
                            peer.dead = true;
                            crashed.push((rank, e.to_string()));
                        }
                    }
                }
                for (rank, e) in crashed {
                    fatal(
                        &shared,
                        &in_tx,
                        format!("heartbeat to rank {rank} failed: {e}"),
                    );
                }
            }
            // One pass over the open peers: who has been silent past the
            // timeout, and when is the earliest anyone else could be — the
            // idle wait below must not outsleep that moment or the probe.
            let mut stalled: Vec<u32> = Vec::new();
            let mut wake_at = d.next_probe;
            for (&rank, &heard) in d.last_heard.iter() {
                if peers.get(&rank).is_none_or(|p| p.dead) {
                    continue;
                }
                let silent_at = heard + d.timeout;
                if now > silent_at {
                    stalled.push(rank);
                } else {
                    wake_at = wake_at.min(silent_at);
                }
            }
            for rank in stalled {
                if let Some(p) = peers.get_mut(&rank) {
                    p.dead = true;
                }
                d.last_heard.remove(&rank);
                fatal(
                    &shared,
                    &in_tx,
                    format!(
                        "rank {rank} stalled: no frames for {} ms (heartbeat timeout; socket still open)",
                        d.timeout.as_millis()
                    ),
                );
            }
            idle_wait = idle_wait.min(wake_at.saturating_duration_since(now));
        }

        if shared.stop.load(Ordering::SeqCst) {
            // Compute queued everything it wanted sent before setting
            // `stop`; one more outbound drain pass then exit.
            while let Ok((dst, kind, payload)) = out_rx.try_recv() {
                if let Some(p) = peers.get_mut(&dst) {
                    if !p.dead {
                        let _ = write_frame(&mut p.sock, kind, &payload);
                    }
                }
            }
            return;
        }
        if !progressed {
            // Block until a socket has bytes, compute wakes us, or the
            // next heartbeat is due. Advertise first, then re-check every
            // compute-side reason to run (see `CommHandle::wake`).
            shared.sleeping.store(true, Ordering::SeqCst);
            if out_rx.is_empty()
                && !shared.stop.load(Ordering::SeqCst)
                && shared.stall_ms.load(Ordering::SeqCst) == 0
            {
                fds.clear();
                fds.push(PollFd::readable(wake_rx.as_raw_fd()));
                fds.extend(
                    peers
                        .values()
                        .filter(|p| !p.dead)
                        .map(|p| PollFd::readable(p.sock.as_raw_fd())),
                );
                shm::wait_readable(&mut fds, idle_wait);
            }
            shared.sleeping.store(false, Ordering::SeqCst);
            // Swallow wake bytes unconditionally: a waker that cleared the
            // flag may write its byte only after this read, and that stray
            // byte must cost the next wait one early return, not leave the
            // wake socket readable forever.
            let mut sink = [0u8; 64];
            let _ = wake_rx.read(&mut sink);
        }
    }
}

/// Handle one inbound frame. Returns `true` when the comm loop should exit
/// (SHUTDOWN received).
fn dispatch<M: Message>(
    my_rank: u32,
    from: u32,
    kind_byte: u8,
    payload: &[u8],
    peers: &mut BTreeMap<u32, Peer>,
    in_tx: &Inbox<M>,
    shared: &Arc<CommShared>,
) -> bool {
    use crate::net::wire::kind;
    match kind_byte {
        kind::BATCH => match wire::decode_batch::<M>(payload) {
            Some((phase, to, msg)) => {
                in_tx.send(Event::Batch { phase, to, msg });
            }
            None => {
                let msg = format!("malformed BATCH from rank {from}");
                shared.fail(msg.clone());
                in_tx.send(Event::TransportError(TransportError(msg)));
            }
        },
        kind::HEARTBEAT => {
            // Answered here, unlike CD probes — a stalled *compute* thread
            // still acks, which is exactly the distinction the detector
            // wants: heartbeats prove the process is scheduled, CD replies
            // prove compute is advancing. The ack carries this worker's
            // view of its mesh links so the root can tell a partition
            // (worker lost a peer, root link fine) from a crash.
            if let Some(Ctl::Heartbeat { seq }) = Ctl::decode(kind_byte, payload) {
                let mut mesh_dead = 0u32;
                for (&r, p) in peers.iter() {
                    if r != from && p.dead {
                        mesh_dead |= 1u32 << r.min(31);
                    }
                }
                let ack = Ctl::HeartbeatAck {
                    rank: my_rank,
                    seq,
                    mesh_dead,
                };
                let (k, p) = ack.encode();
                if let Some(peer) = peers.get_mut(&from) {
                    match write_frame(&mut peer.sock, k, &p) {
                        Ok(n) => {
                            shared.frames_sent.fetch_add(1, Ordering::SeqCst);
                            shared.bytes_sent.fetch_add(n, Ordering::SeqCst);
                        }
                        Err(e) => {
                            peer.dead = true;
                            let msg = format!("heartbeat ack to rank {from} failed: {e}");
                            shared.fail(msg.clone());
                            in_tx.send(Event::TransportError(TransportError(msg)));
                        }
                    }
                }
            }
        }
        kind::HEARTBEAT_ACK => {
            if let Some(Ctl::HeartbeatAck {
                rank, mesh_dead, ..
            }) = Ctl::decode(kind_byte, payload)
            {
                if mesh_dead != 0 {
                    // The worker answered us, so its root link is healthy —
                    // but it reports dead links inside the worker mesh.
                    // That is a partition, not a crash.
                    let msg = format!(
                        "rank {rank} partitioned: its links to ranks [{}] are down while its root link is healthy",
                        (0..32)
                            .filter(|b| mesh_dead & (1 << b) != 0)
                            .map(|b| b.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    shared.fail(msg.clone());
                    in_tx.send(Event::TransportError(TransportError(msg)));
                }
            }
        }
        _ => match Ctl::decode(kind_byte, payload) {
            Some(ctl @ (Ctl::CdProbe { .. } | Ctl::CdReply { .. } | Ctl::PhaseResult { .. })) => {
                in_tx.send(Event::Ctl(ctl));
            }
            Some(Ctl::Shutdown) => {
                in_tx.send(Event::Ctl(Ctl::Shutdown));
                return true;
            }
            _ => {
                let msg = format!("unexpected frame kind {kind_byte} from rank {from}");
                shared.fail(msg.clone());
                in_tx.send(Event::TransportError(TransportError(msg)));
            }
        },
    }
    false
}
