//! Runtime configuration: execution mode, SMP topology, aggregation.

use crate::faults::FaultPlan;

/// How the runtime executes PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One thread simulates all PEs deterministically (strict round-robin
    /// message draining). Per-PE busy time is still measured, so this mode
    /// doubles as the calibration harness for the performance model.
    Sequential,
    /// One OS thread per PE, crossbeam channels between them.
    Threads,
    /// Deterministic-simulation-testing engine: all PEs on one thread under
    /// a virtual-time event scheduler that replays any delivery
    /// interleaving from [`RuntimeConfig::faults`]'s seed and injects the
    /// plan's faults (delay, reorder, duplicate, drop, stall). Test-only by
    /// intent; results must match the other engines exactly.
    VirtualTime,
    /// Networked multi-process engine: [`NetConfig::n_procs`] OS processes
    /// (the root plus re-executed workers), each owning a contiguous PE
    /// range, exchanging length-prefixed frames over loopback TCP with a
    /// dedicated comm thread per process (§IV-A made real). See
    /// [`crate::net`].
    Net,
}

/// Which transport carries cross-process frames in the net engine.
///
/// Application batches and the phase protocol (completion detection, the
/// phase close, shutdown) travel together on each link's plane; mesh
/// setup and liveness heartbeats always ride the loopback TCP mesh. When
/// the configured value is [`NetTransport::Auto`],
/// the environment variable `ChareNetTransport` (fallback spelling
/// `CHARE_NET_TRANSPORT`) overrides it with `tcp`, `shm`, `mixed`, or
/// `auto`; a config that forces a specific plane is not overridden (CI's
/// transport matrix relies on forced-plane tests keeping their meaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetTransport {
    /// Pick the best available backend: shared-memory rings when the
    /// platform supports `memfd_create`/`mmap` (peers always share a host
    /// under the SPMD re-exec launcher), loopback TCP otherwise.
    #[default]
    Auto,
    /// Force loopback TCP for every link.
    Tcp,
    /// Force shared-memory rings for every link; setup failure is a
    /// transport error instead of a silent TCP fallback.
    Shm,
    /// Mid-run mix: root↔worker links stay on TCP while worker↔worker
    /// links use shared memory — the conformance suite pins that results
    /// are identical no matter which links take which path.
    Mixed,
}

impl NetTransport {
    /// Parse an override string (the `ChareNetTransport` env values).
    pub fn parse(s: &str) -> Option<NetTransport> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(NetTransport::Auto),
            "tcp" => Some(NetTransport::Tcp),
            "shm" => Some(NetTransport::Shm),
            "mixed" => Some(NetTransport::Mixed),
            _ => None,
        }
    }
}

/// Networked-engine settings, honoured only by [`ExecMode::Net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Total process count (root + workers). `1` runs the net engine's
    /// compute loop without any sockets.
    pub n_procs: u32,
    /// Fault-injection knob for the conformance suite: the worker with this
    /// rank exits abruptly when it enters phase [`NetConfig::kill_phase`].
    /// `u32::MAX` (the default) disables the kill.
    pub kill_rank: u32,
    /// Phase number (1-based) at which `kill_rank` dies.
    pub kill_phase: u32,
    /// Deadline in milliseconds for the socket mesh to come up (worker
    /// spawn → HELLO → PEERS → MESH_OK).
    pub connect_timeout_ms: u32,
    /// Transport selection (see [`NetTransport`]).
    pub transport: NetTransport,
    /// Data capacity of each SPSC shared-memory ring in bytes. One ring
    /// per ordered peer pair; a frame may take at most half a ring, and an
    /// envelope larger than that falls back to the TCP path.
    pub shm_ring_bytes: u32,
    /// Failure-detector probe interval in milliseconds. `0` (the default)
    /// disables explicit heartbeats; peer loss is then detected only via
    /// socket EOF/write errors. When nonzero, the root's comm thread sends
    /// HEARTBEAT frames at this cadence and every frame arriving on a
    /// peer's socket refreshes that peer's liveness clock.
    pub heartbeat_interval_ms: u32,
    /// Failure-detector timeout in milliseconds: a worker whose comm
    /// thread has been silent this long is declared *stalled* (socket
    /// still open) and the run aborts with a typed
    /// [`crate::net::TransportError`] naming the classification. Only
    /// consulted when `heartbeat_interval_ms > 0`.
    pub heartbeat_timeout_ms: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            n_procs: 1,
            kill_rank: u32::MAX,
            kill_phase: 0,
            connect_timeout_ms: 30_000,
            transport: NetTransport::Auto,
            shm_ring_bytes: 256 * 1024,
            heartbeat_interval_ms: 0,
            heartbeat_timeout_ms: 1_000,
        }
    }
}

/// SMP topology (§IV-A): PEs are grouped into processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmpConfig {
    /// PEs per process. Sends between PEs of the same process are
    /// intra-process (shared memory); others are inter-process (network).
    pub pes_per_process: u32,
}

impl Default for SmpConfig {
    fn default() -> Self {
        SmpConfig { pes_per_process: 1 }
    }
}

impl SmpConfig {
    /// Process of a PE.
    #[inline]
    pub fn process_of(&self, pe: u32) -> u32 {
        pe / self.pes_per_process.max(1)
    }

    /// Whether two PEs share a process.
    #[inline]
    pub fn same_process(&self, a: u32, b: u32) -> bool {
        self.process_of(a) == self.process_of(b)
    }
}

/// Message aggregation (§IV-C). The runtime passes every message on at
/// once; aggregation is the application's, which batches the items it
/// knows travel together (one message per PersonManager → LocationManager
/// lane) and reads the switch from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationConfig {
    /// Batch at the application level. Off, every item is its own
    /// message: the paper's unaggregated "no-opt" traffic.
    pub enabled: bool,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        AggregationConfig { enabled: true }
    }
}

/// Full runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of processing elements.
    pub n_pes: u32,
    /// Engine.
    pub mode: ExecMode,
    /// SMP topology.
    pub smp: SmpConfig,
    /// Aggregation settings.
    pub aggregation: AggregationConfig,
    /// Fault schedule. Message-level faults (drop, dup, delay, reorder)
    /// are honoured only by [`ExecMode::VirtualTime`]; the *process-level*
    /// faults ([`FaultPlan::proc_kill`] / [`FaultPlan::proc_stall`]) are
    /// honoured by [`ExecMode::Net`], which injects them at worker spawn.
    /// Keep [`FaultPlan::none`] elsewhere (the default).
    pub faults: FaultPlan,
    /// Threaded/net-engine phase watchdog in seconds (`0` = disabled): if
    /// a phase has not closed after this long (on `threads`: no PE has
    /// reported the close for this long), the coordinator panics with the
    /// detector's counters instead of waiting forever — a hung
    /// conformance run becomes a diagnosable failure, not a CI timeout.
    pub watchdog_secs: u16,
    /// Networked-engine settings, honoured only by [`ExecMode::Net`].
    pub net: NetConfig,
}

impl RuntimeConfig {
    /// A sequential runtime with `n_pes` simulated PEs and all §IV
    /// optimizations on.
    pub fn sequential(n_pes: u32) -> Self {
        RuntimeConfig {
            n_pes,
            mode: ExecMode::Sequential,
            smp: SmpConfig { pes_per_process: 4 },
            aggregation: AggregationConfig::default(),
            faults: FaultPlan::none(0),
            watchdog_secs: 0,
            net: NetConfig::default(),
        }
    }

    /// A threaded runtime with `n_pes` OS threads.
    pub fn threaded(n_pes: u32) -> Self {
        RuntimeConfig {
            mode: ExecMode::Threads,
            ..Self::sequential(n_pes)
        }
    }

    /// A deterministic-simulation-testing runtime: `n_pes` virtual PEs on
    /// one thread, message delivery scheduled in virtual time under
    /// `plan`'s seeded fault schedule.
    pub fn dst(n_pes: u32, plan: FaultPlan) -> Self {
        RuntimeConfig {
            mode: ExecMode::VirtualTime,
            faults: plan,
            ..Self::sequential(n_pes)
        }
    }

    /// A networked multi-process runtime: `n_pes` PEs split evenly over
    /// `n_procs` OS processes connected by a loopback TCP mesh. PE ranges
    /// are contiguous per process (`SmpConfig::process_of` stays the
    /// single source of truth for PE→process mapping), and the default
    /// 30-second watchdog turns a hung socket into a diagnosable panic.
    pub fn net(n_pes: u32, n_procs: u32) -> Self {
        assert!(n_procs >= 1, "need at least one process");
        assert!(
            n_pes.is_multiple_of(n_procs),
            "n_pes ({n_pes}) must divide evenly over n_procs ({n_procs})"
        );
        RuntimeConfig {
            mode: ExecMode::Net,
            smp: SmpConfig {
                pes_per_process: n_pes / n_procs,
            },
            net: NetConfig {
                n_procs,
                ..NetConfig::default()
            },
            watchdog_secs: 30,
            ..Self::sequential(n_pes)
        }
    }

    /// The paper's "RR no-opt" traffic: no aggregation (one message per
    /// visit) and every PE its own process, so every cross-PE message is a
    /// network message.
    pub fn no_opt(mut self) -> Self {
        self.aggregation.enabled = false;
        self.smp.pes_per_process = 1;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_mapping() {
        let smp = SmpConfig { pes_per_process: 4 };
        assert_eq!(smp.process_of(0), 0);
        assert_eq!(smp.process_of(3), 0);
        assert_eq!(smp.process_of(4), 1);
        assert!(smp.same_process(1, 3));
        assert!(!smp.same_process(3, 4));
    }

    #[test]
    fn zero_pes_per_process_is_safe() {
        let smp = SmpConfig { pes_per_process: 0 };
        assert_eq!(smp.process_of(7), 7);
    }

    #[test]
    fn net_config_splits_pes_contiguously() {
        let cfg = RuntimeConfig::net(8, 4);
        assert_eq!(cfg.mode, ExecMode::Net);
        assert_eq!(cfg.smp.pes_per_process, 2);
        assert_eq!(cfg.smp.process_of(3), 1);
        assert_eq!(cfg.smp.process_of(7), 3);
        assert_eq!(cfg.net.n_procs, 4);
        assert_eq!(cfg.net.kill_rank, u32::MAX);
        assert!(cfg.watchdog_secs > 0, "net mode must default to a watchdog");
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn net_config_rejects_uneven_split() {
        let _ = RuntimeConfig::net(5, 2);
    }

    #[test]
    fn net_transport_parses_overrides() {
        assert_eq!(NetTransport::parse("tcp"), Some(NetTransport::Tcp));
        assert_eq!(NetTransport::parse(" SHM "), Some(NetTransport::Shm));
        assert_eq!(NetTransport::parse("Mixed"), Some(NetTransport::Mixed));
        assert_eq!(NetTransport::parse("auto"), Some(NetTransport::Auto));
        assert_eq!(NetTransport::parse("udp"), None);
    }

    #[test]
    fn heartbeats_default_off_with_sane_timeout() {
        let cfg = NetConfig::default();
        assert_eq!(cfg.heartbeat_interval_ms, 0, "explicit opt-in");
        assert!(cfg.heartbeat_timeout_ms >= 100);
    }

    #[test]
    fn net_defaults_pick_auto_transport() {
        let cfg = RuntimeConfig::net(4, 2);
        assert_eq!(cfg.net.transport, NetTransport::Auto);
        assert!(cfg.net.shm_ring_bytes >= 64 * 1024);
        assert!(cfg.aggregation.enabled);
    }

    #[test]
    fn no_opt_strips_optimizations() {
        let cfg = RuntimeConfig::sequential(8).no_opt();
        assert!(!cfg.aggregation.enabled);
        assert_eq!(cfg.smp.pes_per_process, 1);
    }
}
