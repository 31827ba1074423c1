//! The threaded engine: one OS thread per PE, PE 0 on the caller's thread,
//! crossbeam channels between them, completion detection for phase
//! termination.
//!
//! The protocol per phase:
//!
//! 1. the caller resets the [`CompletionDetector`] and counts every
//!    injection as produced, then sends `PhaseStart` to every spawned
//!    worker (PEs 1..n) and the injections after it, so no worker can see
//!    an empty phase while an injection is still in flight;
//! 2. the caller's thread runs PE 0, as the net engine's root runs its PE,
//!    so `threaded(1)` starts no thread; each PE drains its channel,
//!    executes chares, and sends each message on at once; a PE that runs
//!    dry raises its idle flag and runs the two-wave detection itself,
//!    since its idle transition may be the one that completes the phase;
//! 3. the one PE whose detection succeeds and whose
//!    [`CompletionDetector::claim_done`] wins sends `PhaseEnd` to every
//!    other PE; each worker reports its counters on `PhaseEnd` (the winner
//!    at once), and PE 0 merges the reports with its own.
//!
//! Every wait (a worker between phases, a PE run dry, PE 0 awaiting the
//! reports) is the runtime's one idle wait, `pe::poll_then_park`, which
//! the net engine's ranks use too: it polls the channel with a `yield_now`
//! after each miss before it blocks, so a message that arrives within the
//! poll costs no wake-up, and a partner queued on the poller's CPU gets
//! it.

use crate::chare::{Chare, ChareId, Envelope, Message};
use crate::completion::CompletionDetector;
use crate::config::RuntimeConfig;
use crate::pe::{self, Hop, PeCore};
use crate::stats::{PeStats, PhaseStats};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender as ChSender, TryRecvError};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

enum Item<M> {
    Direct(Envelope<M>),
    PhaseStart,
    /// The phase is complete: report counters and await the next phase.
    PhaseEnd,
    Shutdown,
}

/// How a PE's phase loop ends.
enum PhaseExit {
    /// The phase closed; report counters.
    Closed,
    /// The engine is shutting down.
    Shutdown,
}

/// A worker's PE and its counters, reported at the end of each phase.
type StatsReport = (u32, PhaseStats);
/// A worker's chares, returned at shutdown.
type ChareCrate<M> = Vec<(ChareId, Box<dyn Chare<M>>)>;

/// Receive from `rx` through the shared idle wait ([`pe::poll_then_park`]),
/// blocking for at most `watchdog_secs` unless that is 0.
fn recv<T>(rx: &Receiver<T>, watchdog_secs: u16) -> Result<T, RecvTimeoutError> {
    pe::poll_then_park(
        || match rx.try_recv() {
            Ok(item) => Some(Ok(item)),
            Err(TryRecvError::Disconnected) => Some(Err(RecvTimeoutError::Disconnected)),
            Err(TryRecvError::Empty) => None,
        },
        || match watchdog_secs {
            0 => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            secs => rx.recv_timeout(Duration::from_secs(u64::from(secs))),
        },
    )
}

/// Fail a phase that did not close in time with the detector's counters,
/// instead of blocking until the CI timeout.
fn phase_hung(e: RecvTimeoutError, watchdog_secs: u16, cd: &CompletionDetector) -> ! {
    panic!(
        "phase did not close ({e:?}; watchdog {watchdog_secs}s, produced {}, consumed {})",
        cd.total_produced(),
        cd.total_consumed()
    )
}

struct Worker<M: Message> {
    pe: u32,
    rx: Receiver<Item<M>>,
    txs: Vec<ChSender<Item<M>>>,
    cd: Arc<CompletionDetector>,
    /// This PE's chares and counters.
    core: PeCore<M>,
    local_q: VecDeque<Envelope<M>>,
}

impl<M: Message> Worker<M> {
    fn route(&mut self, to: ChareId, msg: M) {
        let (dst_pe, hop) = self.core.count_send(self.pe, to, &msg);
        if hop == Hop::Own {
            self.local_q.push_back(Envelope { to, msg });
            return;
        }
        self.cd.produce(self.pe, 1);
        let _ = self.txs[dst_pe as usize].send(Item::Direct(Envelope { to, msg }));
    }

    fn execute(&mut self, env: Envelope<M>) {
        self.core.execute(self.pe, env.to, env.msg);
        while let Some((to, msg)) = self.core.pop_sent() {
            self.route(to, msg);
        }
    }

    /// Process one inbound item; `Some` when it ends the phase loop.
    fn handle(&mut self, item: Item<M>) -> Option<PhaseExit> {
        match item {
            Item::Direct(env) => {
                self.execute(env);
                self.cd.consume(self.pe, 1);
                None
            }
            Item::PhaseEnd => Some(PhaseExit::Closed),
            Item::Shutdown => Some(PhaseExit::Shutdown),
            Item::PhaseStart => unreachable!("PhaseStart inside a phase on PE {}", self.pe),
        }
    }

    fn drain_local(&mut self) {
        while let Some(env) = self.local_q.pop_front() {
            self.execute(env);
        }
    }

    /// Close the phase if this PE's idle transition completed it: detection
    /// passed and this PE won the claim. Tells every other PE.
    fn try_close(&self) -> bool {
        if !(self.cd.try_detect() && self.cd.claim_done()) {
            return false;
        }
        for (pe, tx) in self.txs.iter().enumerate() {
            if pe as u32 != self.pe {
                let _ = tx.send(Item::PhaseEnd);
            }
        }
        true
    }

    /// Reset the counters and work until the phase closes or the engine
    /// shuts down. A wait longer than `watchdog_secs` (unless 0) panics.
    fn run_phase_loop(&mut self, watchdog_secs: u16) -> PhaseExit {
        self.core.begin_phase();
        loop {
            // Eat everything available without blocking.
            self.drain_local();
            if let Ok(item) = self.rx.try_recv() {
                if let Some(exit) = self.handle(item) {
                    return exit;
                }
                continue;
            }
            // Dry: go idle, close the phase if that completed it, else
            // wait until something arrives.
            self.cd.set_idle(self.pe, true);
            if self.try_close() {
                return PhaseExit::Closed;
            }
            let item = match recv(&self.rx, watchdog_secs) {
                Ok(item) => item,
                Err(RecvTimeoutError::Disconnected) => return PhaseExit::Shutdown,
                Err(e) => phase_hung(e, watchdog_secs, &self.cd),
            };
            self.cd.set_idle(self.pe, false);
            if let Some(exit) = self.handle(item) {
                return exit;
            }
        }
    }

    /// A spawned worker's life: one phase per `PhaseStart`, its counters to
    /// `stats_tx` after each, its chares to `chares_tx` at shutdown.
    fn run(mut self, stats_tx: ChSender<StatsReport>, chares_tx: ChSender<ChareCrate<M>>) {
        loop {
            // Between phases only `PhaseStart` or `Shutdown` can arrive: the
            // caller sends `PhaseStart` to every worker before any
            // injection, and a phase's `PhaseEnd` is consumed inside it.
            match recv(&self.rx, 0) {
                Ok(Item::PhaseStart) => {}
                Ok(Item::Shutdown) | Err(_) => break,
                Ok(Item::Direct(_) | Item::PhaseEnd) => {
                    unreachable!("data or PhaseEnd between phases on PE {}", self.pe)
                }
            }
            // PE 0's watchdog covers the workers' waits.
            match self.run_phase_loop(0) {
                PhaseExit::Closed => {
                    let _ = stats_tx.send((self.pe, self.core.phase_stats()));
                }
                PhaseExit::Shutdown => break,
            }
        }
        let _ = chares_tx.send(self.core.take_chares());
    }
}

/// The threaded engine. Worker threads spawn on the first phase.
pub struct ThreadEngine<M: Message> {
    cfg: RuntimeConfig,
    /// Every chare until the first phase moves them to their PEs; the
    /// chare map after.
    table: PeCore<M>,
    /// PE 0, run on the caller's thread; `None` until the first phase.
    pe0: Option<Box<Worker<M>>>,
    /// Every PE's channel, PE 0's included.
    txs: Vec<ChSender<Item<M>>>,
    /// The spawned workers, PEs 1..n.
    handles: Vec<JoinHandle<()>>,
    cd: Arc<CompletionDetector>,
    stats: (ChSender<StatsReport>, Receiver<StatsReport>),
    chares: (ChSender<ChareCrate<M>>, Receiver<ChareCrate<M>>),
}

impl<M: Message> ThreadEngine<M> {
    /// Create an engine for `cfg.n_pes` PEs: the caller's thread and
    /// `cfg.n_pes - 1` OS threads.
    pub fn new(cfg: RuntimeConfig) -> Self {
        ThreadEngine {
            cd: Arc::new(CompletionDetector::new(cfg.n_pes)),
            table: PeCore::new(&cfg, 0..cfg.n_pes),
            cfg,
            pe0: None,
            txs: Vec::new(),
            handles: Vec::new(),
            stats: unbounded(),
            chares: unbounded(),
        }
    }

    /// Register a chare (before the first phase).
    pub fn add_chare(&mut self, id: ChareId, pe: u32, chare: Box<dyn Chare<M>>) {
        assert!(self.pe0.is_none(), "add chares before the first phase");
        self.table.add(id, pe, chare);
    }

    fn start(&mut self) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..self.cfg.n_pes).map(|_| unbounded()).unzip();
        self.txs = txs;
        for ((pe, core), rx) in self.table.split().into_iter().enumerate().zip(rxs) {
            let worker = Worker {
                pe: pe as u32,
                rx,
                txs: self.txs.clone(),
                cd: self.cd.clone(),
                core,
                local_q: VecDeque::new(),
            };
            if pe == 0 {
                self.pe0 = Some(Box::new(worker));
                continue;
            }
            let (stats_tx, chares_tx) = (self.stats.0.clone(), self.chares.0.clone());
            self.handles.push(
                std::thread::Builder::new()
                    .name(format!("chare-pe-{pe}"))
                    .spawn(move || worker.run(stats_tx, chares_tx))
                    .expect("spawn worker"),
            );
        }
    }

    /// Run one phase to completion.
    pub fn run_phase(&mut self, injections: Vec<(ChareId, M)>) -> PhaseStats {
        if self.pe0.is_none() {
            self.start();
        }
        self.cd.reset();
        let injections: Vec<(u32, Envelope<M>)> = injections
            .into_iter()
            .map(|(to, msg)| {
                let pe = self.table.pe_of(to);
                self.cd.produce(pe, 1);
                (pe, Envelope { to, msg })
            })
            .collect();
        for tx in &self.txs[1..] {
            let _ = tx.send(Item::PhaseStart);
        }
        for (pe, env) in injections {
            let _ = self.txs[pe as usize].send(Item::Direct(env));
        }
        let pe0 = self.pe0.as_mut().expect("started above");
        let watchdog_secs = self.cfg.watchdog_secs;
        if let PhaseExit::Shutdown = pe0.run_phase_loop(watchdog_secs) {
            unreachable!("PE 0 shut down inside a phase");
        }
        // PE 0's counters, then each worker's as it reports the close.
        let PhaseStats {
            mut per_pe,
            mut reductions,
        } = pe0.core.phase_stats();
        per_pe.resize(self.cfg.n_pes as usize, PeStats::default());
        for _ in 1..self.cfg.n_pes {
            let (pe, part) = recv(&self.stats.1, watchdog_secs)
                .unwrap_or_else(|e| phase_hung(e, watchdog_secs, &self.cd));
            per_pe[pe as usize] = part.per_pe[0];
            reductions.merge(&part.reductions);
        }
        PhaseStats { per_pe, reductions }
    }

    /// Stop the workers and collect all chares.
    pub fn into_chares(mut self) -> Vec<(ChareId, Box<dyn Chare<M>>)> {
        let Some(pe0) = self.pe0.as_mut() else {
            return self.table.take_chares();
        };
        let mut all = pe0.core.take_chares();
        self.request_shutdown();
        for _ in 1..self.cfg.n_pes {
            all.extend(self.chares.1.recv().expect("worker chares"));
        }
        self.join_workers();
        all.sort_by_key(|(id, _)| *id);
        all
    }

    /// Tell every worker to leave its loop. Sends to a worker that already
    /// exited fail and are ignored, so this is safe to repeat.
    fn request_shutdown(&mut self) {
        for tx in self.txs.drain(..) {
            let _ = tx.send(Item::Shutdown);
        }
    }

    fn join_workers(&mut self) {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Dropping an engine without [`ThreadEngine::into_chares`] must not leave
/// its worker threads parked in `recv` forever: every worker holds a clone
/// of every sender, so no channel ever disconnects on its own.
impl<M: Message> Drop for ThreadEngine<M> {
    fn drop(&mut self) {
        self.request_shutdown();
        // A watchdog panic unwinds through here with the phase still hung;
        // a worker stuck inside it may never read the request, so do not
        // wait for one.
        if !std::thread::panicking() {
            self.join_workers();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chare::Ctx;
    use crate::testkit::{self, Token};

    fn ring(n_chares: u32, cfg: RuntimeConfig) -> ThreadEngine<Token> {
        let mut eng = ThreadEngine::new(cfg);
        for (id, pe, chare) in testkit::ring(n_chares, cfg.n_pes) {
            eng.add_chare(id, pe, chare);
        }
        eng
    }

    #[test]
    fn token_ring_across_threads() {
        let mut eng = ring(8, RuntimeConfig::threaded(4));
        let stats = eng.run_phase(vec![(ChareId(0), Token(100))]);
        assert_eq!(stats.reduction(0), 101);
        assert_eq!(stats.totals().processed, 101);
        let chares = eng.into_chares();
        assert_eq!(chares.len(), 8);
    }

    #[test]
    fn repeated_phases() {
        let mut eng = ring(6, RuntimeConfig::threaded(3));
        for round in 1..=5u64 {
            let stats = eng.run_phase(vec![(ChareId(0), Token(10 * round))]);
            assert_eq!(stats.reduction(0), 10 * round + 1, "round {round}");
        }
        eng.into_chares();
    }

    /// PE 0 runs on the caller's thread: `threaded(1)` spawns nothing, and
    /// `threaded(n)` spawns one thread per other PE.
    #[test]
    fn pe0_runs_on_the_callers_thread() {
        for n_pes in [1u32, 2, 4] {
            let mut eng = ring(8, RuntimeConfig::threaded(n_pes));
            for round in 1..=3u64 {
                let stats = eng.run_phase(vec![(ChareId(1), Token(round * 7))]);
                assert_eq!(stats.reduction(0), round * 7 + 1, "{n_pes} PEs");
                assert_eq!(stats.per_pe.len(), n_pes as usize);
            }
            assert_eq!(eng.handles.len(), n_pes as usize - 1, "{n_pes} PEs");
            assert_eq!(eng.into_chares().len(), 8);
        }
    }

    /// Contributes 1 to slot 0 after sleeping its time.
    struct Nap(Duration);
    impl Chare<Token> for Nap {
        fn receive(&mut self, _msg: Token, ctx: &mut Ctx<'_, Token>) {
            std::thread::sleep(self.0);
            ctx.contribute(0, 1);
        }

        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    /// The phase's only work is on PE 1, so PE 0 is idle from its first
    /// look: it must wait for PE 1's work, not close the phase on its own.
    #[test]
    fn idle_pe0_waits_for_work_on_pe1() {
        let mut eng = ThreadEngine::new(RuntimeConfig::threaded(2));
        eng.add_chare(ChareId(0), 0, Box::new(Nap(Duration::ZERO)));
        eng.add_chare(ChareId(1), 1, Box::new(Nap(Duration::from_millis(20))));
        for phase in 0..5 {
            let stats = eng.run_phase(vec![(ChareId(1), Token(0))]);
            assert_eq!(stats.reduction(0), 1, "phase {phase}");
            assert_eq!(stats.per_pe[0].processed, 0, "phase {phase}");
            assert_eq!(stats.per_pe[1].processed, 1, "phase {phase}");
        }
        eng.into_chares();
    }

    /// A PE-1 chare outlives the watchdog while PE 0 waits on the caller's
    /// thread: the phase fails with the detector's counters, not a hang.
    #[test]
    #[should_panic(expected = "phase did not close (Timeout; watchdog 1s, produced 1, consumed 0)")]
    fn watchdog_fails_a_phase_pe0_waits_on() {
        let mut cfg = RuntimeConfig::threaded(2);
        cfg.watchdog_secs = 1;
        let mut eng = ThreadEngine::new(cfg);
        eng.add_chare(ChareId(0), 0, Box::new(Nap(Duration::ZERO)));
        eng.add_chare(ChareId(1), 1, Box::new(Nap(Duration::from_secs(3))));
        eng.run_phase(vec![(ChareId(1), Token(0))]);
    }

    /// The shared wait keeps what the engine reads off a channel: an item,
    /// a disconnect (a worker's shutdown) within the poll, and a timeout
    /// (PE 0's watchdog) once it has parked.
    #[test]
    fn recv_reports_items_disconnects_and_timeouts() {
        let (tx, rx) = unbounded();
        tx.send(7u32).unwrap();
        assert_eq!(recv(&rx, 1), Ok(7));
        assert_eq!(recv(&rx, 1), Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(recv(&rx, 0), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn fan_out_fan_in() {
        // Chare 0 broadcasts to all others, which reply; totals must match.
        struct Hub {
            n: u32,
        }
        struct Leaf;
        #[derive(Debug)]
        enum M2 {
            Go,
            Ping,
            Pong,
        }
        impl Message for M2 {}
        impl Chare<M2> for Hub {
            fn receive(&mut self, msg: M2, ctx: &mut Ctx<'_, M2>) {
                match msg {
                    M2::Go => {
                        for i in 1..=self.n {
                            ctx.send(ChareId(i), M2::Ping);
                        }
                    }
                    M2::Pong => ctx.contribute(1, 1),
                    M2::Ping => {}
                }
            }

            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        impl Chare<M2> for Leaf {
            fn receive(&mut self, msg: M2, ctx: &mut Ctx<'_, M2>) {
                if matches!(msg, M2::Ping) {
                    ctx.send(ChareId(0), M2::Pong);
                }
            }

            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        let mut eng = ThreadEngine::new(RuntimeConfig::threaded(4));
        let n = 100u32;
        eng.add_chare(ChareId(0), 0, Box::new(Hub { n }));
        for i in 1..=n {
            eng.add_chare(ChareId(i), i % 4, Box::new(Leaf));
        }
        let stats = eng.run_phase(vec![(ChareId(0), M2::Go)]);
        assert_eq!(stats.reduction(1), n as u64);
        eng.into_chares();
    }

    #[test]
    fn empty_phase_terminates() {
        let mut eng = ring(4, RuntimeConfig::threaded(2));
        let stats = eng.run_phase(vec![]);
        assert_eq!(stats.totals().processed, 0);
        eng.into_chares();
    }

    /// Phase-close stress: 2,000 phases cycling through an empty phase, a
    /// cross-PE token storm and 64 injections whose chares send nothing,
    /// on 4 PEs, on the benchmark's 2 and on PE 0 alone. An early close (an
    /// injection not yet counted), a stale or lost `PhaseEnd`, or a double
    /// claim shows up as a wrong count, a panic, or the watchdog firing,
    /// never as a hang.
    #[test]
    fn phase_close_stress() {
        let n_chares = 16;
        for n_pes in [4, 2, 1] {
            let mut cfg = RuntimeConfig::threaded(n_pes);
            cfg.watchdog_secs = 30;
            let mut eng = ring(n_chares, cfg);
            for phase in 0..2000u64 {
                let (injections, expect): (Vec<_>, u64) = match phase % 3 {
                    0 => (vec![], 0),
                    1 => {
                        let hops = phase % 40;
                        let tokens = (0..4).map(|c| (ChareId(c * 3), Token(hops))).collect();
                        (tokens, 4 * (hops + 1))
                    }
                    _ => {
                        let quiet = (0..64).map(|i| (ChareId(i % n_chares), Token(0))).collect();
                        (quiet, 64)
                    }
                };
                let stats = eng.run_phase(injections);
                let at = format!("{n_pes} PEs, phase {phase}");
                assert_eq!(stats.reduction(0), expect, "{at} reduction");
                assert_eq!(stats.totals().processed, expect, "{at} processed");
            }
            eng.into_chares();
        }
    }

    #[test]
    fn shutdown_before_start_returns_chares() {
        let eng = ring(5, RuntimeConfig::threaded(2));
        assert_eq!(eng.into_chares().len(), 5);
    }
}
