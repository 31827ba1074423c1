//! The threaded engine: one OS thread per PE, crossbeam channels between
//! them, completion detection for phase termination.
//!
//! The protocol per phase:
//!
//! 1. the coordinator resets the [`CompletionDetector`] and counts every
//!    injection as produced, then sends `PhaseStart` to every worker and the
//!    injections after it, so no worker can see an empty phase while an
//!    injection is still in flight;
//! 2. workers drain their channels, execute chares, and send each message
//!    on at once; a worker that runs dry raises its idle flag and runs the
//!    two-wave detection itself, since its idle transition may be the one
//!    that completes the phase;
//! 3. the one worker whose detection succeeds and whose
//!    [`CompletionDetector::claim_done`] wins sends `PhaseEnd` to every
//!    other worker; each worker reports its counters on `PhaseEnd` (the
//!    winner at once) and blocks awaiting the next `PhaseStart`. Nothing
//!    polls: idle workers block in `recv`, the coordinator blocks on the
//!    stats channel.

use crate::chare::{Chare, ChareId, Envelope, Message};
use crate::completion::CompletionDetector;
use crate::config::RuntimeConfig;
use crate::pe::{Hop, PeCore};
use crate::stats::{PeStats, PhaseStats, ReductionSlots};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender as ChSender};
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

/// How a worker's phase loop ends.
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

struct Worker<M: Message> {
    pe: u32,
    rx: Receiver<Item<M>>,
    txs: Vec<ChSender<Item<M>>>,
    cd: Arc<CompletionDetector>,
    stats_tx: ChSender<StatsReport>,
    chares_tx: ChSender<ChareCrate<M>>,
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

    /// Work until the phase closes or the engine shuts down. The caller has
    /// already reset the phase counters.
    fn run_phase_loop(&mut self) -> PhaseExit {
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
            // block until something arrives.
            self.cd.set_idle(self.pe, true);
            if self.try_close() {
                return PhaseExit::Closed;
            }
            let Ok(item) = self.rx.recv() else {
                return PhaseExit::Shutdown;
            };
            self.cd.set_idle(self.pe, false);
            if let Some(exit) = self.handle(item) {
                return exit;
            }
        }
    }

    fn run(mut self) {
        loop {
            // Between phases only `PhaseStart` or `Shutdown` can arrive: the
            // coordinator sends `PhaseStart` to every worker before any
            // injection, and a phase's `PhaseEnd` is consumed inside it.
            match self.rx.recv() {
                Ok(Item::PhaseStart) => {}
                Ok(Item::Shutdown) | Err(_) => break,
                Ok(Item::Direct(_) | Item::PhaseEnd) => {
                    unreachable!("data or PhaseEnd between phases on PE {}", self.pe)
                }
            }
            self.core.begin_phase();
            match self.run_phase_loop() {
                PhaseExit::Closed => {
                    let _ = self.stats_tx.send((self.pe, self.core.phase_stats()));
                }
                PhaseExit::Shutdown => break,
            }
        }
        let _ = self.chares_tx.send(self.core.take_chares());
    }
}

/// The threaded engine. Threads spawn on the first phase.
pub struct ThreadEngine<M: Message> {
    cfg: RuntimeConfig,
    /// Every chare until the first phase moves them to their workers;
    /// the chare map after.
    table: PeCore<M>,
    started: bool,
    txs: Vec<ChSender<Item<M>>>,
    handles: Vec<JoinHandle<()>>,
    cd: Arc<CompletionDetector>,
    stats_rx: Option<Receiver<StatsReport>>,
    chares_rx: Option<Receiver<ChareCrate<M>>>,
}

impl<M: Message> ThreadEngine<M> {
    /// Create an engine for `cfg.n_pes` OS threads.
    pub fn new(cfg: RuntimeConfig) -> Self {
        ThreadEngine {
            cd: Arc::new(CompletionDetector::new(cfg.n_pes)),
            table: PeCore::new(&cfg, 0..cfg.n_pes),
            cfg,
            started: false,
            txs: Vec::new(),
            handles: Vec::new(),
            stats_rx: None,
            chares_rx: None,
        }
    }

    /// Register a chare (before the first phase).
    pub fn add_chare(&mut self, id: ChareId, pe: u32, chare: Box<dyn Chare<M>>) {
        assert!(!self.started, "cannot add chares after the first phase");
        self.table.add(id, pe, chare);
    }

    fn start(&mut self) {
        let n = self.cfg.n_pes as usize;
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            self.txs.push(tx);
            rxs.push(rx);
        }
        let (stats_tx, stats_rx) = unbounded();
        let (chares_tx, chares_rx) = unbounded();
        self.stats_rx = Some(stats_rx);
        self.chares_rx = Some(chares_rx);
        for (pe, core) in self.table.split().into_iter().enumerate() {
            let worker = Worker {
                pe: pe as u32,
                rx: rxs[pe].clone(),
                txs: self.txs.clone(),
                cd: self.cd.clone(),
                stats_tx: stats_tx.clone(),
                chares_tx: chares_tx.clone(),
                core,
                local_q: VecDeque::new(),
            };
            self.handles.push(
                std::thread::Builder::new()
                    .name(format!("chare-pe-{pe}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker"),
            );
        }
        self.started = true;
    }

    /// Run one phase to completion.
    pub fn run_phase(&mut self, injections: Vec<(ChareId, M)>) -> PhaseStats {
        if !self.started {
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
        for tx in &self.txs {
            let _ = tx.send(Item::PhaseStart);
        }
        for (pe, env) in injections {
            let _ = self.txs[pe as usize].send(Item::Direct(env));
        }
        // Collect per-PE stats as the workers report the close. With a
        // watchdog, a hung phase fails with the detector's counters
        // instead of blocking until the CI timeout.
        let rx = self.stats_rx.as_ref().unwrap();
        let watchdog = Duration::from_secs(u64::from(self.cfg.watchdog_secs));
        let mut per_pe = vec![PeStats::default(); self.cfg.n_pes as usize];
        let mut reductions = ReductionSlots::default();
        for _ in 0..self.cfg.n_pes {
            let report = if self.cfg.watchdog_secs > 0 {
                rx.recv_timeout(watchdog)
            } else {
                rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
            };
            let (pe, part) = report.unwrap_or_else(|e| {
                panic!(
                    "phase did not close ({e:?}; watchdog {}s, produced {}, consumed {})",
                    self.cfg.watchdog_secs,
                    self.cd.total_produced(),
                    self.cd.total_consumed()
                )
            });
            per_pe[pe as usize] = part.per_pe[0];
            reductions.merge(&part.reductions);
        }
        PhaseStats { per_pe, reductions }
    }

    /// Stop the workers and collect all chares.
    pub fn into_chares(mut self) -> Vec<(ChareId, Box<dyn Chare<M>>)> {
        if !self.started {
            return self.table.take_chares();
        }
        self.request_shutdown();
        let rx = self
            .chares_rx
            .take()
            .expect("a started engine has a chares channel");
        let mut all = Vec::new();
        for _ in 0..self.cfg.n_pes {
            all.extend(rx.recv().expect("worker chares"));
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
/// its PE threads parked in `recv` forever: every worker holds a clone of
/// every sender, so no channel ever disconnects on its own.
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
    /// cross-PE token storm and 64 injections whose chares send nothing.
    /// An early close (an injection not yet counted), a stale or lost
    /// `PhaseEnd`, or a double claim shows up as a wrong count, a panic, or
    /// the watchdog firing, never as a hang.
    #[test]
    fn phase_close_stress() {
        let n_chares = 16;
        let mut cfg = RuntimeConfig::threaded(4);
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
            assert_eq!(stats.reduction(0), expect, "phase {phase} reduction");
            assert_eq!(stats.totals().processed, expect, "phase {phase} processed");
        }
        eng.into_chares();
    }

    #[test]
    fn shutdown_before_start_returns_chares() {
        let eng = ring(5, RuntimeConfig::threaded(2));
        assert_eq!(eng.into_chares().len(), 5);
    }
}
