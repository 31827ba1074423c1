//! The threaded engine: one OS thread per PE, crossbeam channels between
//! them, completion detection for phase termination.
//!
//! The protocol per phase:
//!
//! 1. the coordinator resets the [`CompletionDetector`], sends `PhaseStart`
//!    to every worker, then injects the phase's seed messages (counted as
//!    produced);
//! 2. workers drain their channels, execute chares, and send each message
//!    on at once; when a worker runs dry it raises its idle flag;
//! 3. the coordinator runs two-wave detection; on success it marks the
//!    phase done, workers observe the flag, report their counters, and
//!    block awaiting the next `PhaseStart`.

use crate::chare::{Chare, ChareId, Ctx, Envelope, Message, Sender};
use crate::completion::CompletionDetector;
use crate::config::RuntimeConfig;
use crate::stats::{PeStats, PhaseStats, ReductionSlots};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender as ChSender};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

enum Item<M> {
    Direct(Envelope<M>),
    PhaseStart,
    Shutdown,
}

struct OutBuf<M> {
    items: Vec<(ChareId, M)>,
}

impl<M: Message> Sender<M> for OutBuf<M> {
    fn send(&mut self, to: ChareId, msg: M) {
        self.items.push((to, msg));
    }
}

/// Per-PE counters a worker reports back at the end of each phase.
type StatsReport = (u32, PeStats, ReductionSlots);
/// A worker's chares, returned at shutdown.
type ChareCrate<M> = Vec<(ChareId, Box<dyn Chare<M>>)>;

struct Worker<M: Message> {
    pe: u32,
    cfg: RuntimeConfig,
    rx: Receiver<Item<M>>,
    txs: Vec<ChSender<Item<M>>>,
    cd: Arc<CompletionDetector>,
    stats_tx: ChSender<StatsReport>,
    chares_tx: ChSender<ChareCrate<M>>,
    pe_of: Arc<Vec<u32>>,
    chares: Vec<(ChareId, Box<dyn Chare<M>>)>,
    /// chare id → index into `chares` (only for local chares).
    local_idx: Vec<u32>,
    local_q: VecDeque<Envelope<M>>,
    stats: PeStats,
    reductions: ReductionSlots,
    out: OutBuf<M>,
}

impl<M: Message> Worker<M> {
    fn route(&mut self, to: ChareId, msg: M) {
        let dst_pe = self.pe_of[to.0 as usize];
        if dst_pe == self.pe {
            self.stats.sent_self += 1;
            self.local_q.push_back(Envelope { to, msg });
            return;
        }
        self.cd.produce(self.pe, 1);
        if self.cfg.smp.same_process(self.pe, dst_pe) {
            // Shared memory between threads of one process (§IV-A).
            self.stats.sent_intra += 1;
        } else {
            self.stats.sent_remote += 1;
            self.stats.network_packets += 1;
            self.stats.remote_bytes += msg.size_bytes() as u64;
        }
        let _ = self.txs[dst_pe as usize].send(Item::Direct(Envelope { to, msg }));
    }

    fn execute(&mut self, env: Envelope<M>) {
        let li = self.local_idx[env.to.0 as usize] as usize;
        let start = Instant::now(); // simlint: allow(R2) -- busy_ns load metric only; load balancing consumes it between phases, DES state never does
        {
            let chare = &mut self.chares[li].1;
            let mut ctx = Ctx {
                sender: &mut self.out,
                reductions: &mut self.reductions,
                self_id: env.to,
            };
            chare.receive(env.msg, &mut ctx);
        }
        self.stats.busy_ns += start.elapsed().as_nanos() as u64;
        self.stats.processed += 1;
        // Drain-and-restore keeps the outbox capacity across receives.
        let mut items = std::mem::take(&mut self.out.items);
        for (to, msg) in items.drain(..) {
            self.route(to, msg);
        }
        self.out.items = items;
    }

    /// Process one inbound item; returns `false` for control items that end
    /// the phase loop.
    fn handle(&mut self, item: Item<M>) -> bool {
        match item {
            Item::Direct(env) => {
                self.execute(env);
                self.cd.consume(self.pe, 1);
                true
            }
            Item::PhaseStart => true, // late arrival; nothing to do
            Item::Shutdown => false,
        }
    }

    fn drain_local(&mut self) {
        while let Some(env) = self.local_q.pop_front() {
            self.execute(env);
        }
    }

    /// Work until completion detection fires (`true`) or the engine shuts
    /// down (`false`). The caller has already reset the phase counters.
    fn run_phase_loop(&mut self) -> bool {
        loop {
            // Eat everything available without blocking.
            let mut worked = false;
            self.drain_local();
            while let Ok(item) = self.rx.try_recv() {
                if !self.handle(item) {
                    return false; // shutdown mid-phase
                }
                self.drain_local();
                worked = true;
            }
            if worked {
                continue;
            }
            // Idle.
            self.cd.set_idle(self.pe, true);
            match self.rx.recv_timeout(Duration::from_micros(200)) {
                Ok(item) => {
                    self.cd.set_idle(self.pe, false);
                    if !self.handle(item) {
                        return false;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.cd.is_done() {
                        return true;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return false,
            }
        }
    }

    fn run(mut self) {
        loop {
            // Await PhaseStart (or Shutdown). A data item that raced ahead
            // of PhaseStart begins the phase itself; `handle` then ignores
            // the PhaseStart when it arrives.
            let raced = match self.rx.recv() {
                Ok(Item::PhaseStart) => None,
                Ok(Item::Shutdown) | Err(_) => break,
                Ok(data) => Some(data),
            };
            self.stats = PeStats::default();
            self.reductions.clear();
            if let Some(item) = raced {
                self.cd.set_idle(self.pe, false);
                if !self.handle(item) {
                    break;
                }
            }
            if !self.run_phase_loop() {
                break;
            }
            let _ = self
                .stats_tx
                .send((self.pe, self.stats, self.reductions.clone()));
        }
        let chares = std::mem::take(&mut self.chares);
        let _ = self.chares_tx.send(chares);
    }
}

/// The threaded engine. Threads spawn on the first phase.
pub struct ThreadEngine<M: Message> {
    cfg: RuntimeConfig,
    pending: Vec<(ChareId, u32, Box<dyn Chare<M>>)>,
    pe_of: Vec<u32>,
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
            cfg,
            pending: Vec::new(),
            pe_of: Vec::new(),
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
        assert!(pe < self.cfg.n_pes);
        let idx = id.0 as usize;
        if self.pe_of.len() <= idx {
            self.pe_of.resize(idx + 1, u32::MAX);
        }
        assert!(self.pe_of[idx] == u32::MAX, "duplicate chare id {idx}");
        self.pe_of[idx] = pe;
        self.pending.push((id, pe, chare));
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
        let pe_of = Arc::new(std::mem::take(&mut self.pe_of));
        self.pe_of = pe_of.as_ref().clone();

        // Distribute pending chares per PE.
        let mut per_pe: Vec<ChareCrate<M>> = (0..n).map(|_| Vec::new()).collect();
        for (id, pe, chare) in self.pending.drain(..) {
            per_pe[pe as usize].push((id, chare));
        }
        let n_chares = pe_of.len();

        for (pe, chares) in per_pe.into_iter().enumerate() {
            let mut local_idx = vec![u32::MAX; n_chares];
            for (i, (id, _)) in chares.iter().enumerate() {
                local_idx[id.0 as usize] = i as u32;
            }
            let worker = Worker {
                pe: pe as u32,
                cfg: self.cfg,
                rx: rxs[pe].clone(),
                txs: self.txs.clone(),
                cd: self.cd.clone(),
                stats_tx: stats_tx.clone(),
                chares_tx: chares_tx.clone(),
                pe_of: pe_of.clone(),
                chares,
                local_idx,
                local_q: VecDeque::new(),
                stats: PeStats::default(),
                reductions: ReductionSlots::default(),
                out: OutBuf { items: Vec::new() },
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
        for tx in &self.txs {
            let _ = tx.send(Item::PhaseStart);
        }
        for (to, msg) in injections {
            let pe = self.pe_of[to.0 as usize];
            self.cd.produce(pe, 1);
            let _ = self.txs[pe as usize].send(Item::Direct(Envelope { to, msg }));
        }
        // Detection loop, with an optional wall-clock watchdog so a hung
        // phase in a conformance run fails with the detector's counters
        // instead of spinning until the CI timeout.
        let deadline = (self.cfg.watchdog_secs > 0).then(|| {
            // simlint: allow(R2) -- hang watchdog arming; never feeds simulation state
            std::time::Instant::now() + Duration::from_secs(self.cfg.watchdog_secs as u64)
        });
        loop {
            if self.cd.try_detect() {
                self.cd.mark_done();
                break;
            }
            if let Some(d) = deadline {
                assert!(
                    // simlint: allow(R2) -- hang watchdog check; aborts the run, never feeds results
                    std::time::Instant::now() < d,
                    "phase watchdog ({}s) expired before completion detection fired \
                     (produced {}, consumed {})",
                    self.cfg.watchdog_secs,
                    self.cd.total_produced(),
                    self.cd.total_consumed()
                );
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        // Collect per-PE stats.
        let rx = self.stats_rx.as_ref().unwrap();
        let mut per_pe = vec![PeStats::default(); self.cfg.n_pes as usize];
        let mut reductions = ReductionSlots::default();
        for _ in 0..self.cfg.n_pes {
            let (pe, stats, red) = rx.recv().expect("worker stats");
            per_pe[pe as usize] = stats;
            reductions.merge(&red);
        }
        PhaseStats { per_pe, reductions }
    }

    /// Stop the workers and collect all chares.
    pub fn into_chares(mut self) -> Vec<(ChareId, Box<dyn Chare<M>>)> {
        if !self.started {
            let pending = std::mem::take(&mut self.pending);
            return pending.into_iter().map(|(id, _, c)| (id, c)).collect();
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
    use crate::config::RuntimeConfig;

    struct Relay {
        next: ChareId,
        seen: u64,
    }

    #[derive(Debug)]
    struct Token(u64);
    impl Message for Token {}

    impl Chare<Token> for Relay {
        fn receive(&mut self, msg: Token, ctx: &mut Ctx<'_, Token>) {
            self.seen += 1;
            ctx.contribute(0, 1);
            if msg.0 > 0 {
                ctx.send(self.next, Token(msg.0 - 1));
            }
        }

        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    fn ring(n_chares: u32, n_pes: u32) -> ThreadEngine<Token> {
        let mut eng = ThreadEngine::new(RuntimeConfig::threaded(n_pes));
        for i in 0..n_chares {
            eng.add_chare(
                ChareId(i),
                i % n_pes,
                Box::new(Relay {
                    next: ChareId((i + 1) % n_chares),
                    seen: 0,
                }),
            );
        }
        eng
    }

    #[test]
    fn token_ring_across_threads() {
        let mut eng = ring(8, 4);
        let stats = eng.run_phase(vec![(ChareId(0), Token(100))]);
        assert_eq!(stats.reduction(0), 101);
        assert_eq!(stats.totals().processed, 101);
        let chares = eng.into_chares();
        assert_eq!(chares.len(), 8);
    }

    #[test]
    fn repeated_phases() {
        let mut eng = ring(6, 3);
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
        let mut eng = ring(4, 2);
        let stats = eng.run_phase(vec![]);
        assert_eq!(stats.totals().processed, 0);
        eng.into_chares();
    }

    #[test]
    fn shutdown_before_start_returns_chares() {
        let eng = ring(5, 2);
        assert_eq!(eng.into_chares().len(), 5);
    }
}
