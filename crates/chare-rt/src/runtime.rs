//! The engine-agnostic runtime facade.

use crate::chare::{Chare, ChareId, Message};
use crate::config::{ExecMode, RuntimeConfig, SmpConfig};
use crate::net::NetEngine;
use crate::seq::SeqEngine;
use crate::stats::PhaseStats;
use crate::threads::ThreadEngine;
use crate::vt::VtEngine;

enum Engine<M: Message> {
    Seq(SeqEngine<M>),
    Threads(ThreadEngine<M>),
    Vt(Box<VtEngine<M>>),
    Net(Box<NetEngine<M>>),
}

/// A message-driven runtime hosting one chare array across `n_pes`
/// processing elements.
///
/// ```
/// use chare_rt::{Chare, ChareId, Ctx, Message, Runtime, RuntimeConfig};
///
/// #[derive(Debug)]
/// struct Ping(u32);
/// impl Message for Ping {}
///
/// struct Counter(u64);
/// impl Chare<Ping> for Counter {
///     fn receive(&mut self, msg: Ping, ctx: &mut Ctx<'_, Ping>) {
///         self.0 += 1;
///         ctx.contribute(0, 1);
///         if msg.0 > 0 {
///             ctx.send(ctx.self_id(), Ping(msg.0 - 1));
///         }
///     }
///
///     fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> { self }
/// }
///
/// let mut rt = Runtime::new(RuntimeConfig::sequential(2));
/// rt.add_chare(ChareId(0), 0, Box::new(Counter(0)));
/// let stats = rt.run_phase(vec![(ChareId(0), Ping(9))]);
/// assert_eq!(stats.reduction(0), 10);
/// ```
pub struct Runtime<M: Message> {
    engine: Engine<M>,
    cfg: RuntimeConfig,
}

impl<M: Message> Runtime<M> {
    /// Build a runtime.
    pub fn new(cfg: RuntimeConfig) -> Self {
        assert!(cfg.n_pes >= 1, "need at least one PE");
        let engine = match cfg.mode {
            ExecMode::Sequential => Engine::Seq(SeqEngine::new(cfg)),
            ExecMode::Threads => Engine::Threads(ThreadEngine::new(cfg)),
            ExecMode::VirtualTime => Engine::Vt(Box::new(VtEngine::new(cfg))),
            // A net runtime without peers is the sequential engine with
            // every PE in one process.
            ExecMode::Net => match NetEngine::new(cfg) {
                Some(net) => Engine::Net(Box::new(net)),
                None => Engine::Seq(SeqEngine::new(RuntimeConfig {
                    smp: SmpConfig {
                        pes_per_process: cfg.n_pes,
                    },
                    ..cfg
                })),
            },
        };
        Runtime { engine, cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Register a chare on a PE. All chares must be added before the first
    /// phase runs.
    pub fn add_chare(&mut self, id: ChareId, pe: u32, chare: Box<dyn Chare<M>>) {
        match &mut self.engine {
            Engine::Seq(e) => e.add_chare(id, pe, chare),
            Engine::Threads(e) => e.add_chare(id, pe, chare),
            Engine::Vt(e) => e.add_chare(id, pe, chare),
            Engine::Net(e) => e.add_chare(id, pe, chare),
        }
    }

    /// Run one phase of stages, each stage's injections delivered once the
    /// stage before it is complete (no message of it in flight or
    /// unprocessed), and return one [`PhaseStats`] per stage.
    pub fn run_stages(&mut self, stages: Vec<Vec<(ChareId, M)>>) -> Vec<PhaseStats> {
        assert!(!stages.is_empty(), "a phase has at least one stage");
        match &mut self.engine {
            Engine::Seq(e) => e.run_stages(stages),
            Engine::Threads(e) => e.run_stages(stages),
            Engine::Vt(e) => e.run_stages(stages),
            Engine::Net(e) => e.run_stages(stages),
        }
    }

    /// Inject the given messages and run until completion detection fires
    /// (no message awaiting processing or in transit): one stage.
    pub fn run_phase(&mut self, injections: Vec<(ChareId, M)>) -> PhaseStats {
        self.run_stages(vec![injections]).remove(0)
    }

    /// Net engine, root process only: tear down (broadcast SHUTDOWN, stop
    /// the comm thread) and return every worker's exit code indexed
    /// `rank - 1`. Empty for every other engine/role. Fault-injection
    /// tests call this after catching a transport panic to assert that
    /// survivors exited cleanly ([`crate::net::TRANSPORT_EXIT`]) rather
    /// than panicking.
    pub fn reap_workers(&mut self) -> Vec<Option<i32>> {
        match &mut self.engine {
            Engine::Net(e) => e.reap_workers(),
            _ => Vec::new(),
        }
    }

    /// Net engine: this process's rank (0 for the root, and for a net
    /// runtime that runs as the sequential engine). 0 for every other
    /// engine.
    pub fn net_rank(&self) -> u32 {
        match &self.engine {
            Engine::Net(e) => e.net_rank(),
            _ => 0,
        }
    }

    /// The PEs whose chares this process runs: under the net engine its
    /// own range, and every PE otherwise (a net runtime that runs as the
    /// sequential engine included).
    pub fn local_pes(&self) -> std::ops::Range<u32> {
        match &self.engine {
            Engine::Net(e) => e.local_pes(),
            _ => 0..self.cfg.n_pes,
        }
    }

    /// Serialize every locally-owned chare that opts into checkpointing
    /// ([`Chare::snapshot`] returning `Some`), as `(chare id, bytes)`
    /// pairs. Only meaningful between phases, when no messages are in
    /// flight. Supported on the net and sequential engines (the ones the
    /// resilient driver runs on); empty elsewhere.
    pub fn snapshot_local(&self) -> Vec<(u32, Vec<u8>)> {
        match &self.engine {
            Engine::Net(e) => e.snapshot_chares(),
            Engine::Seq(e) => e.snapshot_chares(),
            _ => Vec::new(),
        }
    }

    /// Net engine: record that a recovery snapshot was committed (feeds
    /// the `recovery_checkpoints` stat). No-op elsewhere.
    pub fn note_checkpoint(&mut self) {
        if let Engine::Net(e) = &mut self.engine {
            e.note_checkpoint();
        }
    }

    /// Net engine: record that state was rebuilt from a committed epoch
    /// (feeds the `recovery_restores` stat). No-op elsewhere.
    pub fn note_restore(&mut self) {
        if let Engine::Net(e) = &mut self.engine {
            e.note_restore();
        }
    }

    /// Tear down and return all chares (sorted by id).
    pub fn into_chares(self) -> Vec<(ChareId, Box<dyn Chare<M>>)> {
        match self.engine {
            Engine::Seq(e) => e.into_chares(),
            Engine::Threads(e) => e.into_chares(),
            Engine::Vt(e) => e.into_chares(),
            Engine::Net(e) => e.into_chares(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chare::Ctx;

    #[derive(Debug)]
    struct Hop {
        remaining: u32,
        payload: u64,
    }
    impl Message for Hop {}

    /// Accumulates payloads and forwards around a ring.
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

    fn build(cfg: RuntimeConfig) -> Runtime<Hop> {
        let mut rt = Runtime::new(cfg);
        for i in 0..10u32 {
            rt.add_chare(
                ChareId(i),
                i % cfg.n_pes,
                Box::new(Acc {
                    next: ChareId((i + 1) % 10),
                    sum: 0,
                }),
            );
        }
        rt
    }

    fn run_and_total(cfg: RuntimeConfig) -> (u64, u64) {
        let mut rt = build(cfg);
        let stats = rt.run_phase(vec![(
            ChareId(0),
            Hop {
                remaining: 50,
                payload: 1,
            },
        )]);
        (stats.reduction(0), stats.totals().processed)
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let (sum_seq, n_seq) = run_and_total(RuntimeConfig::sequential(4));
        let (sum_thr, n_thr) = run_and_total(RuntimeConfig::threaded(4));
        assert_eq!(sum_seq, sum_thr);
        assert_eq!(n_seq, n_thr);
        // Payload 1..=51 summed = 51·52/2 − 0 = 1326.
        assert_eq!(sum_seq, 1326);
        assert_eq!(n_seq, 51);
    }

    #[test]
    fn agree_across_pe_counts() {
        let baseline = run_and_total(RuntimeConfig::sequential(1));
        for pes in [2u32, 3, 5, 10] {
            assert_eq!(run_and_total(RuntimeConfig::sequential(pes)), baseline);
        }
        for pes in [2u32, 4] {
            assert_eq!(run_and_total(RuntimeConfig::threaded(pes)), baseline);
        }
    }

    #[test]
    fn no_opt_config_same_results() {
        let inj = |cfg: RuntimeConfig| {
            let mut rt = build(cfg);
            let stats = rt.run_phase(vec![(
                ChareId(0),
                Hop {
                    remaining: 200,
                    payload: 1,
                },
            )]);
            (stats.reduction(0), stats.totals().processed)
        };
        assert_eq!(
            inj(RuntimeConfig::sequential(4)),
            inj(RuntimeConfig::sequential(4).no_opt())
        );
    }

    #[test]
    fn chares_survive_and_return() {
        let mut rt = build(RuntimeConfig::threaded(3));
        rt.run_phase(vec![(
            ChareId(0),
            Hop {
                remaining: 9,
                payload: 1,
            },
        )]);
        let chares = rt.into_chares();
        assert_eq!(chares.len(), 10);
        assert_eq!(chares[3].0, ChareId(3));
    }
}
