//! The deterministic sequential engine.
//!
//! Simulates any number of PEs on the calling thread with strict
//! round-robin draining, while keeping every counter the threaded engine
//! keeps — including per-PE busy time, which makes this engine the
//! calibration harness for `scale-model`: run the real application at P
//! simulated PEs on one core and read off per-PE compute times and message
//! counts.

use crate::chare::{Chare, ChareId, Envelope, Message};
use crate::config::RuntimeConfig;
use crate::pe::{self, PeCore};
use crate::stats::PhaseStats;
use std::collections::VecDeque;

/// The sequential engine.
pub struct SeqEngine<M: Message> {
    core: PeCore<M>,
    queues: Vec<VecDeque<Envelope<M>>>,
}

impl<M: Message> SeqEngine<M> {
    /// Create an engine for `cfg.n_pes` simulated PEs.
    pub fn new(cfg: RuntimeConfig) -> Self {
        SeqEngine {
            core: PeCore::new(&cfg, 0..cfg.n_pes),
            queues: (0..cfg.n_pes).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Register a chare on a PE. Ids must be dense from 0.
    pub fn add_chare(&mut self, id: ChareId, pe: u32, chare: Box<dyn Chare<M>>) {
        self.core.add(id, pe, chare);
    }

    /// Run one phase to completion: inject, then drain round-robin until no
    /// queue holds a message.
    pub fn run_phase(&mut self, injections: Vec<(ChareId, M)>) -> PhaseStats {
        self.core.begin_phase();
        for (to, msg) in injections {
            self.queues[self.core.pe_of(to) as usize].push_back(Envelope { to, msg });
        }
        while pe::round_robin(self, |e| &mut e.queues, Self::process) {}
        self.core.phase_stats()
    }

    /// Execute one envelope on `pe` and queue what it sent.
    fn process(&mut self, pe: usize, env: Envelope<M>) {
        let pe = pe as u32;
        self.core.execute(pe, env.to, env.msg);
        while let Some((to, msg)) = self.core.pop_sent() {
            let (dst, _) = self.core.count_send(pe, to, &msg);
            self.queues[dst as usize].push_back(Envelope { to, msg });
        }
    }

    /// Tear down, returning all chares in id order.
    pub fn into_chares(mut self) -> Vec<(ChareId, Box<dyn Chare<M>>)> {
        self.core.take_chares()
    }

    /// Serialize every chare that opts into checkpointing
    /// ([`Chare::snapshot`] returning `Some`), as `(chare id, bytes)`
    /// pairs. Only meaningful between phases.
    pub fn snapshot_chares(&self) -> Vec<(u32, Vec<u8>)> {
        self.core.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chare::Ctx;
    use crate::testkit::{self, Relay, Token};

    fn ring_engine(n_chares: u32, n_pes: u32) -> SeqEngine<Token> {
        let mut eng = SeqEngine::new(RuntimeConfig::sequential(n_pes));
        for (id, pe, chare) in testkit::ring(n_chares, n_pes) {
            eng.add_chare(id, pe, chare);
        }
        eng
    }

    #[test]
    fn token_ring_completes() {
        let mut eng = ring_engine(8, 4);
        let stats = eng.run_phase(vec![(ChareId(0), Token(100))]);
        // 101 deliveries total (token value 100 → 0).
        assert_eq!(stats.reduction(0), 101);
        assert_eq!(stats.totals().processed, 101);
    }

    #[test]
    fn message_classification() {
        // 4 PEs, 2 per process: chare i on pe i.
        let mut cfg = RuntimeConfig::sequential(4);
        cfg.smp.pes_per_process = 2;
        let mut eng = SeqEngine::new(cfg);
        for (id, pe, chare) in testkit::ring(4, 4) {
            eng.add_chare(id, pe, chare);
        }
        let stats = eng.run_phase(vec![(ChareId(0), Token(3))]);
        let t = stats.totals();
        // Hops: 0→1 (intra), 1→2 (remote), 2→3 (intra); injection isn't a
        // send.
        assert_eq!(t.sent_intra, 2);
        assert_eq!(t.sent_remote, 1);
        assert_eq!(t.sent_self, 0);
    }

    #[test]
    fn self_sends_cheapest() {
        struct SelfLooper;
        impl Chare<Token> for SelfLooper {
            fn receive(&mut self, msg: Token, ctx: &mut Ctx<'_, Token>) {
                if msg.0 > 0 {
                    ctx.send(ctx.self_id(), Token(msg.0 - 1));
                }
            }

            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        let mut eng = SeqEngine::new(RuntimeConfig::sequential(2));
        eng.add_chare(ChareId(0), 0, Box::new(SelfLooper));
        let stats = eng.run_phase(vec![(ChareId(0), Token(10))]);
        let t = stats.totals();
        assert_eq!(t.sent_self, 10);
        assert_eq!(t.sent_remote, 0);
        assert_eq!(t.network_packets, 0);
    }

    #[test]
    fn multiple_phases_reset_counters() {
        let mut eng = ring_engine(4, 2);
        let s1 = eng.run_phase(vec![(ChareId(0), Token(10))]);
        let s2 = eng.run_phase(vec![(ChareId(0), Token(5))]);
        assert_eq!(s1.reduction(0), 11);
        assert_eq!(s2.reduction(0), 6);
        // Chare state persists across phases.
        let total_seen: u64 = eng
            .into_chares()
            .into_iter()
            .map(|(_, c)| c.into_any().downcast::<Relay>().expect("a Relay").seen)
            .sum();
        assert_eq!(total_seen, 11 + 6);
    }

    #[test]
    fn busy_time_recorded() {
        struct Spin;
        impl Chare<Token> for Spin {
            fn receive(&mut self, _m: Token, _c: &mut Ctx<'_, Token>) {
                // A measurable amount of work.
                let mut acc = 0u64;
                for i in 0..100_000u64 {
                    acc = acc.wrapping_add(i * i);
                }
                std::hint::black_box(acc);
            }

            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        let mut eng = SeqEngine::new(RuntimeConfig::sequential(1));
        eng.add_chare(ChareId(0), 0, Box::new(Spin));
        let stats = eng.run_phase(vec![(ChareId(0), Token(0))]);
        assert!(stats.max_busy_ns() > 0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_chare_rejected() {
        let mut eng: SeqEngine<Token> = SeqEngine::new(RuntimeConfig::sequential(1));
        for (id, pe, chare) in testkit::ring(1, 1).into_iter().chain(testkit::ring(1, 1)) {
            eng.add_chare(id, pe, chare);
        }
    }
}
