//! The deterministic sequential engine.
//!
//! Simulates any number of PEs on the calling thread with strict
//! round-robin draining, while keeping every counter the threaded engine
//! keeps — including per-PE busy time, which makes this engine the
//! calibration harness for `scale-model`: run the real application at P
//! simulated PEs on one core and read off per-PE compute times and message
//! counts.

use crate::chare::{Chare, ChareId, Ctx, Envelope, Message, Sender};
use crate::config::RuntimeConfig;
use crate::stats::{PeStats, PhaseStats, ReductionSlots};
use std::collections::VecDeque;
use std::time::Instant;

/// Messages drained from one PE's queue before moving to the next
/// (fairness quantum).
const QUANTUM: usize = 256;

struct OutBuf<M> {
    items: Vec<(ChareId, M)>,
}

impl<M: Message> Sender<M> for OutBuf<M> {
    fn send(&mut self, to: ChareId, msg: M) {
        self.items.push((to, msg));
    }
}

/// The sequential engine.
pub struct SeqEngine<M: Message> {
    cfg: RuntimeConfig,
    chares: Vec<Option<Box<dyn Chare<M>>>>,
    pe_of: Vec<u32>,
    queues: Vec<VecDeque<Envelope<M>>>,
    stats: Vec<PeStats>,
    reductions: Vec<ReductionSlots>,
    out: OutBuf<M>,
}

impl<M: Message> SeqEngine<M> {
    /// Create an engine for `cfg.n_pes` simulated PEs.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let n = cfg.n_pes as usize;
        SeqEngine {
            chares: Vec::new(),
            pe_of: Vec::new(),
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            stats: vec![PeStats::default(); n],
            reductions: vec![ReductionSlots::default(); n],
            out: OutBuf { items: Vec::new() },
            cfg,
        }
    }

    /// Register a chare on a PE. Ids must be dense from 0.
    pub fn add_chare(&mut self, id: ChareId, pe: u32, chare: Box<dyn Chare<M>>) {
        assert!(pe < self.cfg.n_pes, "pe {pe} out of range");
        let idx = id.0 as usize;
        if self.chares.len() <= idx {
            self.chares.resize_with(idx + 1, || None);
            self.pe_of.resize(idx + 1, u32::MAX);
        }
        assert!(self.chares[idx].is_none(), "duplicate chare id {idx}");
        self.chares[idx] = Some(chare);
        self.pe_of[idx] = pe;
    }

    fn route(&mut self, src_pe: u32, to: ChareId, msg: M) {
        let dst_pe = self.pe_of[to.0 as usize];
        debug_assert_ne!(dst_pe, u32::MAX, "send to unregistered chare {}", to.0);
        let st = &mut self.stats[src_pe as usize];
        if dst_pe == src_pe {
            st.sent_self += 1;
        } else if self.cfg.smp.same_process(src_pe, dst_pe) {
            // Direct memory copy between threads of one process (§IV-A).
            st.sent_intra += 1;
        } else {
            st.sent_remote += 1;
            st.network_packets += 1;
            st.remote_bytes += msg.size_bytes() as u64;
        }
        self.queues[dst_pe as usize].push_back(Envelope { to, msg });
    }

    fn process_one(&mut self, pe: u32, env: Envelope<M>) {
        let idx = env.to.0 as usize;
        let mut chare = self.chares[idx].take().unwrap_or_else(|| {
            panic!("message for unregistered chare {idx}");
        });
        let start = Instant::now(); // simlint: allow(R2) -- busy_ns load metric only; load balancing consumes it between phases, DES state never does
        {
            let mut ctx = Ctx {
                sender: &mut self.out,
                reductions: &mut self.reductions[pe as usize],
                self_id: env.to,
            };
            chare.receive(env.msg, &mut ctx);
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        self.chares[idx] = Some(chare);
        let st = &mut self.stats[pe as usize];
        st.busy_ns += elapsed;
        st.processed += 1;
        // Route what the chare sent (drain-and-restore keeps capacity).
        let mut items = std::mem::take(&mut self.out.items);
        for (to, msg) in items.drain(..) {
            self.route(pe, to, msg);
        }
        self.out.items = items;
    }

    /// Run one phase to completion: inject, then drain round-robin until no
    /// queue holds a message.
    pub fn run_phase(&mut self, injections: Vec<(ChareId, M)>) -> PhaseStats {
        let n = self.cfg.n_pes as usize;
        for s in &mut self.stats {
            *s = PeStats::default();
        }
        for r in &mut self.reductions {
            r.clear();
        }
        for (to, msg) in injections {
            let pe = self.pe_of[to.0 as usize];
            self.queues[pe as usize].push_back(Envelope { to, msg });
        }
        loop {
            let mut processed_any = false;
            for pe in 0..n {
                for _ in 0..QUANTUM {
                    match self.queues[pe].pop_front() {
                        Some(env) => {
                            self.process_one(pe as u32, env);
                            processed_any = true;
                        }
                        None => break,
                    }
                }
            }
            if !processed_any {
                break;
            }
        }
        let mut reductions = ReductionSlots::default();
        for r in &self.reductions {
            reductions.merge(r);
        }
        PhaseStats {
            per_pe: self.stats.clone(),
            reductions,
        }
    }

    /// Tear down, returning all chares.
    pub fn into_chares(self) -> Vec<(ChareId, Box<dyn Chare<M>>)> {
        self.chares
            .into_iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (ChareId(i as u32), c)))
            .collect()
    }

    /// Immutable access to a chare (between phases) for result extraction.
    pub fn chare(&self, id: ChareId) -> Option<&dyn Chare<M>> {
        self.chares.get(id.0 as usize).and_then(|c| c.as_deref())
    }

    /// Serialize every chare that opts into checkpointing
    /// ([`Chare::snapshot`] returning `Some`), as `(chare id, bytes)`
    /// pairs. Only meaningful between phases.
    pub fn snapshot_chares(&self) -> Vec<(u32, Vec<u8>)> {
        self.chares
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                c.as_ref()
                    .and_then(|c| c.snapshot().map(|bytes| (i as u32, bytes)))
            })
            .collect()
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> u32 {
        self.cfg.n_pes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;

    /// Token-passing chare: forwards a countdown to the next chare.
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

    fn ring_engine(n_chares: u32, n_pes: u32) -> SeqEngine<Token> {
        let mut eng = SeqEngine::new(RuntimeConfig::sequential(n_pes));
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
        for i in 0..4u32 {
            eng.add_chare(
                ChareId(i),
                i,
                Box::new(Relay {
                    next: ChareId((i + 1) % 4),
                    seen: 0,
                }),
            );
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
        // State persists across phases though:
        let total_seen: u64 = eng
            .into_chares()
            .into_iter()
            .map(|(_, c)| {
                // Downcast via the concrete test type is unavailable for
                // Box<dyn Chare>; instead verify through reductions above.
                let _ = c;
                0u64
            })
            .sum();
        let _ = total_seen;
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
        eng.add_chare(
            ChareId(0),
            0,
            Box::new(Relay {
                next: ChareId(0),
                seen: 0,
            }),
        );
        eng.add_chare(
            ChareId(0),
            0,
            Box::new(Relay {
                next: ChareId(0),
                seen: 0,
            }),
        );
    }
}
