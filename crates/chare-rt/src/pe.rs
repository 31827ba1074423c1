//! The processing element every engine shares.
//!
//! In the paper's runtime (§II-C) each PE runs entry methods on the chares
//! mapped to it. The engines differ only in how a message reaches its PE —
//! round-robin queues ([`crate::seq`]), channels ([`crate::threads`]), a
//! seeded virtual-time heap ([`crate::vt`]), the wire ([`crate::net`]).
//! What happens once it is there lives here, once: the dense chare table,
//! the timed entry-method call, the send count, the phase's counters, and
//! how an idle PE of `threads` or `net` waits for its next message.

use crate::chare::{Chare, ChareId, Ctx, Message, Sender};
use crate::config::{RuntimeConfig, SmpConfig};
use crate::stats::{PeStats, PhaseStats, ReductionSlots};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

/// Messages drained from one PE's queue before moving to the next
/// (fairness quantum of a round-robin pass).
const QUANTUM: usize = 256;
/// Polls an idle wait makes, with a `yield_now` after each miss, before
/// it parks.
pub(crate) const POLL_TRIES: u32 = 50;

/// What a chare sent from inside one entry method, in send order.
struct OutBuf<M> {
    items: VecDeque<(ChareId, M)>,
}

impl<M: Message> Sender<M> for OutBuf<M> {
    fn send(&mut self, to: ChareId, msg: M) {
        self.items.push_back((to, msg));
    }
}

/// Where a send goes, seen from the PE that sent it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hop {
    /// To a chare on the sending PE.
    Own,
    /// To another PE of the same SMP process (shared memory, §IV-A).
    Intra,
    /// To a PE in another process: a network message.
    Remote,
}

/// The chares and counters of the PEs one engine instance executes: all of
/// them on `seq` and `vt`, one per `threads` worker, a process's range on
/// `net`.
pub(crate) struct PeCore<M: Message> {
    smp: SmpConfig,
    n_pes: u32,
    /// The PEs held here; `stats[i]` belongs to PE `pes.start + i`.
    pes: Range<u32>,
    /// Dense by chare id; `Some` only for chares on a held PE.
    chares: Vec<Option<Box<dyn Chare<M>>>>,
    /// PE of every registered chare (`u32::MAX` = unregistered id).
    pe_of: Vec<u32>,
    stats: Vec<PeStats>,
    reductions: ReductionSlots,
    out: OutBuf<M>,
}

impl<M: Message> PeCore<M> {
    /// A core holding `pes` of `cfg`'s PEs, with no chares yet.
    pub(crate) fn new(cfg: &RuntimeConfig, pes: Range<u32>) -> Self {
        Self::with_map(cfg.smp, cfg.n_pes, pes, Vec::new())
    }

    /// A core holding `pes` over an existing chare map, with no chares.
    fn with_map(smp: SmpConfig, n_pes: u32, pes: Range<u32>, pe_of: Vec<u32>) -> Self {
        PeCore {
            smp,
            n_pes,
            stats: vec![PeStats::default(); pes.len()],
            pes,
            chares: pe_of.iter().map(|_| None).collect(),
            pe_of,
            reductions: ReductionSlots::default(),
            out: OutBuf {
                items: VecDeque::new(),
            },
        }
    }

    /// Register chare `id` on `pe`. Ids must be dense from 0. A chare
    /// whose PE is not held here only enters the map: every process of a
    /// multi-process run registers the full array and keeps its share.
    pub(crate) fn add(&mut self, id: ChareId, pe: u32, chare: Box<dyn Chare<M>>) {
        assert!(pe < self.n_pes, "pe {pe} out of range");
        let idx = id.0 as usize;
        if self.pe_of.len() <= idx {
            self.pe_of.resize(idx + 1, u32::MAX);
            self.chares.resize_with(idx + 1, || None);
        }
        assert!(self.pe_of[idx] == u32::MAX, "duplicate chare id {idx}");
        self.pe_of[idx] = pe;
        if self.pes.contains(&pe) {
            self.chares[idx] = Some(chare);
        }
    }

    /// The PE chare `to` lives on.
    pub(crate) fn pe_of(&self, to: ChareId) -> u32 {
        let pe = self.pe_of[to.0 as usize];
        debug_assert_ne!(pe, u32::MAX, "message for unregistered chare {}", to.0);
        pe
    }

    /// The chare → PE map, indexed by chare id.
    pub(crate) fn map(&self) -> &[u32] {
        &self.pe_of
    }

    /// Whether `pe` is one of the PEs held here.
    pub(crate) fn holds(&self, pe: u32) -> bool {
        self.pes.contains(&pe)
    }

    /// Run `msg` through chare `to`'s entry method on `pe`: time it into
    /// `busy_ns` and count it as processed. What the chare sent waits in
    /// the outbox, to be taken with [`Self::pop_sent`] in send order.
    pub(crate) fn execute(&mut self, pe: u32, to: ChareId, msg: M) {
        let idx = to.0 as usize;
        let chare = self.chares[idx]
            .as_mut()
            .unwrap_or_else(|| panic!("message for unregistered chare {idx}"));
        let mut ctx = Ctx {
            sender: &mut self.out,
            reductions: &mut self.reductions,
            self_id: to,
        };
        let start = Instant::now(); // simlint: allow(R2) -- busy_ns load metric only; load balancing consumes it between phases, DES state never does
        chare.receive(msg, &mut ctx);
        let elapsed = start.elapsed().as_nanos() as u64;
        let st = &mut self.stats[(pe - self.pes.start) as usize];
        st.busy_ns += elapsed;
        st.processed += 1;
    }

    /// The oldest send of the last entry method not yet routed.
    pub(crate) fn pop_sent(&mut self) -> Option<(ChareId, M)> {
        self.out.items.pop_front()
    }

    /// Count one send of `msg` from `src` to chare `to` — self, intra or
    /// remote, and a remote one's packet and bytes — and say where it goes.
    pub(crate) fn count_send(&mut self, src: u32, to: ChareId, msg: &M) -> (u32, Hop) {
        let dst = self.pe_of(to);
        let st = &mut self.stats[(src - self.pes.start) as usize];
        let hop = if dst == src {
            st.sent_self += 1;
            Hop::Own
        } else if self.smp.same_process(src, dst) {
            st.sent_intra += 1;
            Hop::Intra
        } else {
            st.sent_remote += 1;
            st.network_packets += 1;
            st.remote_bytes += msg.size_bytes() as u64;
            Hop::Remote
        };
        (dst, hop)
    }

    /// Zero the counters and reductions for a new phase.
    pub(crate) fn begin_phase(&mut self) {
        self.stats.fill(PeStats::default());
        self.reductions.clear();
    }

    /// The counters of held PE `pe`, for what an engine counts itself
    /// (faults, wire traffic).
    pub(crate) fn stats_mut(&mut self, pe: u32) -> &mut PeStats {
        &mut self.stats[(pe - self.pes.start) as usize]
    }

    /// Every held PE's counters, as `(pe, counters)`.
    pub(crate) fn per_pe(&self) -> Vec<(u32, PeStats)> {
        self.pes.clone().zip(self.stats.iter().copied()).collect()
    }

    /// This phase's reductions so far.
    pub(crate) fn reductions(&self) -> &ReductionSlots {
        &self.reductions
    }

    /// The phase's outcome on the held PEs: their counters in PE order and
    /// the reductions.
    pub(crate) fn phase_stats(&self) -> PhaseStats {
        PhaseStats {
            per_pe: self.stats.clone(),
            reductions: self.reductions.clone(),
        }
    }

    /// Serialize every held chare that opts into checkpointing
    /// ([`Chare::snapshot`] returning `Some`), as `(chare id, bytes)`
    /// pairs. Only meaningful between phases.
    pub(crate) fn snapshot(&self) -> Vec<(u32, Vec<u8>)> {
        self.chares
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                c.as_ref()
                    .and_then(|c| c.snapshot().map(|bytes| (i as u32, bytes)))
            })
            .collect()
    }

    /// Take every held chare out, in id order.
    pub(crate) fn take_chares(&mut self) -> Vec<(ChareId, Box<dyn Chare<M>>)> {
        std::mem::take(&mut self.chares)
            .into_iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (ChareId(i as u32), c)))
            .collect()
    }

    /// Move every chare into a core of its own PE, one per PE (the
    /// threaded engine's workers). This core keeps the map.
    pub(crate) fn split(&mut self) -> Vec<PeCore<M>> {
        let mut cores: Vec<PeCore<M>> = (0..self.n_pes)
            .map(|pe| Self::with_map(self.smp, self.n_pes, pe..pe + 1, self.pe_of.clone()))
            .collect();
        for (i, chare) in std::mem::take(&mut self.chares).into_iter().enumerate() {
            if let Some(chare) = chare {
                cores[self.pe_of[i] as usize].chares[i] = Some(chare);
            }
        }
        cores
    }
}

/// One FIFO round-robin pass over an engine's per-PE queues: up to
/// [`QUANTUM`] envelopes from each queue in turn, each handed to `run` with
/// its queue's index. An envelope pushed onto the current queue during its
/// turn is still taken in that turn. Returns whether any envelope ran.
pub(crate) fn round_robin<E, T>(
    eng: &mut E,
    queues: fn(&mut E) -> &mut Vec<VecDeque<T>>,
    mut run: impl FnMut(&mut E, usize, T),
) -> bool {
    let mut ran = false;
    for i in 0..queues(eng).len() {
        for _ in 0..QUANTUM {
            let Some(item) = queues(eng)[i].pop_front() else {
                break;
            };
            run(eng, i, item);
            ran = true;
        }
    }
    ran
}

/// How every idle PE of a multi-PE engine waits: `poll` its source
/// [`POLL_TRIES`] times, yielding the CPU after each miss, and return the
/// first `Some`; after the last miss, `park` (block until woken or timed
/// out) and return what it does. A message that arrives within the poll
/// costs no wake-up. It yields rather than busy-spins: with more runnable
/// threads or processes than cores, the PE a spinning poller waits for may
/// be queued on the poller's own CPU, and runs only once the spin is
/// spent.
pub(crate) fn poll_then_park<T>(
    mut poll: impl FnMut() -> Option<T>,
    park: impl FnOnce() -> T,
) -> T {
    for _ in 0..POLL_TRIES {
        if let Some(ready) = poll() {
            return ready;
        }
        std::thread::yield_now();
    }
    park()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_source_ready_within_the_poll_returns_without_parking() {
        for ready_at in [1, 2, POLL_TRIES] {
            let mut polls = 0;
            let got = poll_then_park(
                || {
                    polls += 1;
                    (polls == ready_at).then_some(polls)
                },
                || panic!("parked although poll {ready_at} was ready"),
            );
            assert_eq!(got, ready_at);
            assert_eq!(polls, ready_at);
        }
    }

    #[test]
    fn an_empty_source_parks_only_after_every_poll_missed() {
        let polls = std::cell::Cell::new(0);
        let polls_at_park = poll_then_park(
            || {
                polls.set(polls.get() + 1);
                None
            },
            || polls.get(),
        );
        assert_eq!(polls_at_park, POLL_TRIES);
        assert_eq!(polls.get(), POLL_TRIES);
    }
}
