//! The virtual-time deterministic-simulation-testing (DST) engine.
//!
//! A third engine behind [`crate::runtime::Runtime`]: all PEs simulated on
//! one thread, but — unlike [`crate::seq::SeqEngine`]'s strict round-robin
//! — message delivery is driven by a virtual-time event heap whose order is
//! a deterministic function of a `u64` fault seed. Any interleaving of
//! packet delivery the threaded engine could exhibit (and many it is
//! unlikely to) can be replayed exactly, and the [`crate::faults`] plan in
//! the send path injects delay, reordering, duplicate delivery, bounded
//! drop-with-redelivery, and PE stalls.
//!
//! The engine doubles as a harness for the §IV-B completion-detection
//! contract: it drives a real [`CompletionDetector`] with the same
//! produce/consume/idle protocol the threaded workers use and asserts, on
//! every event,
//!
//! * **no early signal** — if `try_claim()` releases a stage while any
//!   payload of that stage is still in flight, the detector (or our
//!   counting) is broken (a stage's injections are sent once the one
//!   before it drains, so unlike on `threads` none is in flight early);
//! * **bounded liveness** — virtual time may not exceed the budget accrued
//!   from scheduled packets (a runaway stall/retransmit loop trips it), and
//!   once the transport drains the detector *must* release the stage
//!   (unless the plan deliberately lost messages, in which case it must
//!   *not* fire, and the loss, the later stages' injections included, is
//!   surfaced in [`PeStats::lost`]).
//!
//! Every routed message is its own packet. Transport reliability is
//! modelled with a take-once payload slab: every packet's envelope is
//! stored once and taken by the first arrival; a duplicate arrival finds
//! it gone and is suppressed (exactly-once delivery from an at-least-once
//! wire). A drop without redelivery leaves the envelope stranded — counted
//! as lost at phase end, never silently eaten.

use crate::chare::{Chare, ChareId, Envelope, Message};
use crate::completion::CompletionDetector;
use crate::config::RuntimeConfig;
use crate::faults::{FaultRng, PlanFaults};
use crate::pe::{Hop, PeCore};
use crate::stats::PhaseStats;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Virtual ticks for an intra-process hop (shared-memory handoff).
const LAT_INTRA: u64 = 1;
/// Virtual ticks for an inter-process hop (network packet).
const LAT_REMOTE: u64 = 8;
/// Virtual ticks from a dropped transmission to its retransmission.
const LAT_RETRANSMIT: u64 = 64;
/// Slack added per packet to the virtual-time watchdog budget.
const WATCHDOG_SLACK: u64 = 16;

/// One scheduled packet arrival. Payloads live in the slab, so events stay
/// `Copy`-sized and the heap order — `(at, seq)`, with `seq` unique — is
/// total and deterministic.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: u64,
    seq: u64,
    dst_pe: u32,
    pkt: u32,
}

/// The DST engine, replaying [`RuntimeConfig::faults`].
pub struct VtEngine<M: Message> {
    cfg: RuntimeConfig,
    /// Decides each packet's fate from the plan's seeded stream.
    faults: PlanFaults,
    /// Deterministic stream for schedule-shaping choices the plan does not
    /// make (duplicate jitter).
    order_rng: FaultRng,
    core: PeCore<M>,
    heap: BinaryHeap<Reverse<Event>>,
    /// Take-once payload slab of `(source PE, envelope)`: `Some` = in
    /// flight, `None` = delivered.
    slab: Vec<Option<(u32, Envelope<M>)>>,
    /// Envelopes currently in the slab (produced, not yet consumed).
    in_flight: u64,
    now: u64,
    next_seq: u64,
    /// Virtual-time budget accrued from scheduled packets (watchdog).
    deadline: u64,
    stall_until: Vec<u64>,
    local_q: VecDeque<Envelope<M>>,
    cd: CompletionDetector,
}

impl<M: Message> VtEngine<M> {
    /// Engine replaying `cfg.faults`.
    pub fn new(cfg: RuntimeConfig) -> Self {
        VtEngine {
            faults: PlanFaults::new(cfg.faults),
            order_rng: FaultRng::new(cfg.faults.seed ^ 0xD57C0FFEE),
            core: PeCore::new(&cfg, 0..cfg.n_pes),
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            in_flight: 0,
            now: 0,
            next_seq: 0,
            deadline: 0,
            stall_until: vec![0; cfg.n_pes as usize],
            local_q: VecDeque::new(),
            cd: CompletionDetector::new(cfg.n_pes),
            cfg,
        }
    }

    /// Register a chare on a PE. Ids must be dense from 0.
    pub fn add_chare(&mut self, id: ChareId, pe: u32, chare: Box<dyn Chare<M>>) {
        self.core.add(id, pe, chare);
    }

    fn schedule(&mut self, at: u64, dst_pe: u32, pkt: u32) {
        // Arrivals scheduled while the destination is stalled land no
        // earlier than the stall's end.
        let at = at.max(self.stall_until[dst_pe as usize]);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event {
            at,
            seq,
            dst_pe,
            pkt,
        }));
    }

    /// Ship one envelope from `src` to `dst` as a packet, consulting the
    /// fault plan.
    fn send_packet(&mut self, src: u32, dst: u32, env: Envelope<M>) {
        let same_proc = self.cfg.smp.same_process(src, dst);
        let fate = self.faults.packet_fate();
        if fate.stall_ticks > 0 {
            let s = &mut self.stall_until[dst as usize];
            *s = (*s).max(self.now) + fate.stall_ticks;
        }
        let base = if same_proc { LAT_INTRA } else { LAT_REMOTE };
        let t0 = self.now + base + fate.extra_delay;
        // Watchdog budget: the latest arrival this send can generate is the
        // duplicate's jittered copy (< base + 2·(base + retransmit)) or the
        // retransmission (t0 + retransmit), on top of any stall this packet
        // opens. Each send accrues that allowance, so virtual time beyond
        // the budget means the schedule is feeding on itself.
        self.deadline = self
            .deadline
            .max(self.now)
            .saturating_add(fate.extra_delay + fate.stall_ticks + 3 * (base + LAT_RETRANSMIT))
            .saturating_add(WATCHDOG_SLACK);
        self.in_flight += 1;
        let pkt = self.slab.len() as u32;
        self.slab.push(Some((src, env)));
        if fate.drop {
            self.core.stats_mut(src).faults_dropped += 1;
            if fate.redeliver {
                self.schedule(t0 + LAT_RETRANSMIT, dst, pkt);
            }
            // No redelivery: the payload stays stranded in the slab and is
            // reported as lost at phase end.
            return;
        }
        self.schedule(t0, dst, pkt);
        if fate.duplicate {
            // Independent jitter, so the copy may overtake the original.
            let jitter = self.order_rng.below(2 * (base + LAT_RETRANSMIT));
            self.schedule(self.now + base + jitter, dst, pkt);
        }
    }

    /// Route one outgoing message from a chare running on `src`.
    fn route(&mut self, src: u32, to: ChareId, msg: M) {
        let (dst, hop) = self.core.count_send(src, to, &msg);
        if hop == Hop::Own {
            self.local_q.push_back(Envelope { to, msg });
            return;
        }
        self.cd.produce(src, 1);
        self.send_packet(src, dst, Envelope { to, msg });
    }

    /// Execute one envelope owned by `pe`.
    fn run_chare(&mut self, pe: u32, env: Envelope<M>) {
        self.core.execute(pe, env.to, env.msg);
        while let Some((to, msg)) = self.core.pop_sent() {
            self.route(pe, to, msg);
        }
    }

    /// Pop and process one event. Returns `false` when the heap is empty.
    fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.heap.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "virtual time went backwards");
        self.now = ev.at;
        assert!(
            self.now <= self.deadline,
            "virtual-time watchdog: t={} exceeds budget {} — runaway stall/retransmit schedule",
            self.now,
            self.deadline
        );
        let pe = ev.dst_pe;
        match self.slab[ev.pkt as usize].take() {
            None => {
                // The payload was already taken: this arrival is the
                // duplicate (or the late original the duplicate overtook).
                self.core.stats_mut(pe).faults_dup_suppressed += 1;
            }
            Some((_src, env)) => {
                self.in_flight -= 1;
                self.cd.set_idle(pe, false);
                // The envelope plus everything it self-enqueues.
                self.run_chare(pe, env);
                while let Some(e) = self.local_q.pop_front() {
                    self.run_chare(pe, e);
                }
                self.cd.consume(pe, 1);
                self.cd.set_idle(pe, true);
            }
        }
        // §IV-B contract, checked on every event: the detector may only
        // release the open stage when none of its payloads is in flight
        // (the later stages' injections are not sent yet).
        if let Some(stage) = self.cd.try_claim() {
            assert_eq!(
                self.in_flight, 0,
                "completion detection released stage {stage} early: {} envelope(s) \
                 still in flight at t={}",
                self.in_flight, self.now
            );
        }
        true
    }

    /// Run a phase of stages under the fault schedule: each stage's
    /// injections ride the faulty transport once the one before it has
    /// drained, and the detector must have released that stage by then.
    pub fn run_stages(&mut self, stages: Vec<Vec<(ChareId, M)>>) -> Vec<PhaseStats> {
        self.cd.reset(stages.iter().map(Vec::len));
        self.now = 0;
        self.deadline = WATCHDOG_SLACK;
        self.next_seq = 0;
        self.stall_until.iter_mut().for_each(|s| *s = 0);
        // All PEs start drained.
        for pe in 0..self.cfg.n_pes {
            self.cd.set_idle(pe, true);
        }
        let mut lost = 0u64;
        let mut out = Vec::with_capacity(stages.len());
        for (stage, injections) in (0u32..).zip(stages) {
            self.core.begin_phase();
            for (to, msg) in injections {
                // Injections ride the faulty transport like any other packet;
                // once a stage lost messages, no later one is released.
                let pe = self.core.pe_of(to);
                match lost {
                    0 => self.send_packet(pe, pe, Envelope { to, msg }),
                    _ => self.core.stats_mut(pe).lost += 1,
                }
            }
            while self.step() {}
            // Quiescence: the heap is empty. Account any envelopes a
            // non-benign plan stranded in the slab.
            for (src, _) in self.slab.drain(..).flatten() {
                self.core.stats_mut(src).lost += 1;
                lost += 1;
            }
            self.in_flight = 0;
            if lost == 0 {
                // Bounded liveness: with nothing lost, the detector must
                // release the stage the moment the transport drains.
                assert!(
                    self.cd.released() > stage || self.cd.try_claim() == Some(stage),
                    "completion detection failed to release stage {stage} at quiescence \
                     (produced {}, consumed {})",
                    self.cd.total_produced(),
                    self.cd.total_consumed()
                );
            } else {
                // Messages were lost: produced > consumed for good, so the
                // detector must *not* release — the stage ends only because
                // the lossy transport is out of packets, and the loss is
                // visible in the stats.
                assert_eq!(
                    self.cd.try_claim(),
                    None,
                    "completion detection fired despite {lost} lost message(s)"
                );
            }
            out.push(self.core.phase_stats());
        }
        out
    }

    /// Tear down, returning all chares (sorted by id).
    pub fn into_chares(mut self) -> Vec<(ChareId, Box<dyn Chare<M>>)> {
        self.core.take_chares()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::testkit::{self, Token};

    /// A one-stage phase.
    fn one_stage<M: Message>(eng: &mut VtEngine<M>, injections: Vec<(ChareId, M)>) -> PhaseStats {
        eng.run_stages(vec![injections]).remove(0)
    }

    fn ring(n_chares: u32, cfg: RuntimeConfig) -> VtEngine<Token> {
        let mut eng = VtEngine::new(cfg);
        for (id, pe, chare) in testkit::ring(n_chares, cfg.n_pes) {
            eng.add_chare(id, pe, chare);
        }
        eng
    }

    #[test]
    fn token_ring_completes_fault_free() {
        let mut eng = ring(8, RuntimeConfig::dst(4, FaultPlan::none(1)));
        let stats = one_stage(&mut eng, vec![(ChareId(0), Token(100))]);
        assert_eq!(stats.reduction(0), 101);
        assert_eq!(stats.totals().processed, 101);
        assert_eq!(stats.totals().lost, 0);
        // With no faults planned, none fire: a pure virtual-time scheduler.
        assert_eq!(stats.totals().faults_dropped, 0);
        assert_eq!(stats.totals().faults_dup_suppressed, 0);
    }

    #[test]
    fn every_grid_plan_preserves_the_outcome() {
        let reference = {
            let mut eng = ring(8, RuntimeConfig::dst(4, FaultPlan::none(0)));
            one_stage(&mut eng, vec![(ChareId(0), Token(200))]).reduction(0)
        };
        for plan in FaultPlan::GRID {
            for seed in [1u64, 2, 3] {
                let cfg = RuntimeConfig::dst(4, plan.with_seed(seed));
                let mut eng = ring(8, cfg);
                let stats = one_stage(&mut eng, vec![(ChareId(0), Token(200))]);
                assert_eq!(stats.reduction(0), reference, "{plan:?} seed {seed}");
                assert_eq!(stats.totals().lost, 0, "{plan:?} seed {seed}");
            }
        }
    }

    #[test]
    fn duplicates_are_suppressed_not_applied() {
        let mut plan = FaultPlan::duplicates(9);
        plan.dup_permille = 1000; // duplicate every packet
        let mut eng = ring(6, RuntimeConfig::dst(3, plan));
        let stats = one_stage(&mut eng, vec![(ChareId(0), Token(50))]);
        assert_eq!(stats.reduction(0), 51, "duplicates must not re-execute");
        assert!(stats.totals().faults_dup_suppressed > 0);
    }

    #[test]
    fn drops_with_redelivery_lose_nothing() {
        let mut plan = FaultPlan::drops(3);
        plan.drop_permille = 1000; // every first transmission lost
        let mut eng = ring(6, RuntimeConfig::dst(3, plan));
        let stats = one_stage(&mut eng, vec![(ChareId(0), Token(50))]);
        assert_eq!(stats.reduction(0), 51);
        assert!(stats.totals().faults_dropped > 0);
        assert_eq!(stats.totals().lost, 0);
    }

    #[test]
    fn lossy_plan_loses_messages_and_reports_them() {
        let mut eng = ring(6, RuntimeConfig::dst(3, FaultPlan::lossy(5)));
        let stats = one_stage(&mut eng, vec![(ChareId(0), Token(50))]);
        // Even the injection is dropped: nothing executes, everything is
        // accounted as lost rather than silently vanishing.
        assert_eq!(stats.reduction(0), 0);
        assert!(stats.totals().lost > 0);
    }

    /// A stage after one that lost messages is never released: it runs
    /// nothing, and each of its injections is lost at its chare's PE.
    #[test]
    fn a_lossy_stage_loses_the_stages_after_it() {
        let mut eng = ring(6, RuntimeConfig::dst(3, FaultPlan::lossy(5)));
        let later = vec![(ChareId(1), Token(5)), (ChareId(2), Token(5))];
        let stats = eng.run_stages(vec![vec![(ChareId(0), Token(50))], later]);
        assert_eq!(stats.len(), 2);
        assert!(stats[0].totals().lost > 0, "stage 0 loses its injection");
        assert_eq!(stats[1].reduction(0), 0);
        assert_eq!(stats[1].totals().processed, 0);
        assert_eq!(stats[1].totals().faults_dropped, 0, "nothing was sent");
        let lost: Vec<u64> = stats[1].per_pe.iter().map(|p| p.lost).collect();
        assert_eq!(lost, [0, 1, 1], "ring chare i lives on PE i % 3");
    }

    #[test]
    fn stalls_delay_but_never_break_completion() {
        let mut plan = FaultPlan::stalls(11);
        plan.stall_permille = 300;
        let mut eng = ring(8, RuntimeConfig::dst(4, plan));
        for round in 0..3 {
            let stats = one_stage(&mut eng, vec![(ChareId(0), Token(80))]);
            assert_eq!(stats.reduction(0), 81, "round {round}");
        }
    }

    #[test]
    fn same_seed_same_schedule_different_seed_different_schedule() {
        let run = |seed: u64| {
            let cfg = RuntimeConfig::dst(4, FaultPlan::chaos(seed));
            let mut eng = ring(8, cfg);
            let s = one_stage(&mut eng, vec![(ChareId(0), Token(120))]);
            (
                s.reduction(0),
                s.totals().faults_dropped,
                s.totals().faults_dup_suppressed,
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must replay the identical schedule");
        // Outcomes agree across seeds; the fault schedule itself differs.
        let c = run(8);
        assert_eq!(a.0, c.0);
    }

    #[test]
    fn empty_phase_terminates_immediately() {
        let mut eng = ring(4, RuntimeConfig::dst(2, FaultPlan::chaos(1)));
        let stats = one_stage(&mut eng, vec![]);
        assert_eq!(stats.totals().processed, 0);
    }

    #[test]
    fn chares_survive_phases_and_return() {
        let mut eng = ring(5, RuntimeConfig::dst(2, FaultPlan::reorder(2)));
        one_stage(&mut eng, vec![(ChareId(0), Token(9))]);
        let chares = eng.into_chares();
        assert_eq!(chares.len(), 5);
        assert_eq!(chares[3].0, ChareId(3));
    }
}
