//! Completion and quiescence detection (§IV-B).
//!
//! "We need a mechanism to detect the condition when there are no messages
//! awaiting processing or in transit. … We rely on a novel Completion
//! Detection (CD) mechanism … Completion is detected when the participating
//! objects have produced and consumed an equal number of messages
//! globally."
//!
//! The detector is the classic 4-counter two-wave scheme over monotonic
//! counters: read `(P₁, C₁)` while all PEs report idle; if the pair
//! balances, re-read after another all-idle observation; if the pair is
//! unchanged, no message can be in flight (an in-flight message would have
//! been produced but not consumed, forcing `P > C`).
//!
//! A phase runs in stages, each delivered once the stages before it are
//! complete. Every stage's injections count as produced when the phase
//! opens, and no PE runs a message of a stage not yet released, so stage
//! `r` is complete when `P == C + held(r)`, the injections of the stages
//! after it, on both waves (one stage: the plain `P == C`).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Shared detection state for one phase. All counters are monotonic within
/// a phase.
#[derive(Debug)]
pub struct CompletionDetector {
    produced: Vec<AtomicU64>,
    consumed: Vec<AtomicU64>,
    idle: Vec<AtomicBool>,
    /// Stages released so far; stage `released` is the open one.
    released: AtomicU32,
    /// `held(r)` for each stage `r`, the injections of the stages after
    /// it, set by [`Self::reset`]; its length is the phase's stage count.
    held: Mutex<Vec<u64>>,
}

impl CompletionDetector {
    /// State for `n_pes` participants.
    pub fn new(n_pes: u32) -> Self {
        CompletionDetector {
            produced: (0..n_pes).map(|_| AtomicU64::new(0)).collect(),
            consumed: (0..n_pes).map(|_| AtomicU64::new(0)).collect(),
            idle: (0..n_pes).map(|_| AtomicBool::new(false)).collect(),
            released: AtomicU32::new(0),
            // A one-stage phase with no injections until the first reset.
            held: Mutex::new(vec![0]),
        }
    }

    /// Open a phase whose stages inject `stage_sizes` messages each, and
    /// count every one of them as produced (on PE 0). Must only be called
    /// while no worker is executing (between phases).
    pub fn reset(&self, stage_sizes: impl IntoIterator<Item = usize>) {
        for ((p, c), i) in self.produced.iter().zip(&self.consumed).zip(&self.idle) {
            p.store(0, Ordering::Relaxed);
            c.store(0, Ordering::Relaxed);
            i.store(false, Ordering::Relaxed);
        }
        let mut held = self.held();
        held.clear();
        held.extend(stage_sizes.into_iter().map(|n| n as u64));
        // Each stage's size becomes the sum of the sizes after it.
        let mut after = 0;
        for h in held.iter_mut().rev() {
            (*h, after) = (after, after + *h);
        }
        self.produced[0].store(after, Ordering::SeqCst);
        self.released.store(0, Ordering::SeqCst);
    }

    /// The number of stages of the open phase.
    pub fn n_stages(&self) -> u32 {
        self.held().len() as u32
    }

    fn held(&self) -> MutexGuard<'_, Vec<u64>> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record that PE `pe` produced (sent) `n` countable messages.
    #[inline]
    pub fn produce(&self, pe: u32, n: u64) {
        self.produced[pe as usize].fetch_add(n, Ordering::SeqCst);
    }

    /// Record that PE `pe` consumed (fully processed) `n` messages.
    #[inline]
    pub fn consume(&self, pe: u32, n: u64) {
        self.consumed[pe as usize].fetch_add(n, Ordering::SeqCst);
    }

    /// PE `pe` reports whether it is idle (empty queue).
    #[inline]
    pub fn set_idle(&self, pe: u32, idle: bool) {
        self.idle[pe as usize].store(idle, Ordering::SeqCst);
    }

    /// The number of stages released so far in this phase.
    #[inline]
    pub fn released(&self) -> u32 {
        self.released.load(Ordering::SeqCst)
    }

    fn snapshot(&self) -> Option<(u64, u64)> {
        // Idle check first: any active PE defeats the wave.
        if !self.idle.iter().all(|i| i.load(Ordering::SeqCst)) {
            return None;
        }
        Some((self.total_produced(), self.total_consumed()))
    }

    /// One two-wave detection attempt: every PE idle on both waves, with
    /// `P == C + held(stage)` and the counters unchanged between them.
    fn stage_complete(&self, stage: u32) -> bool {
        let Some((p1, c1)) = self.snapshot() else {
            return false;
        };
        let Some(&held) = self.held().get(stage as usize) else {
            return false; // no stage left to claim
        };
        p1 == c1 + held && self.snapshot() == Some((p1, c1))
    }

    /// Release the open stage if it is complete, and return it: a
    /// compare-and-swap of the released count read before the waves, so one
    /// of several PEs that detect it wins, and none once the last stage is
    /// released. Non-blocking; a PE calls it right after raising its idle
    /// flag, because only an idle transition can complete a stage.
    pub fn try_claim(&self) -> Option<u32> {
        let stage = self.released();
        if !self.stage_complete(stage) {
            return None;
        }
        self.released
            .compare_exchange(stage, stage + 1, Ordering::SeqCst, Ordering::SeqCst)
            .ok()
    }

    /// Total messages produced so far.
    pub fn total_produced(&self) -> u64 {
        self.produced.iter().map(|x| x.load(Ordering::SeqCst)).sum()
    }

    /// Total messages consumed so far.
    pub fn total_consumed(&self) -> u64 {
        self.consumed.iter().map(|x| x.load(Ordering::SeqCst)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Whether the open stage is complete, without claiming it.
    fn detect(cd: &CompletionDetector) -> bool {
        cd.stage_complete(cd.released())
    }

    #[test]
    fn no_detection_while_any_pe_active() {
        let cd = CompletionDetector::new(2);
        cd.set_idle(0, true);
        // PE 1 never reported idle.
        assert!(!detect(&cd));
        cd.set_idle(1, true);
        assert!(detect(&cd));
    }

    #[test]
    fn no_detection_with_in_flight_message() {
        let cd = CompletionDetector::new(2);
        cd.set_idle(0, true);
        cd.set_idle(1, true);
        cd.produce(0, 1); // sent but not yet consumed
        assert!(!detect(&cd));
        cd.consume(1, 1);
        assert!(detect(&cd));
    }

    #[test]
    fn balanced_traffic_detects() {
        let cd = CompletionDetector::new(4);
        for pe in 0..4 {
            cd.produce(pe, 10);
            cd.consume((pe + 1) % 4, 10);
            cd.set_idle(pe, true);
        }
        assert!(detect(&cd));
        assert_eq!(cd.total_produced(), 40);
        assert_eq!(cd.total_consumed(), 40);
    }

    #[test]
    fn reset_clears_state() {
        let cd = CompletionDetector::new(1);
        cd.produce(0, 5);
        cd.consume(0, 5);
        cd.set_idle(0, true);
        assert_eq!(cd.try_claim(), Some(0));
        assert_eq!(cd.try_claim(), None, "a phase closes once");
        cd.reset([0]);
        assert_eq!(cd.total_produced(), 0);
        assert_eq!(cd.released(), 0);
        assert!(!detect(&cd), "idle flags must reset too");
        cd.set_idle(0, true);
        assert_eq!(cd.try_claim(), Some(0), "reset reopens the claim");
    }

    /// A one-stage phase is today's close: its injections are counted as
    /// produced at reset, it releases once they are consumed, and the one
    /// claim closes it.
    #[test]
    fn one_stage_closes_as_a_plain_phase() {
        let cd = CompletionDetector::new(2);
        cd.reset([3]);
        assert_eq!(cd.total_produced(), 3);
        cd.set_idle(0, true);
        cd.set_idle(1, true);
        assert_eq!(cd.try_claim(), None, "3 injections unconsumed");
        cd.consume(1, 3);
        assert_eq!(cd.try_claim(), Some(0));
        assert_eq!(cd.released(), 1);
    }

    /// The injections of later stages are unconsumed while a stage is
    /// open, and must not count as its traffic: a stage releases exactly
    /// when all but the later stages' injections are consumed.
    #[test]
    fn held_injections_block_a_release() {
        let cd = CompletionDetector::new(2);
        cd.reset([2, 3, 1]);
        cd.set_idle(0, true);
        cd.set_idle(1, true);
        cd.consume(0, 1);
        assert_eq!(cd.try_claim(), None, "a stage-0 injection is unconsumed");
        cd.consume(1, 1);
        assert_eq!(cd.try_claim(), Some(0), "4 unconsumed = held(0)");
        assert_eq!(cd.try_claim(), None, "stage 1's 3 injections wait");
        cd.produce(0, 2); // stage 1 sends on
        cd.consume(1, 4);
        assert_eq!(cd.try_claim(), None, "one stage-1 message in flight");
        cd.consume(0, 1);
        assert_eq!(cd.try_claim(), Some(1));
        cd.consume(0, 1);
        assert_eq!(cd.try_claim(), Some(2));
    }

    /// A stage with no injections has no messages at all: it releases on
    /// the claim right after the one before it.
    #[test]
    fn an_empty_middle_stage_releases_at_once() {
        let cd = CompletionDetector::new(3);
        cd.reset([1, 0, 2]);
        for pe in 0..3 {
            cd.set_idle(pe, true);
        }
        cd.consume(2, 1);
        assert_eq!(cd.try_claim(), Some(0));
        assert_eq!(cd.try_claim(), Some(1), "stage 1 is empty");
        assert_eq!(cd.try_claim(), None, "stage 2 holds 2 injections");
        cd.consume(0, 2);
        assert_eq!(cd.try_claim(), Some(2));
    }

    /// A PE that runs dry after the last release, before it reads the
    /// close, must not claim a stage that does not exist (and so must not
    /// send a second close).
    #[test]
    fn nothing_is_claimed_after_the_last_stage() {
        let cd = CompletionDetector::new(2);
        cd.reset([1, 1]);
        cd.set_idle(0, true);
        cd.set_idle(1, true);
        cd.consume(0, 1);
        assert_eq!(cd.try_claim(), Some(0));
        cd.consume(1, 1);
        assert_eq!(cd.try_claim(), Some(1));
        for _ in 0..3 {
            assert_eq!(cd.try_claim(), None);
        }
        assert_eq!(cd.released(), 2);
    }

    #[test]
    fn eight_racing_claims_release_once() {
        for _ in 0..200 {
            let cd = Arc::new(CompletionDetector::new(8));
            cd.reset([0, 0]);
            for pe in 0..8 {
                cd.set_idle(pe, true);
            }
            let start = Arc::new(std::sync::Barrier::new(8));
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (cd, start) = (cd.clone(), start.clone());
                    std::thread::spawn(move || {
                        start.wait();
                        cd.try_claim()
                    })
                })
                .collect();
            let mut won: Vec<u32> = handles
                .into_iter()
                .filter_map(|h| h.join().unwrap())
                .collect();
            won.sort_unstable();
            // Each stage has exactly one winner; a racer may win stage 1
            // after another released stage 0, never the same stage twice.
            assert!(won == [0] || won == [0, 1], "{won:?}");
        }
    }

    #[test]
    fn concurrent_produce_consume_eventually_detects() {
        // Hammer the detector from two threads; after both finish and
        // report idle, detection must succeed and totals must match.
        let cd = Arc::new(CompletionDetector::new(2));
        let mk = |pe: u32, cd: Arc<CompletionDetector>| {
            std::thread::spawn(move || {
                for _ in 0..10_000 {
                    cd.produce(pe, 1);
                    cd.consume(1 - pe, 1);
                }
                cd.set_idle(pe, true);
            })
        };
        let h0 = mk(0, cd.clone());
        let h1 = mk(1, cd.clone());
        h0.join().unwrap();
        h1.join().unwrap();
        assert!(detect(&cd));
        assert_eq!(cd.total_produced(), 20_000);
    }

    #[test]
    fn zero_message_phase_detects_once_all_idle() {
        // A phase with no injections at all: workers report idle without
        // ever producing; detection must fire on 0 == 0.
        let cd = CompletionDetector::new(3);
        assert!(!detect(&cd), "nobody idle yet");
        cd.set_idle(0, true);
        cd.set_idle(1, true);
        assert!(!detect(&cd), "one PE still active");
        cd.set_idle(2, true);
        assert!(detect(&cd));
        assert_eq!(cd.total_produced(), 0);
    }

    #[test]
    fn single_pe_self_traffic() {
        // One PE producing for itself: every send must still be counted or
        // the wave would fire while a self-message sits in the queue.
        let cd = CompletionDetector::new(1);
        cd.set_idle(0, true);
        cd.produce(0, 3);
        assert!(!detect(&cd), "3 in flight");
        cd.consume(0, 2);
        assert!(!detect(&cd), "1 in flight");
        cd.consume(0, 1);
        assert!(detect(&cd));
    }

    #[test]
    fn reset_mid_phase_discards_partial_progress() {
        // Abort halfway (produced > consumed, some PEs idle), reset, and
        // run a fresh balanced phase: no stale counters or idle flags may
        // leak into the new phase's decision.
        let cd = CompletionDetector::new(2);
        cd.produce(0, 7);
        cd.consume(1, 3);
        cd.set_idle(0, true);
        assert!(!detect(&cd));
        cd.reset([0]);
        assert_eq!((cd.total_produced(), cd.total_consumed()), (0, 0));
        assert!(!detect(&cd), "reset clears idle flags");
        cd.produce(0, 2);
        cd.consume(1, 2);
        cd.set_idle(0, true);
        cd.set_idle(1, true);
        assert!(detect(&cd));
    }

    #[test]
    fn unidle_after_idle_defeats_detection() {
        // A PE that went idle and then received late work must block the
        // wave again — idleness is a level, not an edge.
        let cd = CompletionDetector::new(2);
        cd.set_idle(0, true);
        cd.set_idle(1, true);
        assert!(detect(&cd));
        cd.set_idle(1, false); // woke up with a new message
        cd.produce(1, 1);
        assert!(!detect(&cd));
        cd.consume(1, 1);
        cd.set_idle(1, true);
        assert!(detect(&cd));
    }

    #[test]
    fn wave_fails_if_counters_move_between_reads() {
        // Simulate by checking first snapshot manually then perturbing.
        let cd = CompletionDetector::new(1);
        cd.set_idle(0, true);
        let s1 = cd.snapshot().unwrap();
        assert_eq!(s1, (0, 0));
        cd.produce(0, 1);
        // Detection always re-snapshots, so an imbalanced pair is
        // rejected.
        assert!(!detect(&cd));
    }
}
