//! Completion and quiescence detection (§IV-B).
//!
//! "We need a mechanism to detect the condition when there are no messages
//! awaiting processing or in transit. … We rely on a novel Completion
//! Detection (CD) mechanism … Completion is detected when the participating
//! objects have produced and consumed an equal number of messages
//! globally."
//!
//! The detector is the classic 4-counter two-wave scheme over monotonic
//! counters: read `(P₁, C₁)` while all PEs report idle; if `P₁ == C₁`,
//! re-read after another all-idle observation; if the pair is unchanged,
//! no message can be in flight (an in-flight message would have been
//! produced but not consumed, forcing `P > C`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Shared detection state for one phase. All counters are monotonic within
/// a phase.
#[derive(Debug)]
pub struct CompletionDetector {
    produced: Vec<AtomicU64>,
    consumed: Vec<AtomicU64>,
    idle: Vec<AtomicBool>,
    /// Set by the one caller of [`Self::claim_done`] that closes the phase.
    done: AtomicBool,
}

impl CompletionDetector {
    /// State for `n_pes` participants.
    pub fn new(n_pes: u32) -> Self {
        CompletionDetector {
            produced: (0..n_pes).map(|_| AtomicU64::new(0)).collect(),
            consumed: (0..n_pes).map(|_| AtomicU64::new(0)).collect(),
            idle: (0..n_pes).map(|_| AtomicBool::new(false)).collect(),
            done: AtomicBool::new(false),
        }
    }

    /// Reset for a new phase. Must only be called while no worker is
    /// executing (between phases).
    pub fn reset(&self) {
        for p in &self.produced {
            p.store(0, Ordering::Relaxed);
        }
        for c in &self.consumed {
            c.store(0, Ordering::Relaxed);
        }
        for i in &self.idle {
            i.store(false, Ordering::Relaxed);
        }
        self.done.store(false, Ordering::SeqCst);
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

    /// Claim the close of a phase whose completion [`Self::try_detect`]
    /// has just confirmed. Several PEs may detect the same completion;
    /// exactly one call per phase returns `true`, and its caller closes
    /// the phase.
    pub fn claim_done(&self) -> bool {
        self.done
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn snapshot(&self) -> Option<(u64, u64)> {
        // Idle check first: any active PE defeats the wave.
        if !self.idle.iter().all(|i| i.load(Ordering::SeqCst)) {
            return None;
        }
        let p: u64 = self.produced.iter().map(|x| x.load(Ordering::SeqCst)).sum();
        let c: u64 = self.consumed.iter().map(|x| x.load(Ordering::SeqCst)).sum();
        Some((p, c))
    }

    /// One two-wave detection attempt. Returns `true` when completion is
    /// certain. Non-blocking; a PE calls it right after raising its idle
    /// flag, because only an idle transition can complete a phase.
    pub fn try_detect(&self) -> bool {
        let Some((p1, c1)) = self.snapshot() else {
            return false;
        };
        if p1 != c1 {
            return false;
        }
        // Second wave: counters and idleness must be unchanged.
        match self.snapshot() {
            Some((p2, c2)) => p2 == p1 && c2 == c1,
            None => false,
        }
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

    #[test]
    fn no_detection_while_any_pe_active() {
        let cd = CompletionDetector::new(2);
        cd.set_idle(0, true);
        // PE 1 never reported idle.
        assert!(!cd.try_detect());
        cd.set_idle(1, true);
        assert!(cd.try_detect());
    }

    #[test]
    fn no_detection_with_in_flight_message() {
        let cd = CompletionDetector::new(2);
        cd.set_idle(0, true);
        cd.set_idle(1, true);
        cd.produce(0, 1); // sent but not yet consumed
        assert!(!cd.try_detect());
        cd.consume(1, 1);
        assert!(cd.try_detect());
    }

    #[test]
    fn balanced_traffic_detects() {
        let cd = CompletionDetector::new(4);
        for pe in 0..4 {
            cd.produce(pe, 10);
            cd.consume((pe + 1) % 4, 10);
            cd.set_idle(pe, true);
        }
        assert!(cd.try_detect());
        assert_eq!(cd.total_produced(), 40);
        assert_eq!(cd.total_consumed(), 40);
    }

    #[test]
    fn reset_clears_state() {
        let cd = CompletionDetector::new(1);
        cd.produce(0, 5);
        cd.consume(0, 5);
        cd.set_idle(0, true);
        assert!(cd.claim_done());
        assert!(!cd.claim_done(), "a phase closes once");
        cd.reset();
        assert_eq!(cd.total_produced(), 0);
        assert!(!cd.try_detect(), "idle flags must reset too");
        assert!(cd.claim_done(), "reset reopens the claim");
    }

    #[test]
    fn claim_done_has_exactly_one_winner() {
        for _ in 0..200 {
            let cd = Arc::new(CompletionDetector::new(8));
            let start = Arc::new(std::sync::Barrier::new(8));
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (cd, start) = (cd.clone(), start.clone());
                    std::thread::spawn(move || {
                        start.wait();
                        cd.claim_done()
                    })
                })
                .collect();
            let winners = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&won| won)
                .count();
            assert_eq!(winners, 1);
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
        assert!(cd.try_detect());
        assert_eq!(cd.total_produced(), 20_000);
    }

    #[test]
    fn zero_message_phase_detects_once_all_idle() {
        // A phase with no injections at all: workers report idle without
        // ever producing; detection must fire on 0 == 0.
        let cd = CompletionDetector::new(3);
        assert!(!cd.try_detect(), "nobody idle yet");
        cd.set_idle(0, true);
        cd.set_idle(1, true);
        assert!(!cd.try_detect(), "one PE still active");
        cd.set_idle(2, true);
        assert!(cd.try_detect());
        assert_eq!(cd.total_produced(), 0);
    }

    #[test]
    fn single_pe_self_traffic() {
        // One PE producing for itself: every send must still be counted or
        // the wave would fire while a self-message sits in the queue.
        let cd = CompletionDetector::new(1);
        cd.set_idle(0, true);
        cd.produce(0, 3);
        assert!(!cd.try_detect(), "3 in flight");
        cd.consume(0, 2);
        assert!(!cd.try_detect(), "1 in flight");
        cd.consume(0, 1);
        assert!(cd.try_detect());
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
        assert!(!cd.try_detect());
        cd.reset();
        assert_eq!((cd.total_produced(), cd.total_consumed()), (0, 0));
        assert!(!cd.try_detect(), "reset clears idle flags");
        cd.produce(0, 2);
        cd.consume(1, 2);
        cd.set_idle(0, true);
        cd.set_idle(1, true);
        assert!(cd.try_detect());
    }

    #[test]
    fn unidle_after_idle_defeats_detection() {
        // A PE that went idle and then received late work must block the
        // wave again — idleness is a level, not an edge.
        let cd = CompletionDetector::new(2);
        cd.set_idle(0, true);
        cd.set_idle(1, true);
        assert!(cd.try_detect());
        cd.set_idle(1, false); // woke up with a new message
        cd.produce(1, 1);
        assert!(!cd.try_detect());
        cd.consume(1, 1);
        cd.set_idle(1, true);
        assert!(cd.try_detect());
    }

    #[test]
    fn wave_fails_if_counters_move_between_reads() {
        // Simulate by checking first snapshot manually then perturbing.
        let cd = CompletionDetector::new(1);
        cd.set_idle(0, true);
        let s1 = cd.snapshot().unwrap();
        assert_eq!(s1, (0, 0));
        cd.produce(0, 1);
        // The public try_detect always re-snapshots, so an imbalanced pair
        // is rejected.
        assert!(!cd.try_detect());
    }
}
