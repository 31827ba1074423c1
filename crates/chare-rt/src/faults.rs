//! Deterministic fault injection for the virtual-time scheduler.
//!
//! Charm++-family codes validate their communication layer by proving the
//! application outcome is invariant under message delivery timing: the
//! runtime promises exactly-once delivery and phase completion, and nothing
//! else — not ordering, not latency. This module supplies the adversary for that contract: a
//! [`FaultPlan`] replayable from a `u64` seed that perturbs the
//! [`crate::vt::VtEngine`] transport with
//!
//! * **delay / reordering** — extra per-packet latency, which reorders
//!   deliveries across senders and destinations,
//! * **duplicate delivery** — a packet arrives twice; the transport's
//!   take-once slab must suppress the second copy,
//! * **bounded drop with redelivery** — the first attempt is lost on the
//!   wire and a retransmission lands later (observationally an extreme
//!   delay, but it exercises the loss-accounting path),
//! * **drop without redelivery** — the negative control: a *non-conformant*
//!   transport that the conformance suite must catch,
//! * **PE stall/slowdown** — a destination PE stops draining for a window
//!   of virtual time, which is exactly the schedule that would expose an
//!   early-firing completion detector.
//!
//! Only the virtual-time engine reads these message-level knobs; the
//! production engines ([`crate::seq::SeqEngine`],
//! [`crate::threads::ThreadEngine`]) never reference them.

/// SplitMix64: a tiny, high-quality, seedable generator. Every fault
/// decision derives from this stream, so a `(seed, plan)` pair replays the
/// exact same perturbed schedule.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seeded stream.
    pub fn new(seed: u64) -> Self {
        FaultRng {
            state: seed ^ 0x9E3779B97F4A7C15,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)` (`0` when `n == 0`).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Bernoulli draw with probability `permille / 1000`.
    #[inline]
    pub fn chance(&mut self, permille: u16) -> bool {
        match permille {
            0 => false,
            p if p >= 1000 => true,
            p => self.below(1000) < p as u64,
        }
    }
}

/// A seeded, replayable fault schedule. All fields are plain integers so
/// the plan stays `Copy + Eq` and can ride inside
/// [`crate::config::RuntimeConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the fault decision stream (independent of the application
    /// seed — the same simulation can be replayed under many schedules).
    pub seed: u64,
    /// Chance (‰) that a packet picks up extra latency.
    pub delay_permille: u16,
    /// Maximum extra latency, in virtual ticks.
    pub max_delay: u32,
    /// Chance (‰) that a packet is delivered twice.
    pub dup_permille: u16,
    /// Chance (‰) that a packet's first transmission is dropped.
    pub drop_permille: u16,
    /// Whether dropped packets are retransmitted. `false` turns the plan
    /// into the negative control: messages are irrecoverably lost and the
    /// conformance suite must notice.
    pub redeliver: bool,
    /// Chance (‰) that a packet arrival stalls its destination PE.
    pub stall_permille: u16,
    /// Length of an injected stall, in virtual ticks.
    pub stall_ticks: u32,
    /// **Process-level fault** (net engine only): rank of the worker
    /// process that exits abruptly mid-protocol. `u32::MAX` = off. Unlike
    /// the message-level knobs above (virtual-time only), process faults
    /// are honoured by [`crate::net::NetEngine`] and exercised by the
    /// crash-recovery conformance suite.
    pub proc_kill_rank: u32,
    /// 1-based phase at which `proc_kill_rank` dies.
    pub proc_kill_phase: u32,
    /// Process-level fault: rank of the worker that goes silent — both its
    /// compute and comm threads sleep with every socket left open, the
    /// SIGSTOP-equivalent a heartbeat detector must classify as *stalled*
    /// rather than crashed. `u32::MAX` = off.
    pub proc_stall_rank: u32,
    /// 1-based phase at which `proc_stall_rank` goes silent.
    pub proc_stall_phase: u32,
    /// Duration of the injected process stall, in milliseconds.
    pub proc_stall_ms: u32,
}

impl FaultPlan {
    /// No faults: the pure virtual-time scheduler (still a distinct
    /// interleaving from the round-robin sequential engine).
    pub const fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_permille: 0,
            max_delay: 0,
            dup_permille: 0,
            drop_permille: 0,
            redeliver: true,
            stall_permille: 0,
            stall_ticks: 0,
            proc_kill_rank: u32::MAX,
            proc_kill_phase: 0,
            proc_stall_rank: u32::MAX,
            proc_stall_phase: 0,
            proc_stall_ms: 0,
        }
    }

    /// Process-level kill fault: worker `rank` exits abruptly when it
    /// enters `phase` (net engine; the crash side of the chaos matrix).
    pub const fn proc_kill(seed: u64, rank: u32, phase: u32) -> Self {
        FaultPlan {
            proc_kill_rank: rank,
            proc_kill_phase: phase,
            ..Self::none(seed)
        }
    }

    /// Process-level stall fault: worker `rank` goes completely silent for
    /// `ms` milliseconds starting at `phase`, sockets left open (net
    /// engine; the stall side of the chaos matrix).
    pub const fn proc_stall(seed: u64, rank: u32, phase: u32, ms: u32) -> Self {
        FaultPlan {
            proc_stall_rank: rank,
            proc_stall_phase: phase,
            proc_stall_ms: ms,
            ..Self::none(seed)
        }
    }

    /// Whether the plan injects any process-level fault.
    pub const fn has_proc_faults(&self) -> bool {
        self.proc_kill_rank != u32::MAX || self.proc_stall_rank != u32::MAX
    }

    /// This plan with every process-level fault removed — what a recovery
    /// driver applies on retry attempts, so a fault that already fired is
    /// not re-injected into the respawned worker set.
    pub const fn without_proc_faults(mut self) -> Self {
        self.proc_kill_rank = u32::MAX;
        self.proc_kill_phase = 0;
        self.proc_stall_rank = u32::MAX;
        self.proc_stall_phase = 0;
        self.proc_stall_ms = 0;
        self
    }

    /// Heavy random latency: reorders deliveries.
    pub const fn reorder(seed: u64) -> Self {
        FaultPlan {
            delay_permille: 1000,
            max_delay: 2_000,
            ..Self::none(seed)
        }
    }

    /// Frequent duplicate deliveries (plus mild jitter so the duplicate
    /// sometimes arrives *before* the original).
    pub const fn duplicates(seed: u64) -> Self {
        FaultPlan {
            dup_permille: 300,
            delay_permille: 500,
            max_delay: 200,
            ..Self::none(seed)
        }
    }

    /// Frequent first-transmission drops, always redelivered.
    pub const fn drops(seed: u64) -> Self {
        FaultPlan {
            drop_permille: 300,
            redeliver: true,
            ..Self::none(seed)
        }
    }

    /// Destination-PE stalls: long windows where a PE drains nothing.
    pub const fn stalls(seed: u64) -> Self {
        FaultPlan {
            stall_permille: 50,
            stall_ticks: 5_000,
            ..Self::none(seed)
        }
    }

    /// Everything at once.
    pub const fn chaos(seed: u64) -> Self {
        FaultPlan {
            delay_permille: 800,
            max_delay: 1_000,
            dup_permille: 150,
            drop_permille: 150,
            redeliver: true,
            stall_permille: 30,
            stall_ticks: 2_000,
            ..Self::none(seed)
        }
    }

    /// The negative control: every packet's first (and only) transmission
    /// is dropped and never redelivered. A conformance suite that does not
    /// fail under this plan is not testing anything.
    pub const fn lossy(seed: u64) -> Self {
        FaultPlan {
            drop_permille: 1000,
            redeliver: false,
            ..Self::none(seed)
        }
    }

    /// Whether the plan preserves exactly-once delivery (every benign plan
    /// does; only drop-without-redelivery violates it).
    pub const fn is_benign(&self) -> bool {
        self.drop_permille == 0 || self.redeliver
    }

    /// The benign plan grid the conformance suites sweep.
    pub const GRID: [FaultPlan; 6] = [
        FaultPlan::none(0),
        FaultPlan::reorder(0),
        FaultPlan::duplicates(0),
        FaultPlan::drops(0),
        FaultPlan::stalls(0),
        FaultPlan::chaos(0),
    ];

    /// This plan re-seeded (plans in [`Self::GRID`] carry seed 0).
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What the fault layer decided for one packet transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketFate {
    /// Extra latency in virtual ticks.
    pub extra_delay: u64,
    /// Deliver a second copy (at an independently jittered time).
    pub duplicate: bool,
    /// Lose the first transmission.
    pub drop: bool,
    /// If dropped, retransmit (arriving after a retransmission timeout).
    pub redeliver: bool,
    /// Stall the destination PE for this many ticks upon scheduling.
    pub stall_ticks: u64,
}

/// Per-packet fates drawn from a [`FaultPlan`] and its seeded stream: the
/// decision the virtual-time scheduler's send path consults.
#[derive(Debug, Clone)]
pub struct PlanFaults {
    plan: FaultPlan,
    rng: FaultRng,
}

impl PlanFaults {
    /// Fates replaying `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        PlanFaults {
            rng: FaultRng::new(plan.seed),
            plan,
        }
    }

    /// Decide the fate of the next packet.
    pub fn packet_fate(&mut self) -> PacketFate {
        let p = &self.plan;
        let mut fate = PacketFate {
            redeliver: p.redeliver,
            ..PacketFate::default()
        };
        if p.delay_permille > 0 && self.rng.chance(p.delay_permille) {
            fate.extra_delay = self.rng.below(p.max_delay as u64 + 1);
        }
        if p.dup_permille > 0 && self.rng.chance(p.dup_permille) {
            fate.duplicate = true;
        }
        if p.drop_permille > 0 && self.rng.chance(p.drop_permille) {
            fate.drop = true;
        }
        if p.stall_permille > 0 && self.rng.chance(p.stall_permille) {
            fate.stall_ticks = p.stall_ticks as u64;
        }
        fate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = FaultRng::new(7);
        let mut b = FaultRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FaultRng::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = FaultRng::new(1);
        assert!(!(0..1000).any(|_| r.chance(0)));
        assert!((0..1000).all(|_| r.chance(1000)));
        // A mid probability hits roughly its rate.
        let hits = (0..10_000).filter(|_| r.chance(250)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn plan_replays_identically() {
        let mut a = PlanFaults::new(FaultPlan::chaos(42));
        let mut b = PlanFaults::new(FaultPlan::chaos(42));
        for _ in 0..500 {
            assert_eq!(a.packet_fate(), b.packet_fate());
        }
    }

    #[test]
    fn grid_plans_are_benign_and_lossy_is_not() {
        for plan in FaultPlan::GRID {
            assert!(plan.is_benign(), "{plan:?}");
        }
        assert!(!FaultPlan::lossy(1).is_benign());
    }

    #[test]
    fn with_seed_reseeds() {
        let p = FaultPlan::reorder(0).with_seed(99);
        assert_eq!(p.seed, 99);
        assert_eq!(p.delay_permille, 1000);
    }

    #[test]
    fn proc_faults_set_and_strip() {
        assert!(!FaultPlan::none(0).has_proc_faults());
        let kill = FaultPlan::proc_kill(1, 2, 7);
        assert!(kill.has_proc_faults());
        assert!(
            kill.is_benign(),
            "process faults are recoverable, not lossy"
        );
        let stall = FaultPlan::proc_stall(1, 1, 4, 500);
        assert!(stall.has_proc_faults());
        assert_eq!(stall.proc_stall_ms, 500);
        assert_eq!(kill.without_proc_faults(), FaultPlan::none(1));
        assert_eq!(stall.without_proc_faults(), FaultPlan::none(1));
        // The message-level grid stays process-fault free.
        for plan in FaultPlan::GRID {
            assert!(!plan.has_proc_faults());
        }
    }
}
