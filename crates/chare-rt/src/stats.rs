//! Per-PE and per-phase statistics.
//!
//! These counters are the bridge to the `scale-model` crate: the paper's
//! communication optimizations (§IV) change *these numbers* — remote vs
//! local message counts, network messages, bytes, busy time — and the
//! performance model turns them into projected time on a Blue-Waters-like
//! machine.

/// Number of sum-reduction slots available to applications.
pub const REDUCTION_SLOTS: usize = 16;

/// Per-phase sum reductions (u64 addition — the only reduction EpiSimdemics
/// needs for its global counts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReductionSlots {
    slots: [u64; REDUCTION_SLOTS],
}

impl ReductionSlots {
    /// Number of slots.
    pub const N: usize = REDUCTION_SLOTS;

    /// Add into a slot.
    #[inline]
    pub fn add(&mut self, slot: usize, value: u64) {
        self.slots[slot] += value;
    }

    /// Read a slot.
    #[inline]
    pub fn get(&self, slot: usize) -> u64 {
        self.slots[slot]
    }

    /// Merge another set of slots into this one.
    pub fn merge(&mut self, other: &ReductionSlots) {
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            *a += b;
        }
    }

    /// Reset all slots to zero.
    pub fn clear(&mut self) {
        self.slots = [0; REDUCTION_SLOTS];
    }
}

/// Counters for one PE over one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Messages this PE's chares sent to chares on the same PE.
    pub sent_self: u64,
    /// Messages sent to other PEs within the same SMP process.
    pub sent_intra: u64,
    /// Messages sent to PEs in other processes ("network" messages).
    pub sent_remote: u64,
    /// Network packets emitted: one per remote message, since the runtime
    /// passes every message on at once (the net engine counts BATCH
    /// frames).
    pub network_packets: u64,
    /// Bytes carried by remote messages.
    pub remote_bytes: u64,
    /// Messages processed (consumed) by this PE.
    pub processed: u64,
    /// Nanoseconds spent inside `Chare::receive`.
    pub busy_ns: u64,
    /// Packets whose first transmission was dropped by fault injection
    /// (counted at the sender; nonzero only under the DST engine).
    pub faults_dropped: u64,
    /// Duplicate packet arrivals suppressed by the transport's take-once
    /// delivery (counted at the receiver; DST engine only).
    pub faults_dup_suppressed: u64,
    /// Messages irrecoverably lost — nonzero only under a non-benign fault
    /// plan (drop without redelivery); any benign run must end with zero.
    pub lost: u64,
    /// Wire frames sent by the process's comm thread (net engine only;
    /// attributed to the process's first PE).
    pub wire_frames_sent: u64,
    /// Wire frames received by the comm thread (net engine only).
    pub wire_frames_recv: u64,
    /// Bytes written to sockets, including frame headers (net engine only).
    pub wire_bytes_sent: u64,
    /// Bytes read from sockets, including frame headers (net engine only).
    pub wire_bytes_recv: u64,
    /// Always 0: no engine holds messages back to flush them later. Kept
    /// for readers of the earlier batch-full flush count.
    pub wire_flush_batch: u64,
    /// Always 0 (see `wire_flush_batch`); was the idle-flush count.
    pub wire_flush_idle: u64,
    /// BATCH frames pushed directly into shared-memory rings, bypassing the
    /// comm thread and the socket (net engine, shm transport only).
    pub shm_frames_sent: u64,
    /// Times a rank's compute thread, idle past the shared poll, parked on
    /// its doorbell futex (net engine, shm transport only).
    pub shm_parks: u64,
    /// Always 0 (see `wire_flush_batch`); was the eager-flush count.
    pub wire_flush_eager: u64,
    /// Recovery snapshots this process has committed to the epoch store so
    /// far in the run (cumulative level, attributed to the process's first
    /// PE at end of phase; net engine + resilient driver only).
    pub recovery_checkpoints: u64,
    /// Times this process's state was rebuilt from a committed epoch after
    /// a failure (cumulative level, same attribution).
    pub recovery_restores: u64,
}

impl PeStats {
    /// Total messages sent.
    pub fn sent_total(&self) -> u64 {
        self.sent_self + self.sent_intra + self.sent_remote
    }

    /// Merge (for aggregate views).
    pub fn merge(&mut self, o: &PeStats) {
        self.sent_self += o.sent_self;
        self.sent_intra += o.sent_intra;
        self.sent_remote += o.sent_remote;
        self.network_packets += o.network_packets;
        self.remote_bytes += o.remote_bytes;
        self.processed += o.processed;
        self.busy_ns += o.busy_ns;
        self.faults_dropped += o.faults_dropped;
        self.faults_dup_suppressed += o.faults_dup_suppressed;
        self.lost += o.lost;
        self.wire_frames_sent += o.wire_frames_sent;
        self.wire_frames_recv += o.wire_frames_recv;
        self.wire_bytes_sent += o.wire_bytes_sent;
        self.wire_bytes_recv += o.wire_bytes_recv;
        self.wire_flush_batch += o.wire_flush_batch;
        self.wire_flush_idle += o.wire_flush_idle;
        self.shm_frames_sent += o.shm_frames_sent;
        self.shm_parks += o.shm_parks;
        self.wire_flush_eager += o.wire_flush_eager;
        self.recovery_checkpoints += o.recovery_checkpoints;
        self.recovery_restores += o.recovery_restores;
    }
}

/// The result of one phase: per-PE counters plus the reduction totals.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// One entry per PE.
    pub per_pe: Vec<PeStats>,
    /// Summed reduction slots across all PEs.
    pub reductions: ReductionSlots,
}

impl PhaseStats {
    /// Aggregate counters over all PEs.
    pub fn totals(&self) -> PeStats {
        let mut t = PeStats::default();
        for pe in &self.per_pe {
            t.merge(pe);
        }
        t
    }

    /// The busiest PE's compute time in nanoseconds — the quantity that
    /// bounds the phase's parallel time (§III-B's `Lmax` measured live).
    pub fn max_busy_ns(&self) -> u64 {
        self.per_pe.iter().map(|p| p.busy_ns).max().unwrap_or(0)
    }

    /// Read one reduction slot.
    pub fn reduction(&self, slot: usize) -> u64 {
        self.reductions.get(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_slots_accumulate_and_merge() {
        let mut a = ReductionSlots::default();
        a.add(0, 3);
        a.add(7, 2);
        let mut b = ReductionSlots::default();
        b.add(0, 4);
        a.merge(&b);
        assert_eq!(a.get(0), 7);
        assert_eq!(a.get(7), 2);
        a.clear();
        assert_eq!(a.get(0), 0);
    }

    #[test]
    fn pe_stats_totals() {
        let s = PeStats {
            sent_self: 1,
            sent_intra: 2,
            sent_remote: 3,
            ..Default::default()
        };
        assert_eq!(s.sent_total(), 6);
    }

    #[test]
    fn phase_stats_aggregate() {
        let mut ps = PhaseStats::default();
        ps.per_pe.push(PeStats {
            busy_ns: 100,
            processed: 5,
            ..Default::default()
        });
        ps.per_pe.push(PeStats {
            busy_ns: 300,
            processed: 7,
            ..Default::default()
        });
        assert_eq!(ps.max_busy_ns(), 300);
        assert_eq!(ps.totals().processed, 12);
    }
}
