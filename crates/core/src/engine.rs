//! Engine selection and distribution-aware chare placement.
//!
//! The binaries and examples take `--engine {seq,threads,vt,net}`; this
//! module turns that flag into a [`RuntimeConfig`] and centralizes the
//! partition→PE mapping the simulator uses.

use chare_rt::{FaultPlan, RuntimeConfig};
use std::str::FromStr;

/// Which of the four `chare-rt` engines to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Deterministic single-thread engine simulating `n_pes` PEs.
    Seq,
    /// Real OS threads, one per PE.
    Threads,
    /// Virtual-time deterministic-simulation-testing engine.
    Vt,
    /// Networked multi-process engine (shm rings or loopback TCP, SPMD
    /// workers).
    Net,
}

impl FromStr for EngineChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "seq" | "sequential" => Ok(EngineChoice::Seq),
            "threads" | "thr" | "threaded" => Ok(EngineChoice::Threads),
            "vt" | "dst" => Ok(EngineChoice::Vt),
            "net" => Ok(EngineChoice::Net),
            other => Err(format!(
                "unknown engine {other:?} (expected seq, threads, vt, or net)"
            )),
        }
    }
}

impl EngineChoice {
    /// Build the runtime configuration for this engine. `n_procs` only
    /// matters for [`EngineChoice::Net`] (must divide `n_pes`); the
    /// in-process engines ignore it.
    pub fn runtime_config(self, n_pes: u32, n_procs: u32) -> RuntimeConfig {
        match self {
            EngineChoice::Seq => RuntimeConfig::sequential(n_pes),
            EngineChoice::Threads => RuntimeConfig::threaded(n_pes),
            EngineChoice::Vt => RuntimeConfig::dst(n_pes, FaultPlan::none(0)),
            EngineChoice::Net => RuntimeConfig::net(n_pes, n_procs),
        }
    }
}

/// Map partition `part` of `k` onto one of `n_pes` PEs in contiguous
/// blocks: `⌊part · n_pes / k⌋`.
///
/// The graph partitioner numbers partitions so that communicating
/// partitions tend to be numerically close; block placement keeps those
/// neighbours on the same PE — and, under the net engine's contiguous
/// PE→process ranges, inside the same OS process — where a round-robin
/// `part % n_pes` would deliberately scatter them across the machine.
/// This is the distribution-aware mapping the paper's two-level scheme
/// (§II-C) implies: data distribution decides *which* partition, placement
/// decides *where*, and both must pull in the same direction.
pub fn pe_for_partition(part: u32, k: u32, n_pes: u32) -> u32 {
    debug_assert!(part < k, "partition {part} out of range (k = {k})");
    ((u64::from(part) * u64::from(n_pes)) / u64::from(k.max(1))) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use chare_rt::ExecMode;

    #[test]
    fn engine_names_parse() {
        assert_eq!("seq".parse::<EngineChoice>().unwrap(), EngineChoice::Seq);
        assert_eq!("SEQ".parse::<EngineChoice>().unwrap(), EngineChoice::Seq);
        assert_eq!(
            "threads".parse::<EngineChoice>().unwrap(),
            EngineChoice::Threads
        );
        assert_eq!("vt".parse::<EngineChoice>().unwrap(), EngineChoice::Vt);
        assert_eq!("net".parse::<EngineChoice>().unwrap(), EngineChoice::Net);
        assert!("mpi".parse::<EngineChoice>().is_err());
    }

    #[test]
    fn runtime_configs_have_the_right_mode() {
        assert_eq!(
            EngineChoice::Seq.runtime_config(4, 1).mode,
            ExecMode::Sequential
        );
        assert_eq!(
            EngineChoice::Threads.runtime_config(4, 1).mode,
            ExecMode::Threads
        );
        assert_eq!(
            EngineChoice::Vt.runtime_config(4, 1).mode,
            ExecMode::VirtualTime
        );
        let net = EngineChoice::Net.runtime_config(8, 2);
        assert_eq!(net.mode, ExecMode::Net);
        assert_eq!(net.net.n_procs, 2);
        assert_eq!(net.smp.pes_per_process, 4);
    }

    #[test]
    fn block_placement_is_contiguous_and_balanced() {
        // 8 partitions over 4 PEs: two consecutive partitions per PE.
        let pes: Vec<u32> = (0..8).map(|p| pe_for_partition(p, 8, 4)).collect();
        assert_eq!(pes, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        // Non-divisible: monotone, covers every PE, never out of range.
        let pes: Vec<u32> = (0..7).map(|p| pe_for_partition(p, 7, 3)).collect();
        assert!(pes.windows(2).all(|w| w[0] <= w[1]), "monotone: {pes:?}");
        assert!(pes.iter().all(|&pe| pe < 3));
        assert_eq!(
            pes.iter().collect::<std::collections::BTreeSet<_>>().len(),
            3,
            "every PE used: {pes:?}"
        );
        // Fewer partitions than PEs: injective.
        let pes: Vec<u32> = (0..3).map(|p| pe_for_partition(p, 3, 8)).collect();
        assert_eq!(
            pes.iter().collect::<std::collections::BTreeSet<_>>().len(),
            3
        );
    }
}
