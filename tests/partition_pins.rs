//! Pinned partitions of the benchmark's world shapes.
//!
//! `graph-part`'s contract is that a given graph and seed always produce
//! the same `Partition`, bit for bit: remote-visit fraction, message
//! traffic and every curve hash downstream follow from it. A change to
//! the partitioner that is meant to be a pure speed-up must leave every
//! constant here untouched; a change that is meant to move the partition
//! regenerates them on purpose and says so.
//!
//! The seeds are deliberately none of the benchmark's (`42xxx`, `7xxx`).

use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::synthpop::{Population, PopulationConfig};

/// FNV-1a over `person_part ‖ location_part`, little-endian.
fn assignment_hash(d: &DataDistribution) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &p in d.person_part().iter().chain(d.location_part()) {
        for b in p.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// One pinned world: `(people, strategy, k, seed)` and the expected
/// `(assignment hash, edge cut)`; round-robin strategies have no cut.
type Pin = (u32, Strategy, u32, u64, u64, Option<u64>);

/// Check every pin and report all mismatches at once, each with the value
/// actually produced.
fn check(pins: &[Pin]) {
    let mut wrong = Vec::new();
    for &(people, strategy, k, seed, hash, cut) in pins {
        let pop = Population::generate(&PopulationConfig::small("EPB", people, seed));
        let d = DataDistribution::build(&pop, strategy, k, seed);
        let got = (assignment_hash(&d), d.quality().map(|q| q.edge_cut));
        if got != (hash, cut) {
            wrong.push(format!(
                "{people} people, {}, k={k}, seed {seed}: got ({:#018x}, {:?})",
                strategy.label(),
                got.0,
                got.1
            ));
        }
    }
    assert!(wrong.is_empty(), "partition moved:\n{}", wrong.join("\n"));
}

#[test]
fn benchmark_world_shapes_are_pinned() {
    use Strategy::{GraphPartition as Gp, GraphPartitionSplit as GpSplit};
    #[rustfmt::skip]
    check(&[
        (2_000,  Gp,      4, 1301, 0x87ef3988166a1236, Some(4_746)),
        (2_000,  Gp,      4, 1302, 0x3684e0f2ef3fd217, Some(4_655)),
        (15_000, GpSplit, 2, 1301, 0x4006f60059e50a25, Some(21_677)),
        (15_000, GpSplit, 2, 1302, 0x169e40df3b914ec5, Some(22_110)),
        (30_000, GpSplit, 8, 1301, 0x5507782c8ae74ad5, Some(83_970)),
        (30_000, GpSplit, 8, 1302, 0x9b37fb05e3eda324, Some(83_732)),
    ]);
}

#[test]
fn every_strategy_is_pinned_at_4k() {
    #[rustfmt::skip]
    let want = [
        (0xd90175efbf627f25, None),
        (0xf203b4a12cc2b021, Some(11_193)),
        (0xd85f14ab0b151352, None),
        (0x2c7a879baa8e0ca5, Some(11_239)),
    ];
    let pins: Vec<Pin> = Strategy::ALL
        .into_iter()
        .zip(want)
        .map(|(strategy, (hash, cut))| (4_000, strategy, 8, 1303, hash, cut))
        .collect();
    check(&pins);
}
