//! Pinned partitions of the benchmark's world shapes.
//!
//! `graph-part`'s contract is that a given graph and seed always produce
//! the same `Partition`, bit for bit: remote-visit fraction, message
//! traffic and every curve hash downstream follow from it. A change to
//! the partitioner that is meant to be a pure speed-up must leave every
//! constant here untouched; a change that is meant to move the partition
//! regenerates them on purpose and says so.
//!
//! Beside each cut sits the cut of the partitioner before the last change
//! that moved these pins on purpose (the fold of coarsening levels that
//! shed too few edges), and every cut must stay within 1% of it, so that no
//! later change trades partition quality away unseen.
//!
//! The seeds are deliberately none of the benchmark's (`42xxx`, `7xxx`).

use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::workload::{build_workload_graph, partition_workload, person_level};
use episimdemics::graph_part::{kway_partition, PartitionConfig};
use episimdemics::load_model::{LoadUnits, PiecewiseModel};
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

/// One pinned world: `(people, strategy, k, seed)`, the expected
/// `(assignment hash, edge cut)` and the quality bound's reference cut;
/// round-robin strategies have no cut.
type Pin = (u32, Strategy, u32, u64, u64, Option<u64>, Option<u64>);

/// Check every pin and report all mismatches at once, each with the value
/// actually produced; then check every cut against 1.01 × its reference.
fn check(pins: &[Pin]) {
    let mut wrong = Vec::new();
    let mut worse = Vec::new();
    for &(people, strategy, k, seed, hash, cut, reference) in pins {
        let pop = Population::generate(&PopulationConfig::small("EPB", people, seed));
        let d = DataDistribution::build(&pop, strategy, k, seed);
        let got = (assignment_hash(&d), d.edge_cut());
        let world = format!("{people} people, {}, k={k}, seed {seed}", strategy.label());
        if got != (hash, cut) {
            wrong.push(format!("{world}: got ({:#018x}, {:?})", got.0, got.1));
        }
        if let (Some(cut), Some(reference)) = (got.1, reference) {
            if cut as f64 > 1.01 * reference as f64 {
                worse.push(format!("{world}: cut {cut} > 1.01 × {reference}"));
            }
        }
    }
    assert!(wrong.is_empty(), "partition moved:\n{}", wrong.join("\n"));
    assert!(
        worse.is_empty(),
        "partition quality lost:\n{}",
        worse.join("\n")
    );
}

#[test]
fn benchmark_world_shapes_are_pinned() {
    use Strategy::{GraphPartition as Gp, GraphPartitionSplit as GpSplit};
    #[rustfmt::skip]
    check(&[
        (2_000,  Gp,      4, 1301, 0x57c612586822f817, Some(4_575),  Some(4_575)),
        (2_000,  Gp,      4, 1302, 0xd95ed463ab818a64, Some(4_514),  Some(4_512)),
        (15_000, GpSplit, 2, 1301, 0xd7d970649259fb94, Some(21_392), Some(21_409)),
        (15_000, GpSplit, 2, 1302, 0xb7d80e1fc144c8b4, Some(21_608), Some(21_587)),
        (30_000, GpSplit, 8, 1301, 0xe0a5ea7b7d366ce3, Some(82_839), Some(82_257)),
        (30_000, GpSplit, 8, 1302, 0x8ac6b1350748a8a6, Some(83_567), Some(84_038)),
    ]);
}

#[test]
fn every_strategy_is_pinned_at_4k() {
    #[rustfmt::skip]
    let want = [
        (0xd90175efbf627f25, None,         None),
        (0xd254f8d6dee363e4, Some(11_046), Some(11_108)),
        (0xd85f14ab0b151352, None,         None),
        (0xe9972994db005e23, Some(11_208), Some(11_181)),
    ];
    let pins: Vec<Pin> = Strategy::ALL
        .into_iter()
        .zip(want)
        .map(|(strategy, (hash, cut, reference))| (4_000, strategy, 8, 1303, hash, cut, reference))
        .collect();
    check(&pins);
}

/// A world whose location graph is no larger than the size at which
/// coarsening stops gets no person level, and its partition is plain
/// `kway_partition`'s, bit for bit; one a little larger gets the level.
#[test]
fn small_worlds_partition_exactly_as_plain_kway() {
    let model = PiecewiseModel::paper_constants();
    for (people, k, seed, person_first) in [(1_000, 4, 1304, false), (1_100, 4, 1304, true)] {
        let pop = Population::generate(&PopulationConfig::small("EPB", people, seed));
        let (graph, layout) = build_workload_graph(&pop, &model, LoadUnits::default());
        let cfg = PartitionConfig::new(k).with_seed(seed).with_ubfactor(1.10);
        assert_eq!(
            layout.n_locations <= cfg.coarsen_target(),
            !person_first,
            "{people} people"
        );
        assert_eq!(person_level(&graph, &layout, &cfg).is_some(), person_first);
        let part = partition_workload(&graph, &layout, &cfg);
        assert_eq!(part == kway_partition(&graph, &cfg), !person_first);
        let d = DataDistribution::build(&pop, Strategy::GraphPartition, k, seed);
        assert_eq!(
            [d.person_part(), d.location_part()].concat(),
            part.assignment
        );
    }
}
