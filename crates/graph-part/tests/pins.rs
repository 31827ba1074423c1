//! Pinned `assignment` hashes for both multilevel drivers.
//!
//! The partitioner is deterministic for a fixed seed, and everything
//! downstream (remote-visit fraction, curve hashes) depends on the exact
//! assignment, so a speed-up of coarsening or refinement must leave every
//! constant here untouched. A k-way hash regenerated on purpose gets the
//! edge cut of the partitioner before it beside it, and the cut may rise
//! by at most 2% over that reference.

use graph_part::graph::figure2_example;
use graph_part::{
    kway_partition, recursive_bisection, total_edge_cut, CsrGraph, GraphBuilder, PartitionConfig,
};
use ptts::CounterRng;

const KS: [u32; 5] = [2, 5, 8, 64, 128];

fn grid(side: u32) -> CsrGraph {
    let n = side * side;
    let mut b = GraphBuilder::new(n, 1);
    for v in 0..n {
        b.set_vwgt(v, &[1]);
    }
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                b.add_edge(v, v + 1, 1);
            }
            if r + 1 < side {
                b.add_edge(v, v + side, 1);
            }
        }
    }
    b.build()
}

/// One heavy hub with 600 unit leaves: matching stalls at once, so the
/// drivers partition the finest graph directly.
fn star() -> CsrGraph {
    let n = 601u32;
    let mut b = GraphBuilder::new(n, 1);
    b.set_vwgt(0, &[100]);
    for v in 1..n {
        b.set_vwgt(v, &[1]);
        b.add_edge(0, v, 1 + v % 3);
    }
    b.build()
}

/// Two constraints, random weights, ~4 random weighted edges per vertex
/// (parallel edges and so merged weights included).
fn two_constraint_random() -> CsrGraph {
    let n = 3000u32;
    let mut b = GraphBuilder::new(n, 2);
    let mut rng = CounterRng::from_key(&[0x9147]);
    for v in 0..n {
        b.set_vwgt(v, &[1 + rng.uniform_u64(5), rng.uniform_u64(7)]);
    }
    for v in 0..n {
        for _ in 0..4 {
            let u = rng.uniform_u64(n as u64) as u32;
            b.add_edge(v, u, 1 + rng.uniform_u64(4) as u32);
        }
    }
    b.build()
}

fn fnv1a(assignment: &[u32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &p in assignment {
        for b in p.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// `want[i]` is `(kway hash, recursive-bisection hash, reference cut)` at
/// `KS[i]`; a reference bounds the k-way cut at 1.02 × it.
fn check(name: &str, g: &CsrGraph, seed: u64, want: [(u64, u64, Option<u64>); 5]) {
    let mut wrong = Vec::new();
    let mut worse = Vec::new();
    for (&k, (kway, rb, reference)) in KS.iter().zip(want) {
        let cfg = PartitionConfig::new(k).with_seed(seed).with_ubfactor(1.10);
        let part = kway_partition(g, &cfg);
        let got = (
            fnv1a(&part.assignment),
            fnv1a(&recursive_bisection(g, &cfg).assignment),
        );
        let cut = total_edge_cut(g, &part);
        if got != (kway, rb) {
            wrong.push(format!(
                "{name} k={k}: got ({:#018x}, {:#018x}), k-way cut {cut}",
                got.0, got.1
            ));
        }
        if let Some(r) = reference.filter(|&r| cut as f64 > 1.02 * r as f64) {
            worse.push(format!("{name} k={k}: cut {cut} > 1.02 × {r}"));
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
fn grid_is_pinned() {
    #[rustfmt::skip]
    check("grid 48x48", &grid(48), 11, [
        (0xdf86a11a746dfde5, 0xf980738cfef67ab5, None),
        (0x9aa3cdcaa2d39f26, 0xffbd7d1f22cc55f4, None),
        (0xff4d314fd2ba1bd0, 0x858cc6fb3a22e2f4, None),
        (0x68ca1474978a03bb, 0xa6adad0c1e6a897a, None),
        (0xf97a8fce6b8fbab8, 0x5e71dc3024c6a47b, None),
    ]);
}

#[test]
fn star_is_pinned() {
    #[rustfmt::skip]
    check("star 601", &star(), 12, [
        (0x120299c670994c64, 0x06f5f786aa962c54, None),
        (0x3e1708b16cd298a6, 0x7b717048666d1bf3, None),
        (0xf886f8bb97725324, 0x785e164e5a68b822, None),
        (0x227566cc8f8306a4, 0x627285c1035e1ca9, None),
        (0x89444746ced16e69, 0xa005ab24c4aa4a8d, None),
    ]);
}

#[test]
fn two_constraint_random_is_pinned() {
    #[rustfmt::skip]
    check("random 3000x2", &two_constraint_random(), 13, [
        (0xfd72cdf72018f355, 0xe9c288da23063e85, Some(7_214)),
        (0xe4c143e458e52380, 0xa14e832f41c7da55, Some(13_036)),
        (0xef9537359f45add2, 0xb80764210a74ebb6, Some(14_879)),
        (0x6b62d54f008ec20c, 0x449c9966e5723d3d, None),
        (0x1cad452a5ed86773, 0x3b3c597515fe0f35, None),
    ]);
}

#[test]
fn figure2_is_pinned() {
    #[rustfmt::skip]
    check("figure 2", &figure2_example(), 14, [
        (0x734e2d7e68a8f5c4, 0xbaca5b4b05ed4b54, None),
        (0x1d93a4c225d400a1, 0x506a477a601ffc84, None),
        (0x2498cd5494432b92, 0x2781d75f12958f40, None),
        (0xe6fecf7c5a675f79, 0xe6fecf7c5a675f79, None),
        (0xe6fecf7c5a675f79, 0xe6fecf7c5a675f79, None),
    ]);
}
