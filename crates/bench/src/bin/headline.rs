//! The paper's headline result (§I): strong scaling of the US population
//! under GP-splitLoc — "a speedup of 14,357 (22% efficiency) on [64K cores]
//! … scale up to 360,448 cores and achieve a speedup 58,649 (16.3%
//! efficiency)".
//!
//! We project the same configuration over the same core counts, driven by
//! the real partitioner on the scaled US graph. At 1/1000 scale the
//! absolute speedups are smaller (there is 1000× less work to spread), so
//! the comparison of record is: speedup still *growing* past 64K
//! core-modules, with efficiency declining gently rather than collapsing —
//! and GP-splitLoc beating every other configuration at every scale.

use bench::{calibrated_machine, clamp_k, fnum, gen_state, print_table};
use chare_rt::{PeStats, RuntimeConfig};
use episim_core::distribution::{DataDistribution, Strategy};
use episim_core::simulator::{SimConfig, Simulator};
use load_model::{LoadUnits, PiecewiseModel};
use ptts::flu_model;
use scale_model::{inputs_from_distribution, project_day, strong_scaling_point, RuntimeOptions};
use synthpop::{Population, PopulationConfig};

/// Measured (not projected): drive a small scenario through the
/// two-process net engine and report the wire-level counters the runtime
/// collects per PE — frames and bytes in both directions. This run
/// re-executes the
/// binary to create its worker process; the worker exits inside the
/// runtime teardown and never reaches the projection below.
fn wire_counters() {
    println!("== Measured: net-engine wire counters (2 processes) ==\n");
    let pop = Population::generate(&PopulationConfig::small("WIRE", 1000, 19));
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 19);
    let cfg = SimConfig {
        days: 6,
        r: 0.0015,
        seed: 7,
        initial_infections: 6,
        stop_when_extinct: false,
        ..SimConfig::default()
    };
    let run = Simulator::new(&dist, flu_model(), cfg, RuntimeConfig::net(4, 2)).run();
    let mut t = PeStats::default();
    for day in &run.perf {
        for phase in [&day.person_phase, &day.location_phase, &day.apply_phase] {
            let p = phase.totals();
            t.sent_remote += p.sent_remote;
            t.network_packets += p.network_packets;
            t.wire_frames_sent += p.wire_frames_sent;
            t.wire_frames_recv += p.wire_frames_recv;
            t.wire_bytes_sent += p.wire_bytes_sent;
            t.wire_bytes_recv += p.wire_bytes_recv;
        }
    }
    print_table(
        "wire counters, 1000 people × 6 days on 4 PEs / 2 processes",
        &["counter", "value"],
        &[
            vec!["remote msgs".into(), fnum(t.sent_remote as f64)],
            vec!["wire frames sent".into(), fnum(t.wire_frames_sent as f64)],
            vec!["wire frames recv".into(), fnum(t.wire_frames_recv as f64)],
            vec!["wire bytes sent".into(), fnum(t.wire_bytes_sent as f64)],
            vec!["wire bytes recv".into(), fnum(t.wire_bytes_recv as f64)],
        ],
    );
    let per_msg = if t.sent_remote > 0 {
        t.wire_bytes_sent as f64 / t.sent_remote as f64
    } else {
        0.0
    };
    println!(
        "{:.1} wire bytes per remote message (a day's visits per lane ride one message)\n",
        per_msg
    );
}

fn main() {
    wire_counters();
    println!("== Headline: US strong scaling, GP-splitLoc ==\n");
    let machine = calibrated_machine();
    let model = PiecewiseModel::paper_constants();
    let opts = RuntimeOptions::optimized();
    let pop = gen_state("US");
    println!(
        "US at reproduction scale: {} people, {} locations, {} visits/day\n",
        pop.n_people(),
        pop.n_locations(),
        pop.n_visits()
    );

    // Single-core baseline.
    let base_dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 1, 1);
    let base_inputs = inputs_from_distribution(&base_dist, &model, LoadUnits::default());
    let baseline = project_day(&base_inputs, &machine, &opts).seconds;
    println!("1 core-module baseline: {} s/day\n", fnum(baseline));

    let mut rows = Vec::new();
    for &k in &[1024u32, 8192, 65_536, 360_448] {
        let kc = clamp_k(k, &pop);
        let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, kc, 1);
        let inputs = inputs_from_distribution(&dist, &model, LoadUnits::default());
        let proj = project_day(&inputs, &machine, &opts);
        let pt = strong_scaling_point(kc, &proj, baseline);
        rows.push(vec![
            k.to_string(),
            kc.to_string(),
            fnum(pt.seconds),
            fnum(pt.speedup),
            format!("{:.1}%", 100.0 * pt.efficiency),
        ]);
    }
    print_table(
        "projected strong scaling (US, GP-splitLoc, all §IV optimizations)",
        &[
            "requested_P",
            "effective_P",
            "s/day",
            "speedup",
            "efficiency",
        ],
        &rows,
    );
    println!("paper (full-scale data, Blue Waters):");
    println!("  64K cores  → speedup 14,357 (22.0% efficiency)");
    println!("  360,448    → speedup 58,649 (16.3% efficiency)  — still growing");
    println!("shape of record: speedup keeps rising past 64K while efficiency");
    println!("declines gently; at 1/1000 data the curves saturate ~1000× earlier.");
}
