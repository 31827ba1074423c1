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
use episim_core::distribution::{DataDistribution, Strategy};
use load_model::{LoadUnits, PiecewiseModel};
use scale_model::{inputs_from_distribution, project_day, strong_scaling_point, RuntimeOptions};

fn main() {
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
