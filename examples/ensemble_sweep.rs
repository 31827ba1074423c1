//! Parameter-sweep workflow on the copy-on-write ensemble engine: a DSL
//! scenario with a `sweep` directive fans whole runs across a worker
//! pool over one shared world, after a FastSIR-style surrogate screen
//! ranks the grid and promotes only the most active half to full runs.
//!
//! ```sh
//! cargo run --release --example ensemble_sweep                # built-in demo
//! cargo run --release --example ensemble_sweep my_sweep.scn   # your scenario
//! ```

use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::ensemble::{run_sweep, surrogate, CowWorld, EnsembleSpec};
use episimdemics::core::simulator::SimConfig;
use episimdemics::ptts::dsl;
use episimdemics::ptts::intervention::InterventionSet;
use episimdemics::synthpop::{Population, PopulationConfig};

const DEMO: &str = r#"
# Threshold-hunting sweep: where does this flu variant take off?
disease flu
state susceptible  inf=0.0  sus=1.0  dwell=forever
state latent       inf=0.0  sus=0.0  dwell=uniform(1,3)
state infectious   inf=1.0  sus=0.0  dwell=uniform(3,6)
state recovered    inf=0.0  sus=0.0  dwell=forever
trans latent     t0: infectious 1.0
trans infectious t0: recovered 1.0
start susceptible
exposed latent

sim days=30 r=0.00006 seed=7 initial=8
sweep r=0.00002,0.00004,0.00006,0.00008,0.0001,0.00012 replicates=4 workers=8
"#;

fn main() {
    let (label, text) = match std::env::args().nth(1) {
        Some(path) => (
            path.clone(),
            std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }),
        ),
        None => ("<built-in demo>".to_string(), DEMO.to_string()),
    };
    let scenario = dsl::parse(&text).unwrap_or_else(|e| {
        eprintln!("scenario parse error: {e}");
        std::process::exit(1);
    });
    if scenario.sweep.is_empty() {
        eprintln!("scenario {label} has no `sweep` directive — nothing to sweep");
        std::process::exit(1);
    }

    let base = SimConfig {
        days: scenario.sim.days.unwrap_or(25),
        r: scenario.sim.r.unwrap_or(0.0002),
        seed: scenario.sim.seed.unwrap_or(7),
        initial_infections: scenario.sim.initial_infections.unwrap_or(8),
        interventions: InterventionSet::new(scenario.interventions.clone()),
        ..Default::default()
    };
    let replicates = scenario.sweep.replicates.unwrap_or(4);
    let workers = scenario.sweep.workers.unwrap_or(8);
    println!(
        "sweep {label}: {} grid points × {replicates} replicates, {workers} workers",
        scenario.sweep.r_values.len()
    );

    // The world — synthetic population plus graph partition — is built
    // once and shared copy-on-write by every member.
    let pop = Population::generate(&PopulationConfig::small("sweep-town", 8_000, base.seed));
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, base.seed);
    let world = CowWorld::build(&dist, scenario.ptts);
    let spec = EnsembleSpec::grid(&base, &scenario.sweep.r_values, replicates);

    // Surrogate screen: bond percolation on the static contact graph,
    // shared uniforms across points, so the ranking is monotone in r.
    // Promote the upper half of the grid to full simulation.
    let graph = surrogate::ContactGraph::build(&world.dist.pop);
    let scores = surrogate::screen(&graph, &world, &spec);
    let keep = spec.points.len().div_ceil(2);
    let survivors = surrogate::promote_top_k(&scores, keep);
    println!("\nsurrogate screen over {} contact edges:", graph.n_edges());
    for s in &scores {
        let promoted = survivors.contains(&s.point);
        println!(
            "  {}  percolation attack {:>5.3}  {}",
            spec.points[s.point].label,
            s.mean_attack,
            if promoted {
                "-> full runs"
            } else {
                "   screened out"
            }
        );
    }

    // Full runs for the survivors only.
    let promoted = EnsembleSpec {
        base: spec.base.clone(),
        points: survivors.iter().map(|&i| spec.points[i].clone()).collect(),
        seeds: spec.seeds.clone(),
    };
    let store = run_sweep(&world, &promoted, workers);

    println!("\nfull runs ({} members):", promoted.n_members());
    println!("point          mean_attack  p10_attack  p90_attack  takeoff");
    for pi in 0..promoted.points.len() {
        let ens = store.point_ensemble(pi);
        println!(
            "{:<14} {:>10.3}  {:>10.3}  {:>10.3}  {:>6.2}",
            promoted.points[pi].label,
            store.mean_attack_rate(pi),
            ens.attack_rate_quantile(0.10),
            ens.attack_rate_quantile(0.90),
            ens.takeoff_probability(0.05),
        );
    }
    println!("\nresult store hash: {:#018x}", store.hash());
}
