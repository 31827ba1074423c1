//! Dynamic load balancing — the paper's §VII future work, running.
//!
//! Starts an outbreak from a deliberately bad data distribution, lets the
//! measurement-driven rebalancer fix it between epochs, and shows that
//! (a) measured imbalance collapses, and (b) the epidemic is bit-identical
//! to a run without any rebalancing.
//!
//! ```sh
//! cargo run --release --example dynamic_lb
//! ```

use episimdemics::chare_rt::RuntimeConfig;
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::rebalance::{run_with_rebalancing, RebalanceConfig};
use episimdemics::core::simulator::{SimConfig, Simulator};
use episimdemics::ptts::flu_model;
use episimdemics::synthpop::{Population, PopulationConfig};

fn main() {
    let pop = Population::generate(&PopulationConfig::small("lb-town", 15_000, 31));
    // A hostile starting point: round-robin persons, but every location
    // piled onto partition 0 (as if a naive mapping ignored the location
    // phase entirely).
    let rr = DataDistribution::build(&pop, Strategy::RoundRobin, 8, 31);
    let dist = rr.with_partition(rr.person_part().to_vec(), vec![0; rr.location_part().len()]);

    let cfg = SimConfig {
        days: 60,
        r: 0.0001,
        seed: 31,
        initial_infections: 15,
        stop_when_extinct: false,
        ..Default::default()
    };

    println!("== §VII measurement-driven load balancing ==\n");
    let rb = run_with_rebalancing(
        &dist,
        flu_model(),
        cfg.clone(),
        RuntimeConfig::sequential(4),
        RebalanceConfig {
            epoch_days: 10,
            imbalance_threshold: 1.15,
        },
    );
    println!("epoch  days  measured_imbalance  repartitioned");
    for e in &rb.epochs {
        println!(
            "{:>5}  {:>4}  {:>18.3}  {}",
            e.epoch,
            e.days,
            e.imbalance,
            if e.repartitioned {
                "yes"
            } else {
                "no (below threshold)"
            }
        );
    }

    // Same run without rebalancing: the epidemic must be identical.
    let plain = Simulator::new(&dist, flu_model(), cfg, RuntimeConfig::sequential(4)).run();
    assert_eq!(
        plain.curve, rb.run.curve,
        "rebalancing changed the epidemic — bug!"
    );
    println!(
        "\nepidemic identical with and without LB: attack rate {:.1}%, peak day {:?}",
        100.0 * rb.run.curve.attack_rate(),
        rb.run.curve.peak_day()
    );
    println!("(LB changes only where objects live, never what they compute)");
}
