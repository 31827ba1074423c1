//! Outbreak forensics: read the transmission tree out of a finished run.
//!
//! Every applied infection records its infector and day, so a completed
//! simulation carries its full who-infected-whom forest. This example runs
//! an outbreak and reports the quantities epidemiologists read off such
//! trees: the case reproduction number R_t over time, the generation
//! interval, the offspring distribution, and the superspreading share.
//!
//! ```sh
//! cargo run --release --example outbreak_forensics
//! ```

use episimdemics::chare_rt::RuntimeConfig;
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::simulator::{SimConfig, Simulator};
use episimdemics::core::tree::transmission_stats;
use episimdemics::ptts::flu_model;
use episimdemics::synthpop::{LocationKind, Population, PopulationConfig};

fn main() {
    let pop = Population::generate(&PopulationConfig::small("forensics", 25_000, 404));
    let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 4, 404);
    let cfg = SimConfig {
        days: 150,
        r: 0.0001,
        seed: 404,
        initial_infections: 10,
        ..Default::default()
    };
    let (run, states) =
        Simulator::new(&dist, flu_model(), cfg, RuntimeConfig::threaded(4)).run_collecting();
    let curve = &run.curve;
    println!(
        "outbreak over: {} of {} infected ({:.1}%), {} days\n",
        curve.total_infections(),
        curve.population,
        100.0 * curve.attack_rate(),
        curve.days.len()
    );

    let tree = transmission_stats(&states);
    println!(
        "transmission tree: {} cases, {} attributed edges",
        tree.cases, tree.edges
    );
    println!(
        "mean generation interval: {:.1} days (flu model: latent 1–3 + infectious 3–6)",
        tree.mean_generation_interval
    );
    println!(
        "superspreading: top 20% of infectors caused {:.0}% of transmissions\n",
        100.0 * tree.top_infector_share(&states, 0.2)
    );

    println!("R_t by infection cohort (5-day bins):");
    println!("{:>8} {:>8} {:>6}", "days", "cohort", "R_t");
    for chunk in tree
        .rt_by_day
        .chunks(5)
        .zip(tree.cohort_by_day.chunks(5))
        .enumerate()
    {
        let (i, (rts, cohorts)) = chunk;
        let n: u64 = cohorts.iter().sum();
        if n == 0 {
            continue;
        }
        let rt = rts
            .iter()
            .zip(cohorts)
            .map(|(&r, &c)| r * c as f64)
            .sum::<f64>()
            / n as f64;
        println!("{:>4}-{:<3} {:>8} {:>6.2}", i * 5, i * 5 + 4, n, rt);
    }

    println!("\noffspring distribution (secondary cases per case):");
    for (n, &count) in tree.offspring.iter().enumerate().take(8) {
        let bar = "#".repeat(((count as f64).ln_1p() * 4.0) as usize);
        println!("{n:>3}: {count:>7} {bar}");
    }
    if tree.offspring.len() > 8 {
        let tail: u64 = tree.offspring[8..].iter().sum();
        println!(
            " 8+: {tail:>7} (max {} from one person)",
            tree.offspring.len() - 1
        );
    }

    // Where did transmissions come from? Attribute by the infector's most
    // plausible venue kind: count infectee-infector home sharing.
    let mut same_home = 0u64;
    for s in &states {
        if let Some(inf) = s.infected_by {
            if pop.people[s.id as usize].home == pop.people[inf as usize].home {
                same_home += 1;
            }
        }
    }
    println!(
        "\nhousehold transmissions: {} of {} edges ({:.0}%) — {:?} rooms hold ≤{} people",
        same_home,
        tree.edges,
        100.0 * same_home as f64 / tree.edges.max(1) as f64,
        LocationKind::Home,
        LocationKind::Home.room_capacity()
    );
}
