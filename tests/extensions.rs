//! Integration tests for the beyond-the-paper extensions, exercised in
//! combination: a checkpoint resumed on another distribution, ensembles vs
//! explicit replicates, endemic dynamics under interventions, and the
//! everything-on configuration (SMP + aggregation + splitLoc + threads)
//! against the oracle.

use episimdemics::chare_rt::RuntimeConfig;
use episimdemics::core::checkpoint::{capture, Checkpoint};
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::ensemble::{run_sweep, CowWorld, EnsembleSpec};
use episimdemics::core::seq::{run_sequential, run_sequential_with_states};
use episimdemics::core::simulator::{Carry, SimConfig, Simulator};
use episimdemics::core::tree::transmission_stats;
use episimdemics::ptts::intervention::{Action, Intervention, InterventionSet, Trigger};
use episimdemics::ptts::model::TreatmentId;
use episimdemics::ptts::{flu_model, seirs_model};
use episimdemics::synthpop::{LocationKind, Population, PopulationConfig};

fn pop() -> Population {
    Population::generate(&PopulationConfig::small("EXT", 2200, 99))
}

fn cfg(days: u32) -> SimConfig {
    SimConfig {
        days,
        r: 0.0013,
        seed: 99,
        initial_infections: 7,
        stop_when_extinct: false,
        ..Default::default()
    }
}

#[test]
fn everything_on_matches_oracle() {
    // SMP processes + aggregation + GP-splitLoc + threads, all at once,
    // against the plain sequential oracle.
    let pop = pop();
    let oracle = run_sequential(&pop, &flu_model(), &cfg(25));
    let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 6, 99);
    let mut rt = RuntimeConfig::threaded(3);
    rt.smp.pes_per_process = 1; // all inter-PE traffic takes the network path
    let run = Simulator::new(&dist, flu_model(), cfg(25), rt).run();
    assert_eq!(run.curve, oracle);
}

#[test]
fn checkpoint_resumes_on_another_distribution() {
    // The first span runs on one distribution; checkpoint; resume on a
    // *different* distribution. The combined curve must equal a straight
    // run — migration + checkpoint compose.
    let pop = pop();
    let dist_a = DataDistribution::build(&pop, Strategy::RoundRobin, 4, 99);
    let dist_b = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 99);
    let straight =
        Simulator::new(&dist_a, flu_model(), cfg(20), RuntimeConfig::sequential(2)).run();

    let mut carry = Carry::new(cfg(20).interventions.clone(), 7);
    let mut sim = Simulator::new(&dist_a, flu_model(), cfg(20), RuntimeConfig::sequential(2));
    let (mut days, _, _) = sim.run_days(0, 10, &mut carry);
    let (states, _) = sim.dismantle();
    let ckpt = Checkpoint::decode(&capture(10, 7, &carry, states).encode()).unwrap();

    // Resumed on a different distribution.
    let rt = RuntimeConfig::sequential(4);
    let mut r = Simulator::resume(ckpt, &dist_b, flu_model(), cfg(20), rt).unwrap();
    days.extend(r.sim.run_days(10, 20, &mut r.carry).0);
    assert_eq!(days, straight.curve.days);
}

#[test]
fn seirs_with_interventions_resumed_on_another_distribution_matches_plain() {
    // The tallest stack on the epidemiology side: endemic disease and a
    // prevalence-triggered school closure, checkpointed while the school
    // is closed and resumed on another distribution with another k.
    let pop = pop();
    let interventions = InterventionSet::new(vec![Intervention {
        trigger: Trigger::PrevalenceAbove(0.05),
        action: Action::CloseKind {
            kind: LocationKind::School as u8,
            duration: 14,
        },
    }]);
    let mut c = cfg(40);
    c.interventions = interventions;
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 5, 99);
    let other = DataDistribution::build(&pop, Strategy::RoundRobin, 3, 99);
    let plain = Simulator::new(
        &dist,
        seirs_model(15.0),
        c.clone(),
        RuntimeConfig::sequential(2),
    )
    .run();

    let mid = 10; // the closure runs from day 4 to day 17
    let mut carry = Carry::new(c.interventions.clone(), plain.curve.seeds);
    let mut sim = Simulator::new(
        &dist,
        seirs_model(15.0),
        c.clone(),
        RuntimeConfig::sequential(2),
    );
    let (mut days, _, _) = sim.run_days(0, mid, &mut carry);
    assert!(
        !carry.interventions.snapshot().active.is_empty(),
        "mid-closure"
    );
    let (states, _) = sim.dismantle();
    let ckpt = capture(mid, plain.curve.seeds, &carry, states);
    let ckpt = Checkpoint::decode(&ckpt.encode()).unwrap();
    let rt = RuntimeConfig::sequential(3);
    let mut r = Simulator::resume(ckpt, &other, seirs_model(15.0), c.clone(), rt).unwrap();
    days.extend(r.sim.run_days(mid, c.days, &mut r.carry).0);
    assert_eq!(days, plain.curve.days);
}

#[test]
fn ensemble_equals_explicit_replicates() {
    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 1, 99);
    let base = cfg(15);
    let world = CowWorld::build(&dist, flu_model());
    let store = run_sweep(&world, &EnsembleSpec::replicates(&base, 5), 3);
    for rep in 0..5u32 {
        let mut c = base.clone();
        c.seed = base.seed + rep as u64;
        let explicit = run_sequential(&dist.pop, &flu_model(), &c);
        assert_eq!(store.curve(0, rep as usize), &explicit, "replicate {rep}");
    }
}

#[test]
fn surrogate_screen_never_discards_the_true_top_k() {
    // EXPERIMENTS.md tolerance: promoting 2k survivors from the surrogate
    // ranking must retain every member of the true top-k of an
    // exhaustively simulated grid. The surrogate orders points by
    // percolation attack, the truth by mean simulated attack rate; both
    // are monotone in transmissibility, so the retention bound is the
    // test of the surrogate's ranking fidelity, not of exact scores.
    use episimdemics::core::ensemble::surrogate;

    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 2, 99);
    let world = CowWorld::build(&dist, flu_model());
    let rs = [0.0002, 0.0005, 0.0009, 0.0014, 0.0020, 0.0028];
    let spec = EnsembleSpec::grid(&cfg(20), &rs, 3);

    // Ground truth: every point fully simulated.
    let store = run_sweep(&world, &spec, 2);
    let mut true_order: Vec<usize> = (0..rs.len()).collect();
    true_order.sort_by(|&a, &b| {
        store
            .mean_attack_rate(b)
            .partial_cmp(&store.mean_attack_rate(a))
            .unwrap()
            .then(a.cmp(&b))
    });

    // Surrogate ranking over the same spec.
    let graph = surrogate::ContactGraph::build(&world.dist.pop);
    assert!(graph.n_edges() > 0, "contact graph must not be empty");
    let scores = surrogate::screen(&graph, &world, &spec);

    let k = 2;
    let survivors = surrogate::promote_top_k(&scores, 2 * k);
    for &want in &true_order[..k] {
        assert!(
            survivors.contains(&want),
            "true top-{k} point {want} (r={}) discarded by the screen; \
             survivors {survivors:?}, true order {true_order:?}",
            rs[want]
        );
    }
}

#[test]
fn vaccination_shows_up_in_the_transmission_tree() {
    // Vaccinating early must lower both the attack rate and the early-cohort
    // R_t relative to no action, on the identical population and seed.
    let pop = pop();
    let base = cfg(45);
    let (curve_base, states_base) = run_sequential_with_states(&pop, &flu_model(), &base);
    let mut vaxed = base.clone();
    vaxed.interventions = InterventionSet::new(vec![Intervention {
        trigger: Trigger::Day(2),
        action: Action::Vaccinate {
            fraction: 0.6,
            treatment: TreatmentId(1),
            efficacy_factor: 0.15,
        },
    }]);
    let (curve_vax, states_vax) = run_sequential_with_states(&pop, &flu_model(), &vaxed);
    assert!(
        curve_vax.total_infections() < curve_base.total_infections(),
        "vaccination must avert infections ({} vs {})",
        curve_vax.total_infections(),
        curve_base.total_infections()
    );
    let t_base = transmission_stats(&states_base);
    let t_vax = transmission_stats(&states_vax);
    assert_eq!(t_base.cases, curve_base.total_infections());
    assert_eq!(t_vax.cases, curve_vax.total_infections());
    // Mean offspring over all cases ~ attack-rate ordering.
    let mean_r =
        |t: &episimdemics::core::tree::TransmissionStats| t.edges as f64 / t.cases.max(1) as f64;
    assert!(mean_r(&t_vax) <= mean_r(&t_base) + 0.05);
}

#[test]
fn venue_attribution_consistent_in_parallel_runs() {
    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 4, 99);
    let run = Simulator::new(&dist, flu_model(), cfg(25), RuntimeConfig::sequential(4)).run();
    for d in &run.curve.days {
        assert_eq!(d.infections_by_kind.iter().sum::<u64>(), d.infects_sent);
    }
    // splitLoc must not change which venue kind transmissions attribute to:
    // split pieces inherit the original kind.
    let plain = DataDistribution::build(&pop, Strategy::RoundRobin, 4, 99);
    let run_plain =
        Simulator::new(&plain, flu_model(), cfg(25), RuntimeConfig::sequential(4)).run();
    let sum_kinds = |r: &episimdemics::core::simulator::SimRun| -> [u64; 5] {
        let mut acc = [0u64; 5];
        for d in &r.curve.days {
            for (k, &n) in d.infections_by_kind.iter().enumerate() {
                acc[k] += n;
            }
        }
        acc
    };
    assert_eq!(sum_kinds(&run), sum_kinds(&run_plain));
}
