//! End-to-end integration: the full paper pipeline — generate a synthetic
//! state, preprocess, partition, simulate on the message-driven runtime,
//! and project to scale — exercised across crate boundaries.

use episimdemics::chare_rt::RuntimeConfig;
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::seq::run_sequential;
use episimdemics::core::simulator::{SimConfig, Simulator};
use episimdemics::load_model::{LoadUnits, PiecewiseModel};
use episimdemics::ptts::flu_model;
use episimdemics::scale_model::{
    inputs_from_distribution, project_day, MachineModel, RuntimeOptions,
};
use episimdemics::synthpop::{Population, PopulationConfig};

fn pop() -> Population {
    Population::generate(&PopulationConfig::small("E2E", 2500, 77))
}

fn cfg() -> SimConfig {
    SimConfig {
        days: 30,
        r: 0.0012,
        seed: 77,
        initial_infections: 8,
        ..Default::default()
    }
}

#[test]
fn full_pipeline_all_strategies_all_engines() {
    let pop = pop();
    let ptts = flu_model();
    let oracle = run_sequential(&pop, &ptts, &cfg());
    assert!(oracle.total_infections() > 20, "outbreak must take off");
    for strategy in Strategy::ALL {
        for k in [1u32, 3, 8] {
            let dist = DataDistribution::build(&pop, strategy, k, 77);
            let run = Simulator::new(
                &dist,
                flu_model(),
                cfg(),
                RuntimeConfig::sequential(k.min(4)),
            )
            .run();
            assert_eq!(
                run.curve, oracle,
                "{strategy:?} k={k} diverged from the oracle"
            );
        }
    }
    // Threaded spot check.
    let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 4, 77);
    let run = Simulator::new(&dist, flu_model(), cfg(), RuntimeConfig::threaded(4)).run();
    assert_eq!(run.curve, oracle);
}

/// Visits scheduled on the busiest PM→LM lane of `dist`. A day's visits
/// are a filter of the schedule, and a person sends a LocationManager at
/// most one update a day, so this bounds what a lane carries on any day.
fn max_lane(dist: &DataDistribution, k: u32) -> u64 {
    use episimdemics::synthpop::PersonId;
    let mut lane = vec![0u64; (k * k) as usize];
    for p in 0..dist.pop.n_people() {
        for v in dist.pop.visits_of(PersonId(p)) {
            let pm = dist.person_part()[p as usize];
            let lm = dist.location_part()[v.location.0 as usize];
            lane[(pm * k + lm) as usize] += 1;
        }
    }
    *lane.iter().max().unwrap()
}

/// Person-phase messages with application-aware aggregation on: one
/// `BeginDay` per PM plus at most ⌈lane / `BATCH_CAP`⌉ `Updates` batches
/// on each of the k² PM→LM lanes.
fn batched_person_phase_bound(dist: &DataDistribution, k: u32) -> u64 {
    use episimdemics::core::managers::BATCH_CAP;
    u64::from(k) + u64::from(k * k) * max_lane(dist, k).div_ceil(BATCH_CAP as u64)
}

/// `no_opt()` is the paper's "RR no-opt" traffic on the real runtime: with
/// aggregation off every visit is its own message, so the person phase
/// processes the k `BeginDay` messages plus exactly one message per visit,
/// where the default stays within the batched bound. The epidemic is the
/// same either way.
#[test]
fn no_opt_runtime_same_epidemic() {
    let pop = pop();
    let k = 4u32;
    let dist = DataDistribution::build(&pop, Strategy::RoundRobin, k, 77);
    let opt = Simulator::new(&dist, flu_model(), cfg(), RuntimeConfig::sequential(k)).run();
    let noopt = Simulator::new(
        &dist,
        flu_model(),
        cfg(),
        RuntimeConfig::sequential(k).no_opt(),
    )
    .run();
    assert_eq!(
        opt.curve, noopt.curve,
        "§IV optimizations must not change results"
    );
    let bound = batched_person_phase_bound(&dist, k);
    for ((o, n), day) in opt.perf.iter().zip(&noopt.perf).zip(&opt.curve.days) {
        assert_eq!(
            n.person_phase.totals().processed,
            u64::from(k) + day.visits,
            "day {}: no-opt sends one message per visit",
            day.day
        );
        let batched = o.person_phase.totals().processed;
        assert!(
            batched <= bound,
            "day {}: {batched} person-phase messages, bound {bound}",
            day.day
        );
    }
}

/// Application-aware aggregation (§IV-C) over state deltas: the person
/// phase delivers one `BeginDay` per PM plus one `Updates` batch per
/// `BATCH_CAP` updates of each PM→LM lane — not one message per visit —
/// and still counts every attended visit. With `U` updates on a day,
/// `Σ_lanes ⌈u / BATCH_CAP⌉ ≤ ⌊U / BATCH_CAP⌋ + min(k², U)`.
#[test]
fn person_phase_sends_batches_per_lane_not_messages_per_visit() {
    use episimdemics::core::managers::BATCH_CAP;
    use episimdemics::core::messages::slots;

    let pop = pop();
    let k = 2u32;
    let dist = DataDistribution::build(&pop, Strategy::RoundRobin, k, 77);
    // Nearly everyone is seeded, so day 0's updates overflow a lane.
    let cfg = SimConfig {
        initial_infections: 2400,
        ..cfg()
    };
    let oracle = run_sequential(&pop, &flu_model(), &cfg);
    let run = Simulator::new(&dist, flu_model(), cfg, RuntimeConfig::sequential(k)).run();
    assert_eq!(run.curve, oracle);
    let lanes = u64::from(k * k);
    for (perf, day) in run.perf.iter().zip(&oracle.days) {
        let processed = perf.person_phase.totals().processed;
        let updates = perf.person_phase.reduction(slots::UPDATES_SENT);
        let bound = u64::from(k) + updates / BATCH_CAP as u64 + updates.min(lanes);
        assert!(
            processed <= bound,
            "day {}: {processed} person-phase messages, {updates} updates, bound {bound}",
            day.day
        );
        assert_eq!(
            perf.location_phase.reduction(slots::EVENTS),
            2 * day.visits,
            "day {}: visits attended",
            day.day
        );
        assert!(day.visits > 10 * bound, "day {}: vacuous bound", day.day);
    }
    let day0 = run.perf[0].person_phase.reduction(slots::UPDATES_SENT);
    assert!(
        day0 > lanes * BATCH_CAP as u64,
        "a lane must overflow one batch or the cap is never exercised ({day0} updates)"
    );
}

/// Schedules are static, so with no one infected no person's state leaves
/// the baseline: every day's person phase is the k `BeginDay` messages and
/// nothing else.
#[test]
fn person_phase_without_infections_is_begin_day_only() {
    let pop = pop();
    let k = 4u32;
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, k, 77);
    let cfg = SimConfig {
        initial_infections: 0,
        days: 6,
        stop_when_extinct: false,
        ..cfg()
    };
    let run = Simulator::new(&dist, flu_model(), cfg, RuntimeConfig::sequential(k)).run();
    assert_eq!(run.perf.len(), 6);
    for (perf, day) in run.perf.iter().zip(&run.curve.days) {
        assert_eq!(
            perf.person_phase.totals().processed,
            u64::from(k),
            "day {}",
            day.day
        );
        assert!(day.visits > 0);
    }
}

#[test]
fn projection_pipeline_prefers_paper_winner() {
    // The whole point of the paper: at scale, GP-splitLoc wins.
    let pop = Population::generate(&PopulationConfig::small("proj", 20_000, 3));
    let machine = MachineModel::default();
    let opts = RuntimeOptions::optimized();
    let model = PiecewiseModel::paper_constants();
    let mut secs = std::collections::HashMap::new();
    for strategy in Strategy::ALL {
        let dist = DataDistribution::build(&pop, strategy, 128, 3);
        let inputs = inputs_from_distribution(&dist, &model, LoadUnits::default());
        secs.insert(
            strategy.label(),
            project_day(&inputs, &machine, &opts).seconds,
        );
    }
    let gp_split = secs["GP-splitLoc"];
    assert!(
        gp_split <= secs["RR"],
        "GP-splitLoc {gp_split} vs RR {}",
        secs["RR"]
    );
    assert!(
        gp_split <= secs["GP"],
        "GP-splitLoc {gp_split} vs GP {}",
        secs["GP"]
    );
}

#[test]
fn epidemic_conservation_laws() {
    let pop = pop();
    let ptts = flu_model();
    let curve = run_sequential(&pop, &ptts, &cfg());
    let population = curve.population;
    let mut prev_cumulative = curve.seeds;
    for d in &curve.days {
        // Susceptible at day start + everyone ever infected before today
        // must equal the population.
        assert_eq!(
            d.susceptible + prev_cumulative,
            population,
            "conservation violated at day {}",
            d.day
        );
        assert_eq!(d.cumulative, prev_cumulative + d.new_infections);
        assert!(d.symptomatic <= d.infected_now);
        prev_cumulative = d.cumulative;
    }
}

#[test]
fn seirs_produces_endemic_dynamics() {
    // With waning immunity the disease persists instead of burning out —
    // and the parallel simulator still matches the oracle exactly.
    use episimdemics::ptts::seirs_model;
    let pop = pop();
    let cfg = SimConfig {
        days: 120,
        r: 0.0012,
        seed: 77,
        initial_infections: 8,
        stop_when_extinct: true,
        ..Default::default()
    };
    let oracle = run_sequential(&pop, &seirs_model(20.0), &cfg);
    // Endemic: still producing infections in the final month.
    let late: u64 = oracle
        .days
        .iter()
        .rev()
        .take(30)
        .map(|d| d.new_infections)
        .sum();
    assert!(late > 0, "SEIRS should persist (late infections = {late})");
    assert_eq!(
        oracle.days.len(),
        120,
        "no extinction under waning immunity"
    );
    // Reinfection actually happens: cumulative exceeds the population.
    assert!(
        oracle.total_infections() > oracle.population,
        "cumulative {} should exceed population {} via reinfection",
        oracle.total_infections(),
        oracle.population
    );
    let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 4, 77);
    let parallel =
        Simulator::new(&dist, seirs_model(20.0), cfg, RuntimeConfig::sequential(4)).run();
    assert_eq!(parallel.curve, oracle);
}

#[test]
fn larger_k_never_changes_epidemiology_only_performance() {
    let pop = pop();
    let mut last_series = None;
    for k in [2u32, 5, 16] {
        let dist = DataDistribution::build(&pop, Strategy::GraphPartition, k, 1);
        let run = Simulator::new(&dist, flu_model(), cfg(), RuntimeConfig::sequential(2)).run();
        let series = run.curve.new_infection_series();
        if let Some(prev) = &last_series {
            assert_eq!(prev, &series, "k={k}");
        }
        last_series = Some(series);
    }
}

/// Seed-sweep determinism: the same scenario across 8 simulation seeds
/// must hash identically under {sequential, threaded, threaded without
/// aggregation} — the per-seed epidemic is a property of the seed, never
/// of the engine or the message schedule (DESIGN.md §7).
#[test]
fn seed_sweep_identical_hashes_across_engines() {
    let pop = Population::generate(&PopulationConfig::small("SWEEP", 1000, 13));
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 3, 13);
    let sim = |seed: u64| SimConfig {
        days: 12,
        r: 0.0015,
        seed,
        initial_infections: 6,
        ..Default::default()
    };
    let mut thr_noagg = RuntimeConfig::threaded(3);
    thr_noagg.aggregation.enabled = false;
    let mut per_seed = Vec::new();
    for seed in 1..=8u64 {
        let reference =
            Simulator::run_curve(&dist, flu_model(), sim(seed), RuntimeConfig::sequential(3))
                .hash();
        for (label, rt) in [
            ("threaded", RuntimeConfig::threaded(3)),
            ("threaded-noagg", thr_noagg),
        ] {
            let h = Simulator::run_curve(&dist, flu_model(), sim(seed), rt).hash();
            assert_eq!(h, reference, "{label} diverged at seed {seed}");
        }
        per_seed.push(reference);
    }
    per_seed.sort_unstable();
    per_seed.dedup();
    assert_eq!(
        per_seed.len(),
        8,
        "distinct seeds must yield distinct curves"
    );
}

/// Pins the exact epidemic produced by (pop seed 77, sim seed 77, 30 days)
/// against hard-coded values captured from the pre-scratch-kernel
/// implementation. The location kernel's CRNG draws are keyed purely by
/// (seed, person, day, purpose, start_min), so any refactor of the event
/// sweep, visit ordering, or buffer management must reproduce this curve
/// bit-for-bit — a change here means the determinism contract broke, not
/// that the test needs updating.
#[test]
fn epidemic_curve_pinned_across_kernel_versions() {
    let oracle = run_sequential(&pop(), &flu_model(), &cfg());
    let days: Vec<u64> = oracle.days.iter().map(|d| d.new_infections).collect();
    assert_eq!(oracle.total_infections(), 2499);
    assert_eq!(oracle.days.iter().map(|d| d.events).sum::<u64>(), 736_480);
    assert_eq!(
        oracle.days.iter().map(|d| d.infects_sent).sum::<u64>(),
        2965
    );
    assert_eq!(
        days,
        vec![
            2, 11, 27, 47, 89, 150, 229, 406, 484, 468, 320, 145, 74, 22, 8, 5, 2, 1, 0, 0, 1, 0,
            0, 0, 0, 0, 0
        ]
    );
}
