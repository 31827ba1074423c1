//! Epidemic-level cross-engine conformance (DESIGN.md §7): the same
//! scenario must produce the identical epidemic-curve FNV hash on the
//! sequential engine, the threaded engine, and the virtual-time DST engine
//! under every benign fault plan — across a grid of seeds × plans. The
//! lossy plan is the negative control: it must be caught.

use episimdemics::chare_rt::{align_to_invocation, worker_target, FaultPlan, RuntimeConfig};
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::engine::pe_for_partition;
use episimdemics::core::person::PersonSlot;
use episimdemics::core::seq::run_sequential_with_states;
use episimdemics::core::simulator::{SimConfig, Simulator};
use episimdemics::core::splitloc::SplitConfig;
use episimdemics::load_model::PiecewiseModel;
use episimdemics::ptts::intervention::{Action, Intervention, InterventionSet, Trigger};
use episimdemics::ptts::model::{DwellDist, PttsBuilder, TreatmentId};
use episimdemics::ptts::{flu_model, Ptts};
use episimdemics::synthpop::{LocationKind, Population, PopulationConfig};

fn pop() -> Population {
    Population::generate(&PopulationConfig::small("CONF", 1000, 19))
}

fn sim_cfg(seed: u64) -> SimConfig {
    SimConfig {
        days: 12,
        r: 0.0015,
        seed,
        initial_infections: 6,
        ..Default::default()
    }
}

fn curve_hash_under(dist: &DataDistribution, seed: u64, rt: RuntimeConfig) -> u64 {
    Simulator::run_curve(dist, flu_model(), sim_cfg(seed), rt).hash()
}

/// 8 seeds × {sequential, threaded, DST under 5 benign fault plans}: one
/// hash per seed. Message delay, lane reordering, duplicate delivery,
/// drop-with-redelivery, and PE stalls are all invisible to the epidemic.
#[test]
fn epidemic_hash_identical_across_engines_and_fault_plans() {
    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 19);
    let plans: [fn(u64) -> FaultPlan; 5] = [
        FaultPlan::reorder,
        FaultPlan::duplicates,
        FaultPlan::drops,
        FaultPlan::stalls,
        FaultPlan::chaos,
    ];
    let mut hashes = Vec::new();
    for seed in 1..=8u64 {
        let reference = curve_hash_under(&dist, seed, RuntimeConfig::sequential(4));
        let threaded = curve_hash_under(&dist, seed, RuntimeConfig::threaded(3));
        assert_eq!(threaded, reference, "threaded diverged at seed {seed}");
        for (pi, plan) in plans.iter().enumerate() {
            let rt = RuntimeConfig::dst(4, plan(seed * 1000 + pi as u64));
            let dst = curve_hash_under(&dist, seed, rt);
            assert_eq!(
                dst, reference,
                "DST engine diverged at seed {seed}, plan {pi}"
            );
        }
        hashes.push(reference);
    }
    // The per-seed hashes themselves must differ — if they collided, the
    // grid would be vacuous.
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), 8, "seeds must produce distinct epidemics");
}

/// The net engine joins the conformance grid: 8 seeds × {1, 2, 4} worker
/// processes, every curve hash bit-identical to the sequential engine.
/// Worker processes re-execute this test (SPMD); they jump straight to
/// their target invocation with [`align_to_invocation`] and never compute
/// the sequential references.
#[test]
fn net_engine_matches_sequential_across_process_counts() {
    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 19);
    const PROCS: [u32; 3] = [1, 2, 4];
    if let Some(target) = worker_target() {
        // Worker replay: invocation (seed-1)·3 + pi, mirroring the root's
        // loop below. Run only the one net simulation this worker joins —
        // the process exits inside the runtime teardown.
        let seed = target / PROCS.len() as u64 + 1;
        let n_procs = PROCS[(target % PROCS.len() as u64) as usize];
        align_to_invocation(target);
        curve_hash_under(&dist, seed, RuntimeConfig::net(4, n_procs));
        return;
    }
    for seed in 1..=8u64 {
        let reference = curve_hash_under(&dist, seed, RuntimeConfig::sequential(4));
        for n_procs in PROCS {
            let net = curve_hash_under(&dist, seed, RuntimeConfig::net(4, n_procs));
            assert_eq!(
                net, reference,
                "net engine diverged at seed {seed} with {n_procs} processes"
            );
        }
    }
}

/// A worker that joins a later net run first replays the earlier ones on
/// the sequential engine, which hosts every PE, so it must lay out every
/// partition there, not only those its rank hosts in the run it joins.
/// Two net runs in a row with no [`align_to_invocation`], shaped like a
/// strong-scaling loop: the second run's worker replays the first. The
/// reference runs on a second build of the same world (a clone would
/// share the layout it builds), so `dist` has no layout built and each
/// rank of the first run lays out only its own partitions.
#[test]
fn net_worker_replaying_an_earlier_run_lays_out_every_partition() {
    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 4, 19);
    let same = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 4, 19);
    assert_eq!(same.person_part(), dist.person_part());
    assert_eq!(same.location_part(), dist.location_part());
    let reference = curve_hash_under(&same, 5, RuntimeConfig::sequential(4));
    for n_pes in [2, 4] {
        let net = curve_hash_under(&dist, 5, RuntimeConfig::net(n_pes, 2));
        assert_eq!(net, reference, "net({n_pes}, 2) diverged");
    }
}

/// splitLoc-heavy regression (DESIGN.md §3): force an aggressive visit
/// threshold so most multi-room locations split, then require (a) the
/// split actually happened, (b) every engine agrees on the curve, and
/// (c) the hash matches a pinned constant — so a silent change to the
/// split planner, cohort routing, or location RNG streams shows up as a
/// red test, not a quiet drift.
#[test]
fn splitloc_heavy_curve_hash_is_pinned_and_engine_invariant() {
    let pop = pop();
    let split = SplitConfig {
        max_partitions: 1024,
        threshold_override: Some(4),
    };
    let dist = DataDistribution::build_with(
        &pop,
        Strategy::GraphPartitionSplit,
        4,
        19,
        &split,
        &PiecewiseModel::paper_constants(),
    );
    assert!(
        dist.pop.n_locations() > pop.n_locations(),
        "threshold 4 must split locations ({} vs {}) or the test is vacuous",
        dist.pop.n_locations(),
        pop.n_locations()
    );
    let reference = curve_hash_under(&dist, 7, RuntimeConfig::sequential(4));
    assert_eq!(
        reference,
        curve_hash_under(&dist, 7, RuntimeConfig::threaded(3)),
        "threaded engine diverged on the split population"
    );
    assert_eq!(
        reference,
        curve_hash_under(&dist, 7, RuntimeConfig::dst(4, FaultPlan::chaos(77))),
        "DST engine diverged on the split population"
    );
    // Splitting must also leave the epidemic itself unchanged: the same
    // scenario without splitLoc produces the identical curve (§III-C's
    // "provably does not change simulation results").
    let unsplit = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 19);
    assert_eq!(
        reference,
        curve_hash_under(&unsplit, 7, RuntimeConfig::sequential(4)),
        "splitLoc changed the epidemic"
    );
    // Pinned: any edit that moves this constant is a determinism break.
    assert_eq!(
        reference, 0x81ac_e93d_9693_bd5f,
        "pinned splitLoc curve hash moved"
    );
}

/// The ensemble engine joins the conformance grid: a pinned 3 × 3
/// transmissibility/seed sweep whose [`ResultStore`] hash must be
/// identical on 1, 2, and 5 workers AND match a pinned constant. A moved
/// constant means the ensemble path diverged from the oracle — a
/// determinism break, not a tolerable drift.
#[test]
fn ensemble_sweep_hash_is_pinned_and_worker_invariant() {
    use episimdemics::core::ensemble::{run_sweep, CowWorld, EnsembleSpec};

    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 19);
    let world = CowWorld::build(&dist, flu_model());
    let spec = EnsembleSpec::grid(&sim_cfg(19), &[0.0008, 0.0015, 0.0030], 3);
    let reference = run_sweep(&world, &spec, 1).hash();
    for workers in [2u32, 5] {
        assert_eq!(
            run_sweep(&world, &spec, workers).hash(),
            reference,
            "ensemble sweep diverged at {workers} workers"
        );
    }
    // Each member must equal the standalone simulator on the same config —
    // the store is a pure re-indexing of per-member runs, never a blend.
    let store = run_sweep(&world, &spec, 3);
    let standalone = Simulator::run_curve(
        &dist,
        flu_model(),
        spec.points[1].config(&spec.base, spec.seeds[2]),
        RuntimeConfig::sequential(4),
    );
    assert_eq!(store.curve(1, 2), &standalone, "member (1,2) diverged");
    // Pinned: any edit that moves this constant is a determinism break.
    assert_eq!(
        reference, 0x7ef1_0c93_9d4b_2bc5,
        "pinned ensemble sweep hash moved"
    );
}

/// Negative control for the net engine: killing a worker process mid-run
/// must surface as a transport error on the root, not hang and not produce
/// a curve. (The killed worker exits abruptly at phase entry; phase 4 is
/// day 1's location phase.)
#[test]
fn net_killed_worker_is_a_transport_error() {
    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 19);
    let mut rt = RuntimeConfig::net(4, 2);
    rt.faults = FaultPlan::proc_kill(0, 1, 4);
    // Workers re-run this same body; the doomed rank exits inside the
    // runtime before the catch_unwind outcome matters.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        curve_hash_under(&dist, 11, rt)
    }));
    let err = result.expect_err("root must panic when a worker dies");
    let te = err
        .downcast_ref::<chare_rt::TransportError>()
        .expect("panic payload must be a typed TransportError, not an arbitrary crash");
    assert!(
        te.0.contains("disconnected") || te.0.contains("failed"),
        "expected the error to describe the peer loss, got: {te}"
    );
}

/// Negative control (EXPERIMENTS.md): a transport that drops messages
/// without redelivery must change the epidemic hash and report the loss.
/// If this test ever passes with `lost == 0` or equal hashes, the
/// conformance suite has stopped testing anything.
#[test]
fn negative_control_lossy_transport_changes_the_epidemic() {
    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 19);
    let reference =
        Simulator::run_curve(&dist, flu_model(), sim_cfg(3), RuntimeConfig::sequential(4));

    // Partial loss: drop 30% of first transmissions, never redeliver.
    let mut plan = FaultPlan::lossy(7);
    plan.drop_permille = 300;
    let run = Simulator::new(&dist, flu_model(), sim_cfg(3), RuntimeConfig::dst(4, plan)).run();
    let lost: u64 = run
        .perf
        .iter()
        .map(|d| {
            d.person_phase.totals().lost
                + d.location_phase.totals().lost
                + d.apply_phase.totals().lost
        })
        .sum();
    assert!(lost > 0, "lossy plan must report lost messages");
    let updates_lost: u64 = run.perf.iter().map(|d| d.person_phase.totals().lost).sum();
    assert!(
        updates_lost > 0,
        "the lossy plan must lose person-phase updates"
    );
    assert_ne!(
        run.curve.hash(),
        reference.hash(),
        "losing 30% of messages must change the epidemic curve"
    );
}

/// What MAY vary across engines and benign plans: wall time, the
/// aggregation setting, per-PE message splits. What must NOT: the curve
/// hash. With aggregation off the day is the paper's protocol, every
/// visit and every infect its own message (the count is pinned by
/// `tests/end_to_end.rs`'s `no_opt_runtime_same_epidemic`); with it on,
/// persons send state deltas and LocationManagers sweep a static layout.
/// The two are compared under a reordering plan, then on a split world
/// with a school closure and a vaccination order on seq, threads and vt,
/// curves and transmission trees both: a closure moves attendance, and a
/// vaccination moves `sus_scale` without moving the state.
#[test]
fn aggregation_setting_may_vary_but_curve_may_not() {
    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 4, 19);
    let mut agg_on = RuntimeConfig::dst(4, FaultPlan::reorder(5));
    agg_on.smp.pes_per_process = 1; // every PE its own process: all remote
    let mut agg_off = agg_on;
    agg_off.aggregation.enabled = false;
    assert_eq!(
        curve_hash_under(&dist, 2, agg_on),
        curve_hash_under(&dist, 2, agg_off)
    );

    let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 4, 19);
    let cfg = SimConfig {
        days: 20,
        initial_infections: 12,
        interventions: closure_and_vaccination(),
        ..sim_cfg(4)
    };
    for agg_on in [
        RuntimeConfig::sequential(4),
        RuntimeConfig::threaded(2),
        RuntimeConfig::dst(4, FaultPlan::reorder(9)),
    ] {
        let mut agg_off = agg_on;
        agg_off.aggregation.enabled = false;
        let run = |rt| Simulator::new(&dist, flu_model(), cfg.clone(), rt).run_collecting();
        let (deltas, delta_states) = run(agg_on);
        let (visits, visit_states) = run(agg_off);
        assert!(
            deltas.curve.total_infections() > 30,
            "the epidemic takes off"
        );
        assert_eq!(deltas.curve, visits.curve, "{:?}", agg_on.mode);
        assert_eq!(
            tree(&delta_states),
            tree(&visit_states),
            "{:?}",
            agg_on.mode
        );
    }
}

/// Schools close from day 2 for a week, and half the population is
/// offered a vaccine cutting susceptibility to a fifth on day 1.
fn closure_and_vaccination() -> InterventionSet {
    InterventionSet::new(vec![
        Intervention {
            trigger: Trigger::Day(1),
            action: Action::Vaccinate {
                fraction: 0.5,
                treatment: TreatmentId(1),
                efficacy_factor: 0.2,
            },
        },
        Intervention {
            trigger: Trigger::Day(2),
            action: Action::CloseKind {
                kind: LocationKind::School as u8,
                duration: 7,
            },
        },
    ])
}

/// SIS: an infection leaves a person susceptible again after a geometric
/// dwell, so about half the seeds are susceptible again on day 0 while the
/// rest are still infectious next to them.
fn sis_model() -> Ptts {
    PttsBuilder::new("sis")
        .state("susceptible", 0.0, 1.0, DwellDist::Forever)
        .state("infectious", 1.0, 0.0, DwellDist::Geometric(0.5))
        .transition("infectious", TreatmentId::DEFAULT, &[("susceptible", 1.0)])
        .start("susceptible")
        .exposed("infectious")
        .build()
        .expect("SIS model validates")
}

/// `(infected_on, infected_by)` per person: the transmission tree.
fn tree(states: &[PersonSlot]) -> Vec<(Option<u32>, Option<u32>)> {
    states
        .iter()
        .map(|p| (p.infected_on, p.infected_by))
        .collect()
}

/// The transmission tree, not just the curve, is engine-invariant: every
/// person's `(infected_on, infected_by)` after a run on seq, threads, vt
/// under the chaos plan, and net with two processes equals the sequential
/// oracle's. PersonManagers apply an infection when its first infect
/// arrives, so this pins that a later, smaller infect only re-attributes a
/// person infected that same day. Day 0 is the sharp case: seeds carry
/// `infected_on == Some(0)` from before the day starts, and in this world
/// some of them are susceptible again and infected anew on day 0.
#[test]
fn transmission_tree_identical_across_engines() {
    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 19);
    let cfg = SimConfig {
        days: 12,
        r: 0.004,
        seed: 23,
        initial_infections: 120,
        ..Default::default()
    };
    let net = RuntimeConfig::net(4, 2);
    if let Some(target) = worker_target() {
        align_to_invocation(target);
        Simulator::new(&dist, sis_model(), cfg, net).run_collecting();
        return;
    }
    let (_, oracle) = run_sequential_with_states(&dist.pop, &sis_model(), &cfg);
    let oracle = tree(&oracle);

    // The world must reach the day-0 case: a seed infected again on day 0.
    let seeded = run_sequential_with_states(
        &dist.pop,
        &sis_model(),
        &SimConfig {
            days: 0,
            ..cfg.clone()
        },
    )
    .1;
    let day0 = run_sequential_with_states(
        &dist.pop,
        &sis_model(),
        &SimConfig {
            days: 1,
            ..cfg.clone()
        },
    )
    .1;
    assert!(
        seeded
            .iter()
            .zip(&day0)
            .any(|(s, d)| s.infected_on.is_some() && d.infected_by.is_some()),
        "no seed is infected again on day 0: the test would be vacuous"
    );

    for (name, rt) in [
        ("seq", RuntimeConfig::sequential(4)),
        ("threads", RuntimeConfig::threaded(3)),
        ("vt chaos", RuntimeConfig::dst(4, FaultPlan::chaos(23))),
    ] {
        let (_, states) = Simulator::new(&dist, sis_model(), cfg.clone(), rt).run_collecting();
        assert_eq!(tree(&states), oracle, "{name} transmission tree diverged");
    }

    // A net root reclaims only the persons of its own PersonManagers.
    let (_, states) = Simulator::new(&dist, sis_model(), cfg, net).run_collecting();
    let states = tree(&states);
    let on_root: Vec<usize> = (0..states.len())
        .filter(|&p| {
            net.smp
                .same_process(0, pe_for_partition(dist.person_part()[p], 4, 4))
        })
        .collect();
    assert!(
        on_root.iter().any(|&p| oracle[p].1.is_some()),
        "the root must own infected persons"
    );
    for p in on_root {
        assert_eq!(
            states[p], oracle[p],
            "net transmission tree diverged at person {p}"
        );
    }
}

/// An infection ends in a state that never changes: an infectious
/// `carrier`, a `symptomatic` state that infects no one but draws the
/// stay-home coin every day, or `recovered` after a finite `sick` spell.
fn stuck_model() -> Ptts {
    PttsBuilder::new("stuck")
        .treatments(2)
        .state("susceptible", 0.0, 1.0, DwellDist::Forever)
        .state("latent", 0.0, 0.0, DwellDist::Uniform(1, 2))
        .state("carrier", 0.5, 0.0, DwellDist::Forever)
        .state("symptomatic", 0.0, 0.0, DwellDist::Forever)
        .state("sick", 1.0, 0.0, DwellDist::Uniform(2, 4))
        .state("recovered", 0.0, 0.0, DwellDist::Forever)
        .transition(
            "latent",
            TreatmentId::DEFAULT,
            &[("carrier", 0.25), ("symptomatic", 0.25), ("sick", 0.5)],
        )
        .transition("sick", TreatmentId::DEFAULT, &[("recovered", 1.0)])
        .start("susceptible")
        .exposed("latent")
        .build()
        .expect("the stuck model validates")
}

/// A PersonManager runs the mornings of its roster only, except on a day
/// with a vaccination order or a closed kind. On a model with absorbing
/// infectious and symptomatic states, under a vaccination and a school
/// closure, seq, threads and vt equal the full-scan oracle in curve and
/// transmission tree, and so does a run resumed mid-closure (its PMs list
/// whoever owes an update), on the same partition or on another one
/// (re-homed persons).
#[test]
fn person_roster_runs_equal_the_full_scan_oracle() {
    use episimdemics::core::checkpoint::capture;
    use episimdemics::core::simulator::Carry;
    let pop = pop();
    let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 4, 19);
    let cfg = SimConfig {
        days: 30,
        r: 0.003,
        initial_infections: 12,
        interventions: closure_and_vaccination(),
        stop_when_extinct: false,
        ..sim_cfg(5)
    };
    let (oracle, oracle_states) = run_sequential_with_states(&dist.pop, &stuck_model(), &cfg);
    let ptts = stuck_model();
    let ended_in = |name: &str| {
        let state = ptts.state_by_name(name);
        oracle_states
            .iter()
            .filter(|s| Some(s.health.state) == state)
            .count()
    };
    assert!(ended_in("carrier") > 0 && ended_in("symptomatic") > 0);
    assert!(oracle.total_infections() > 30, "the epidemic takes off");

    for rt in [
        RuntimeConfig::sequential(4),
        RuntimeConfig::threaded(2),
        RuntimeConfig::dst(4, FaultPlan::chaos(5)),
    ] {
        let (run, states) = Simulator::new(&dist, stuck_model(), cfg.clone(), rt).run_collecting();
        assert_eq!(run.curve, oracle, "{:?}", rt.mode);
        assert_eq!(tree(&states), tree(&oracle_states), "{:?}", rt.mode);
    }

    // A checkpoint taken mid-closure resumes on the same partition and on
    // another one of the same split population: migrating persons between
    // partitions is a resume on a different distribution.
    let rr = DataDistribution::build(&pop, Strategy::RoundRobinSplit, 4, 19);
    assert_eq!(rr.orig_of_location, dist.orig_of_location, "same split");
    assert_ne!(rr.person_part(), dist.person_part());
    let rt = RuntimeConfig::sequential(4);
    for (name, resume_on) in [("same partition", &dist), ("RR partition", &rr)] {
        let mut sim = Simulator::new(&dist, stuck_model(), cfg.clone(), rt);
        let mut carry = Carry::new(cfg.interventions.clone(), oracle.seeds);
        let (mut days, _, _) = sim.run_days(0, 5, &mut carry);
        assert!(
            !carry.interventions.snapshot().active.is_empty(),
            "mid-closure"
        );
        let (states, _) = sim.dismantle();
        let ckpt = capture(5, oracle.seeds, &carry, states);
        let mut resumed = Simulator::resume(ckpt, resume_on, stuck_model(), cfg.clone(), rt)
            .expect("the checkpoint fits the run");
        days.extend(resumed.sim.run_days(5, cfg.days, &mut resumed.carry).0);
        assert_eq!(days, oracle.days, "resumed on the {name}");
        let (states, _) = resumed.sim.dismantle();
        assert_eq!(tree(&states), tree(&oracle_states), "resumed on the {name}");
    }
}
