//! `sweep-10k.oracle2`: a transmissibility grid through
//! `ensemble::run_sweep`. It runs `core::seq` only, so chare-rt does
//! nothing: the bypass for every runtime change, and the compute floor.

use crate::common::{self, iterations, sim_config, Report, Run, Samples, World};
use crate::manifest::{NET_LAYER, SERVE_LAYER};
use crate::measure::{median, peak_rss_mb, percentile};
use crate::probes;
use crate::trace::Tracer;
use chare_rt::RuntimeConfig;
use episim_core::{run_sweep, CowWorld, EnsembleSpec, Simulator, Strategy};
use ptts::flu_model;

const PEOPLE: u32 = 10_000;
const DAYS: u32 = 60;
/// Spans the epidemic threshold: a few percent to most of the population.
const R_GRID: [f64; 5] = [0.5e-4, 0.75e-4, 1e-4, 1.5e-4, 2e-4];
const SEEDS_PER_POINT: u32 = 8;
const WORKERS: u32 = 2;
/// The member the engine cross-check and the layer probes use: the
/// middle of the grid (r = 1e-4), first seed.
const PROBE_MEMBER: usize = 2 * SEEDS_PER_POINT as usize;

fn build_world(tr: &mut Tracer, run: &Run) -> World {
    World::build(
        tr,
        "EPB",
        run.people(PEOPLE),
        Strategy::GraphPartition,
        4,
        run.seed,
        run.seed,
    )
}

fn spec(run: &Run) -> EnsembleSpec {
    let base = sim_config(run.days(DAYS), R_GRID[0], run.sim_seed());
    EnsembleSpec::grid(&base, &R_GRID, SEEDS_PER_POINT)
}

/// One iteration, in its own process: set the world up, run the sweep.
pub fn iteration(tr: &mut Tracer, run: &Run) -> Samples {
    let spec = spec(run);
    let world = build_world(tr, run);
    let (cow, cow_s) = tr.span("core.world_build", |_| {
        CowWorld::build(&world.dist, flu_model())
    });
    let (store, wall) = tr.span("ensemble.run_sweep", |_| run_sweep(&cow, &spec, WORKERS));
    let (point, seed_idx) = spec.member(PROBE_MEMBER);
    let rss_mb = peak_rss_mb();
    // Correctness, after every measurement: one member must equal a
    // chare-rt sequential-engine run of the same config.
    let (engine_hash, _) = tr.span("ensemble.engine_check", |_| {
        Simulator::run_curve(
            &world.dist,
            flu_model(),
            spec.config_for(PROBE_MEMBER),
            RuntimeConfig::sequential(1),
        )
        .hash()
    });
    Samples {
        generate_s: world.generate_s,
        partition_s: world.partition_s,
        world_build_s: vec![cow_s],
        // run_sweep hands back nothing until every member is done.
        first_point_ms: vec![wall * 1e3],
        walls: vec![wall],
        hash: store.curve(point, seed_idx).hash(),
        attack: vec![
            store.mean_attack_rate(0),
            store.mean_attack_rate(R_GRID.len() - 1),
        ],
        check_hash: engine_hash,
        rss_mb,
        ..Samples::default()
    }
}

pub fn run(tr: &mut Tracer, run: &Run) -> Report {
    let spec = spec(run);
    let members = spec.n_members() as u64;
    let member_days = (members * spec.base.days as u64) as f64;
    let mut report = Report::new();
    let its = iterations(tr, "ensemble.iteration", run);
    let walls: Vec<f64> = its.iter().map(|s| s.walls[0]).collect();
    let s_per_day = median(&walls) / member_days;

    report.attempted = its.len() as u64 * members;
    for (i, s) in its.iter().enumerate() {
        if s.hash != s.check_hash {
            report.failed += members;
            report.gate(false, || {
                format!(
                    "sweep {i}: member {PROBE_MEMBER} hashes {:#x}, the sequential engine {:#x}",
                    s.hash, s.check_hash
                )
            });
        }
        let (low, top) = (s.attack[0], s.attack[1]);
        report.gate(run.quick || (top >= 0.30 && low < top), || {
            format!(
                "sweep {i}: the grid no longer spans the threshold: attack {low:.3} at r={}, {top:.3} at r={}",
                R_GRID[0], R_GRID[4]
            )
        });
    }

    if !run.trace {
        let setup: Vec<f64> = its.iter().map(Samples::setup_s).collect();
        let rss = common::peak_rss_mb(&its);
        report.set("setup_s", median(&setup));
        report.set("s_per_day", s_per_day);
        report.set("first_point_ms", median(&walls) * 1e3);
        report.set("peak_rss_mb", rss);
        eprintln!(
            "epibench: {} sweeps x {members} members x {} days, {:.2} runs/s, attack {:.3}..{:.3}, {:.0} bytes/agent",
            its.len(),
            spec.base.days,
            members as f64 / median(&walls),
            its[0].attack[0],
            its[0].attack[1],
            rss * 1024.0 * 1024.0 / run.people(PEOPLE) as f64
        );
        return report;
    }

    // The layer probes run on the first iteration's world.
    let probe_run = Run {
        seed: run.iteration_seed(0),
        ..run.clone()
    };
    let spec = self::spec(&probe_run);
    let probe_cfg = spec.config_for(PROBE_MEMBER);
    let world = build_world(tr, &probe_run);
    let oracle = probes::oracle(tr, &world, &probe_cfg);
    report.gate(oracle.hash == its[0].hash, || {
        "run_sequential alone does not reproduce the sweep member".to_string()
    });
    let layers = probes::layers(tr, &world, &probe_cfg, oracle.hash, &mut report);
    // The same sweep on one worker: how much of the second core is used.
    let cow = CowWorld::build(&world.dist, flu_model());
    let (_, one_worker_s) = tr.span("ensemble.run_sweep_1", |_| run_sweep(&cow, &spec, 1));

    let each = |f: fn(&Samples) -> f64| its.iter().map(f).collect::<Vec<f64>>();
    report.set("synthpop.generate_s", median(&each(|s| s.generate_s)));
    report.set("graph_part.build_s", median(&each(|s| s.partition_s)));
    report.set("core.world_build_s", median(&each(|s| s.world_build_s[0])));
    layers.report(&mut report, &world, &oracle, s_per_day, None);
    report.set("s_per_day_p90", percentile(&walls, 90.0) / member_days);
    report.set("first_point_ms_p95", percentile(&walls, 95.0) * 1e3);
    report.zero(&NET_LAYER);
    report.zero(&SERVE_LAYER);
    report.set(
        "ensemble.parallel_eff",
        one_worker_s / (WORKERS as f64 * median(&walls)),
    );
    let group = |recorded: bool| -> Vec<f64> {
        its.iter()
            .filter(|s| s.recorded == recorded)
            .map(|s| s.walls[0])
            .collect()
    };
    report.set(
        "trace.overhead",
        median(&group(true)) / median(&group(false)) - 1.0,
    );
    report
}
