//! The three engine workloads: one `Simulator` over a generated world,
//! driven a day at a time. An iteration sets the world up from nothing
//! and runs the whole epidemic, so one benchmark run yields several
//! set-up samples and several hundred day samples.

use crate::common::{
    self, attack_rate, drive, fresh_carry, iterations, sim_config, DayRun, PerfAcc, Report, Run,
    Samples, World,
};
use crate::manifest::{ENSEMBLE_LAYER, NET, QUIET, SERVE_LAYER, TAKEOFF};
use crate::measure::{child_pids, median, peak_rss_mb, percentile, ratio};
use crate::probes;
use crate::trace::Tracer;
use chare_rt::RuntimeConfig;
use episim_core::output::curve_hash;
use episim_core::{SimConfig, Simulator, Strategy};
use ptts::flu_model;

/// An engine workload's parameters (README.md records how they were
/// probed).
struct Params {
    people: u32,
    k: u32,
    days: u32,
    rt: RuntimeConfig,
    cfg: SimConfig,
    /// Attack rate the epidemic must reach (`takeoff`) ...
    min_attack: f64,
    /// ... or stay below (`quiet`), so a workload that stops exercising
    /// its layer fails instead of measuring something else.
    max_attack: f64,
}

fn params(run: &Run) -> Params {
    let (people, k, r, rt, min_attack, max_attack) = match run.workload {
        TAKEOFF => (30_000, 8, 1e-4, RuntimeConfig::threaded(2), 0.30, 1.0),
        QUIET => (30_000, 8, 1e-5, RuntimeConfig::threaded(2), 0.0, 0.01),
        NET => (15_000, 2, 1e-4, RuntimeConfig::net(2, 2), 0.30, 1.0),
        other => unreachable!("{other} is not an engine workload"),
    };
    let days = run.days(120);
    Params {
        people: run.people(people),
        k,
        days,
        rt,
        cfg: sim_config(days, r, run.sim_seed()),
        // Ten days are not an epidemic: the quick mode checks hashes only.
        min_attack: if run.quick { 0.0 } else { min_attack },
        max_attack: if run.quick { 1.0 } else { max_attack },
    }
}

fn build_world(tr: &mut Tracer, run: &Run, p: &Params) -> World {
    World::build(
        tr,
        "EPB",
        p.people,
        Strategy::GraphPartitionSplit,
        p.k,
        run.seed,
        run.seed,
    )
}

/// Short runs per iteration that stop after day 0. An epidemic has only
/// one first day, so these are what makes `first_point_ms` a median of
/// more than a handful of samples.
const FIRST_POINT_PROBES: u64 = 3;

/// Build a simulator on `world` and drive days `0..days`.
fn start_run(
    tr: &mut Tracer,
    world: &World,
    p: &Params,
    days: u32,
    acc: &mut PerfAcc,
) -> (f64, DayRun) {
    // Under the net engine this launches the worker process and waits for
    // it to build the same world and join the mesh.
    let (mut sim, world_build_s) = tr.span("core.world_build", |_| {
        Simulator::new(&world.dist, flu_model(), p.cfg.clone(), p.rt)
    });
    let mut carry = fresh_carry(&p.cfg, &world.pop);
    let run = drive(tr, "engine.day", &mut sim, &mut carry, 0, days, acc);
    // Joins the PE threads; under net, shuts the worker down and reaps it.
    tr.span("engine.teardown", |_| drop(sim));
    (world_build_s, run)
}

/// One iteration, in its own process: set the world up, run the whole
/// epidemic, then the first-point probes.
pub fn iteration(tr: &mut Tracer, run: &Run) -> Samples {
    let p = params(run);
    let world = build_world(tr, run, &p);
    let mut s = Samples {
        generate_s: world.generate_s,
        partition_s: world.partition_s,
        ..Samples::default()
    };
    // The full run first: its set-up and day 0 are what a fresh process pays.
    let (build_s, full) = start_run(tr, &world, &p, p.days, &mut s.perf);
    s.world_build_s.push(build_s);
    s.first_point_ms.push(full.walls[0] * 1e3);
    s.walls = full.walls[1..].to_vec();
    s.hash = curve_hash(&full.stats);
    s.attack = vec![attack_rate(&full.stats, world.pop.n_people())];
    s.rss_mb = peak_rss_mb();
    for _ in 0..FIRST_POINT_PROBES {
        let (build_s, probe) = start_run(tr, &world, &p, 1, &mut PerfAcc::default());
        s.world_build_s.push(build_s);
        s.first_point_ms.push(probe.walls[0] * 1e3);
    }
    s.orphans = child_pids().len();
    // Correctness, after every measurement: the sequential oracle on the
    // same population and config must give the same curve.
    let oracle = probes::oracle(tr, &world, &p.cfg);
    s.check_hash = oracle.hash;
    s.oracle_s_per_day = oracle.s_per_day;
    s
}

/// A net worker process: build the root's world, join invocation
/// `target`, follow the root through the run, and exit inside the
/// engine's teardown. Never returns to the caller's reporting code.
pub fn net_worker(run: &Run, target: u64) -> ! {
    let p = params(run);
    let mut tr = Tracer::new(false);
    let world = build_world(&mut tr, run, &p);
    chare_rt::align_to_invocation(target);
    // An iteration process starts the full run, then the probes.
    let days = if target == 0 { p.days } else { 1 };
    start_run(&mut tr, &world, &p, days, &mut PerfAcc::default());
    unreachable!("a net worker exits inside the engine's teardown");
}

pub fn run(tr: &mut Tracer, run: &Run) -> Report {
    let p = params(run);
    let mut report = Report::new();
    let its = iterations(tr, "engine.iteration", run);

    let pooled = |f: fn(&Samples) -> &[f64], keep: fn(&Samples) -> bool| -> Vec<f64> {
        its.iter()
            .filter(|s| keep(s))
            .flat_map(|s| f(s).iter().copied())
            .collect()
    };
    let days = pooled(|s| &s.walls, |_| true);
    let day0 = pooled(|s| &s.first_point_ms, |_| true);
    let s_per_day = median(&days);

    report.attempted = its.len() as u64 * p.days as u64;
    for (i, s) in its.iter().enumerate() {
        if s.hash != s.check_hash {
            report.failed += p.days as u64;
            report.gate(false, || {
                format!(
                    "run {i}: curve hash {:#x} != oracle {:#x}",
                    s.hash, s.check_hash
                )
            });
        }
        let attack = s.attack[0];
        report.gate(attack >= p.min_attack && attack < p.max_attack, || {
            format!(
                "run {i}: attack rate {attack:.4} outside [{}, {}): the workload no longer exercises its layer",
                p.min_attack, p.max_attack
            )
        });
        report.gate(s.orphans == 0, || {
            format!("run {i}: {} worker process(es) outlived it", s.orphans)
        });
    }

    if !run.trace {
        let setup: Vec<f64> = its.iter().map(Samples::setup_s).collect();
        let rss = common::peak_rss_mb(&its);
        report.set("setup_s", median(&setup));
        report.set("s_per_day", s_per_day);
        report.set("first_point_ms", median(&day0));
        report.set("peak_rss_mb", rss);
        eprintln!(
            "epibench: {} runs x {} days, attack {:.3}, s_per_day p90 {:.5}, {:.0} bytes/agent",
            its.len(),
            p.days,
            its[0].attack[0],
            percentile(&days, 90.0),
            rss * 1024.0 * 1024.0 / p.people as f64
        );
        return report;
    }

    // The layer probes run on the first iteration's world; every
    // iteration timed the oracle on its own.
    let each = |f: fn(&Samples) -> f64| its.iter().map(f).collect::<Vec<f64>>();
    let probe_run = Run {
        seed: run.iteration_seed(0),
        ..run.clone()
    };
    let p = params(&probe_run);
    let world = build_world(tr, &probe_run, &p);
    let oracle = probes::Oracle {
        hash: its[0].check_hash,
        s_per_day: median(&each(|s| s.oracle_s_per_day)),
    };
    let layers = probes::layers(tr, &world, &p.cfg, oracle.hash, &mut report);
    report.set("synthpop.generate_s", median(&each(|s| s.generate_s)));
    report.set("graph_part.build_s", median(&each(|s| s.partition_s)));
    report.set(
        "core.world_build_s",
        median(&pooled(|s| &s.world_build_s, |_| true)),
    );
    let mut acc = PerfAcc::default();
    for s in &its {
        acc.merge(s.perf);
    }
    layers.report(&mut report, &world, &oracle, s_per_day, Some(&acc));
    report.set("s_per_day_p90", percentile(&days, 90.0));
    report.set("first_point_ms_p95", percentile(&day0, 95.0));

    let n_days = acc.days as f64;
    report.set(
        "net.msgs_per_frame",
        ratio(acc.sent_remote as f64, acc.network_packets as f64),
    );
    report.set(
        "net.wire_bytes_per_day",
        acc.wire_bytes_sent as f64 / n_days,
    );
    report.set("net.remote_bytes_per_day", acc.remote_bytes as f64 / n_days);
    report.set("net.parks_per_day", acc.shm_parks as f64 / n_days);
    report.set(
        "net.flush_idle_share",
        ratio(acc.flush_idle as f64, acc.flushes as f64),
    );
    let over_threads = if run.workload == NET {
        // The same world on the threaded engine: what the wire costs.
        let mut sim = Simulator::new(
            &world.dist,
            flu_model(),
            p.cfg.clone(),
            RuntimeConfig::threaded(2),
        );
        let mut carry = fresh_carry(&p.cfg, &world.pop);
        let threads = drive(
            tr,
            "net.threads_day",
            &mut sim,
            &mut carry,
            0,
            p.days,
            &mut PerfAcc::default(),
        );
        report.gate(curve_hash(&threads.stats) == oracle.hash, || {
            "threaded comparison run does not hash equal to the oracle".to_string()
        });
        s_per_day / median(&threads.walls[1..])
    } else {
        0.0
    };
    report.set("net.s_per_day_over_threads", over_threads);
    report.zero(&ENSEMBLE_LAYER);
    report.zero(&SERVE_LAYER);
    report.set(
        "trace.overhead",
        median(&pooled(|s| &s.walls, |s| s.recorded))
            / median(&pooled(|s| &s.walls, |s| !s.recorded))
            - 1.0,
    );
    report
}
