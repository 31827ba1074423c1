//! Strong-scaling demo: run the *real* simulator at increasing PE counts,
//! verify the epidemic is bit-identical at every width, then project the
//! same configuration onto a Blue-Waters-like machine with the calibrated
//! performance model (the paper's Figure 13 methodology in miniature).
//!
//! ```sh
//! cargo run --release --example strong_scaling -- --engine seq
//! ```
//!
//! `--engine {seq,threads,vt,net}` picks the runtime engine (default seq).
//! With `net`, even PE counts run as two OS processes over loopback TCP —
//! the worker process re-executes this example, so the flag is forwarded
//! through `EPISIM_NET_CHILD_ARGS`.

use episimdemics::chare_rt::RuntimeConfig;
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::engine::EngineChoice;
use episimdemics::core::simulator::{SimConfig, Simulator};
use episimdemics::load_model::{LoadUnits, PiecewiseModel};
use episimdemics::ptts::flu_model;
use episimdemics::scale_model::{
    calibrate_from_run, inputs_from_distribution, project_day, MachineModel, RuntimeOptions,
};
use episimdemics::synthpop::{Population, PopulationConfig};

fn engine_from_args() -> EngineChoice {
    let args: Vec<String> = std::env::args().collect();
    let mut engine = EngineChoice::Seq;
    let mut i = 1;
    while i < args.len() {
        let value = if args[i] == "--engine" && i + 1 < args.len() {
            i += 1;
            Some(args[i].clone())
        } else {
            args[i].strip_prefix("--engine=").map(str::to_owned)
        };
        if let Some(v) = value {
            engine = v.parse().unwrap_or_else(|e| panic!("{e}"));
        }
        i += 1;
    }
    engine
}

/// Engine-appropriate runtime config: the net engine splits even PE
/// counts across two OS processes (odd counts run standalone).
fn runtime_for(engine: EngineChoice, pes: u32) -> RuntimeConfig {
    let n_procs = if engine == EngineChoice::Net && pes.is_multiple_of(2) && pes > 1 {
        2
    } else {
        1
    };
    engine.runtime_config(pes, n_procs)
}

fn main() {
    let engine = engine_from_args();
    if engine == EngineChoice::Net {
        // Worker processes re-exec this binary argv-less; forward the flag.
        std::env::set_var("EPISIM_NET_CHILD_ARGS", "--engine net");
    }
    let pop = Population::generate(&PopulationConfig::small("scale", 10_000, 5));
    let cfg = SimConfig {
        days: 15,
        r: 0.0001,
        seed: 5,
        initial_infections: 10,
        stop_when_extinct: false,
        ..Default::default()
    };

    // ---- Real runs at 1..8 PEs: identical results, measured busy time.
    println!("== real runs ({engine:?} engine, measured busy time) ==");
    println!(
        "{:>4} {:>12} {:>14} {:>12}",
        "PEs", "total_inf", "max_busy_ms", "imbalance"
    );
    let mut baseline: Option<(Vec<u64>, f64)> = None;
    for pes in [1u32, 2, 4, 8] {
        let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, pes, 5);
        let run = Simulator::new(&dist, flu_model(), cfg.clone(), runtime_for(engine, pes)).run();
        let series = run.curve.new_infection_series();
        let max_busy: u64 = run
            .perf
            .iter()
            .map(|p| p.location_phase.max_busy_ns())
            .sum();
        let tot_busy: u64 = run
            .perf
            .iter()
            .map(|p| p.location_phase.totals().busy_ns)
            .sum();
        let imbalance = max_busy as f64 * pes as f64 / tot_busy.max(1) as f64;
        println!(
            "{:>4} {:>12} {:>14.2} {:>12.2}",
            pes,
            run.curve.total_infections(),
            max_busy as f64 / 1e6,
            imbalance
        );
        match &baseline {
            None => baseline = Some((series, max_busy as f64)),
            Some((base_series, _)) => {
                assert_eq!(base_series, &series, "results must not depend on PE count")
            }
        }
    }
    println!("(epidemic identical at every PE count — determinism by construction)\n");

    // ---- Calibrate the machine model from a measured run of the paper's
    // protocol (one message per visit, every location's DES) and project.
    let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 2, 5);
    let no_opt = RuntimeConfig::sequential(2).no_opt();
    let calibration_run = Simulator::new(&dist, flu_model(), cfg, no_opt).run();
    let units: u64 = episimdemics::core::workload::location_static_loads(
        &pop,
        &PiecewiseModel::paper_constants(),
        LoadUnits::default(),
    )
    .iter()
    .sum();
    let machine = calibrate_from_run(&calibration_run, units)
        .map(|c| c.apply_to(MachineModel::default()))
        .unwrap_or_default();
    println!("== projection to a Cray-XE6-like machine (calibrated) ==");
    println!(
        "{:>8} {:>12} {:>10} {:>12}",
        "P", "s/day", "speedup", "efficiency"
    );
    let opts = RuntimeOptions::optimized();
    let mut base_s = 0.0;
    for p in [1u32, 16, 64, 256, 1024, 4096] {
        let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, p, 5);
        let inputs = inputs_from_distribution(
            &dist,
            &PiecewiseModel::paper_constants(),
            LoadUnits::default(),
        );
        let proj = project_day(&inputs, &machine, &opts);
        if p == 1 {
            base_s = proj.seconds;
        }
        println!(
            "{:>8} {:>12.5} {:>10.1} {:>11.1}%",
            p,
            proj.seconds,
            base_s / proj.seconds,
            100.0 * base_s / proj.seconds / p as f64
        );
    }
}
