//! Ensemble-engine throughput benchmark: aggregate runs/sec of whole-run
//! parallelism (the copy-on-write ensemble scheduler) versus intra-run
//! parallelism (`ExecMode::Threads` inside one simulation, members run
//! back-to-back) versus the sequential chare-runtime baseline, across a
//! worker-count ladder. Writes a machine-readable `BENCH_ensemble.json`
//! (schema "ensemble-v1", documented in EXPERIMENTS.md).
//!
//! The crossover point — the smallest worker count at which whole-run
//! parallelism beats handing the same workers to one member at a time —
//! is measured, not assumed; it is the number DESIGN.md §11 tells users
//! to consult before choosing a mode.
//!
//! Every timed configuration must agree bit-for-bit on the result store
//! hash; the binary aborts if whole-run scheduling perturbs the epidemic.
//!
//! The member set is the engine's target workload: a transmissibility
//! grid spanning the epidemic threshold (attack rates from a few percent
//! to about half the population) × replicate seeds — what a sweep
//! hunting the critical R0 actually runs, not N copies of one saturated
//! epidemic.
//!
//! Environment knobs (all optional):
//!   ENSEMBLE_PEOPLE   synthetic population size        (default 4000)
//!   ENSEMBLE_DAYS     simulated days per member        (default 20)
//!   ENSEMBLE_RS       transmissibility grid, comma-sep (default 0.0001,0.00015,0.0002,0.00025,0.0003)
//!   ENSEMBLE_SEEDS    replicate seeds per grid point   (default 3)
//!   ENSEMBLE_SEED     base simulation seed             (default 42)
//!   ENSEMBLE_REPS     timing repetitions (min taken)   (default 3)
//!   ENSEMBLE_WORKERS  worker ladder, comma-separated   (default 1,2,4,8)
//!   ENSEMBLE_OUT      output JSON path                 (default BENCH_ensemble.json)
//!   ENSEMBLE_COMPARE  baseline JSON; exit 2 if a headline runs/sec
//!                     falls more than 20% below it

use episim_core::ensemble::{run_sweep, surrogate, CowWorld, EnsembleSpec};
use episim_core::{SimConfig, Simulator};

use chare_rt::RuntimeConfig;
use ptts::flu_model;
use std::fmt::Write as _;
use std::time::Instant;
use synthpop::{Population, PopulationConfig};

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Pull `"key": <number>` out of a flat JSON string (the baselines this
/// binary writes itself — no nesting ambiguity for the summary keys).
fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let people: u32 = env_or("ENSEMBLE_PEOPLE", 4000);
    let days: u32 = env_or("ENSEMBLE_DAYS", 20);
    let rs_raw: String = env_or(
        "ENSEMBLE_RS",
        "0.0001,0.00015,0.0002,0.00025,0.0003".to_string(),
    );
    let n_seeds: u32 = env_or("ENSEMBLE_SEEDS", 3);
    let seed: u64 = env_or("ENSEMBLE_SEED", 42);
    let reps: u32 = env_or("ENSEMBLE_REPS", 3).max(1);
    let ladder_raw: String = env_or("ENSEMBLE_WORKERS", "1,2,4,8".to_string());
    let out_path: String = env_or("ENSEMBLE_OUT", "BENCH_ensemble.json".to_string());
    let rs: Vec<f64> = rs_raw
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    assert!(!rs.is_empty(), "ENSEMBLE_RS parsed to nothing");
    let ladder: Vec<u32> = ladder_raw
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&w| w > 0)
        .collect();
    assert!(!ladder.is_empty(), "ENSEMBLE_WORKERS parsed to nothing");

    eprintln!(
        "ensemble: {} points × {n_seeds} seeds × {days} days over {people} people, workers {ladder:?}",
        rs.len()
    );

    let pop = Population::generate(&PopulationConfig::small("ENS", people, seed));
    let dist =
        episim_core::DataDistribution::build(&pop, episim_core::Strategy::GraphPartition, 4, seed);
    let base = SimConfig {
        days,
        r: rs[0],
        seed,
        initial_infections: 6,
        ..Default::default()
    };
    let world = CowWorld::build(&dist, flu_model());
    let spec = EnsembleSpec::grid(&base, &rs, n_seeds);
    let n = spec.n_members() as f64;

    // Every timed section takes the minimum wall over `reps` repetitions.
    // Repetitions are INTERLEAVED across sections (rep 0 of everything,
    // then rep 1, ...) so slow host windows — frequency scaling, noisy
    // neighbours — degrade all sections alike instead of whichever one
    // they landed on; the per-section min then approximates the true cost
    // for baseline and engine symmetrically.
    struct Row {
        workers: u32,
        ens_wall: f64,
        ens_rps: f64,
        thr_wall: f64,
        thr_rps: f64,
    }
    let mut seq_wall = f64::INFINITY;
    let mut rows: Vec<Row> = ladder
        .iter()
        .map(|&w| Row {
            workers: w,
            ens_wall: f64::INFINITY,
            ens_rps: 0.0,
            thr_wall: f64::INFINITY,
            thr_rps: 0.0,
        })
        .collect();
    let mut ref_hash: Option<u64> = None;
    for _rep in 0..reps {
        // Sequential baseline: each member through the full chare-runtime
        // simulator, back-to-back — a sweep's cost without the engine.
        let t0 = Instant::now();
        for idx in 0..spec.n_members() {
            Simulator::run_curve(
                &dist,
                flu_model(),
                spec.config_for(idx),
                RuntimeConfig::sequential(4),
            );
        }
        seq_wall = seq_wall.min(t0.elapsed().as_secs_f64());

        // The ladder: at each worker count, whole-run parallelism (the
        // ensemble scheduler) vs intra-run parallelism (the same workers
        // handed to one member at a time as PE threads).
        for row in rows.iter_mut() {
            let t0 = Instant::now();
            let store = run_sweep(&world, &spec, row.workers);
            row.ens_wall = row.ens_wall.min(t0.elapsed().as_secs_f64());
            let hash = store.hash();
            match ref_hash {
                None => ref_hash = Some(hash),
                Some(h) => assert_eq!(
                    hash, h,
                    "ensemble result hash diverged at {} workers — determinism break",
                    row.workers
                ),
            }

            let t0 = Instant::now();
            for idx in 0..spec.n_members() {
                Simulator::run_curve(
                    &dist,
                    flu_model(),
                    spec.config_for(idx),
                    RuntimeConfig::threaded(row.workers),
                );
            }
            row.thr_wall = row.thr_wall.min(t0.elapsed().as_secs_f64());
        }
    }
    let seq_rps = n / seq_wall;
    for row in rows.iter_mut() {
        row.ens_rps = n / row.ens_wall;
        row.thr_rps = n / row.thr_wall;
    }

    // Crossover: smallest worker count where whole-run wins.
    let crossover = rows
        .iter()
        .find(|r| r.ens_rps > r.thr_rps)
        .map(|r| r.workers);
    let max_row = rows.last().expect("ladder is non-empty");
    let speedup = max_row.ens_rps / seq_rps;

    // Surrogate screen cost on the same spec — the point of the screen is
    // that it is orders of magnitude cheaper than one full member run.
    let t0 = Instant::now();
    let graph = surrogate::ContactGraph::build(&world.dist.pop);
    let graph_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let scores = surrogate::screen(&graph, &world, &spec);
    let screen_wall = t0.elapsed().as_secs_f64();

    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"ensemble-v1\",\n");
    let _ = writeln!(
        j,
        "  \"config\": {{\"people\": {people}, \"days\": {days}, \"rs\": [{rs_raw}], \"seeds_per_point\": {n_seeds}, \"members\": {}, \"seed\": {seed}}},",
        spec.n_members()
    );
    let _ = writeln!(
        j,
        "  \"summary\": {{\"seq_runs_per_s\": {:.4}, \"ensemble_max_runs_per_s\": {:.4}, \
         \"speedup_over_seq\": {:.2}, \"crossover_workers\": {}, \"store_hash\": \"{:#018x}\"}},",
        seq_rps,
        max_row.ens_rps,
        speedup,
        crossover.map_or_else(|| "null".to_string(), |w| w.to_string()),
        ref_hash.unwrap_or(0),
    );
    let _ = writeln!(
        j,
        "  \"sequential\": {{\"wall_s\": {seq_wall:.4}, \"runs_per_s\": {seq_rps:.4}}},"
    );
    j.push_str("  \"ladder\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"workers\": {}, \"ensemble_wall_s\": {:.4}, \"ensemble_runs_per_s\": {:.4}, \
             \"threads_wall_s\": {:.4}, \"threads_runs_per_s\": {:.4}}}{}",
            r.workers,
            r.ens_wall,
            r.ens_rps,
            r.thr_wall,
            r.thr_rps,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");
    let _ = writeln!(
        j,
        "  \"surrogate\": {{\"graph_build_s\": {:.4}, \"screen_s\": {:.4}, \"edges\": {}, \"points\": {}}}",
        graph_wall,
        screen_wall,
        graph.n_edges(),
        scores.len()
    );
    j.push_str("}\n");
    std::fs::write(&out_path, &j).expect("write output json");

    println!(
        "ensemble: sequential {:.2} runs/s | ensemble@{} {:.2} runs/s ({:.1}x) | crossover at {} workers",
        seq_rps,
        max_row.workers,
        max_row.ens_rps,
        speedup,
        crossover.map_or_else(|| "none".to_string(), |w| w.to_string()),
    );
    for r in &rows {
        println!(
            "ensemble: {} workers → whole-run {:>6.2} runs/s | intra-run threads {:>6.2} runs/s",
            r.workers, r.ens_rps, r.thr_rps
        );
    }
    println!(
        "ensemble: surrogate screen {:.1} ms for {} points ({} edges) vs {:.1} ms per full run",
        screen_wall * 1e3,
        scores.len(),
        graph.n_edges(),
        1e3 / seq_rps
    );
    println!("ensemble: wrote {out_path}");

    // Optional regression gate against a committed baseline: throughput
    // must not fall more than 20% below it.
    if let Ok(base_path) = std::env::var("ENSEMBLE_COMPARE") {
        if base_path.is_empty() {
            return;
        }
        let base = std::fs::read_to_string(&base_path).expect("read baseline json");
        let mut failed = false;
        for (key, new_rps) in [
            ("seq_runs_per_s", seq_rps),
            ("ensemble_max_runs_per_s", max_row.ens_rps),
        ] {
            let Some(old_rps) = extract_f64(&base, key) else {
                eprintln!("ensemble: baseline {base_path} lacks \"{key}\" — skipping");
                continue;
            };
            let limit = old_rps / 1.2;
            let verdict = if new_rps < limit { "REGRESSED" } else { "ok" };
            println!(
                "ensemble: compare {key}: {new_rps:.2} runs/s vs baseline {old_rps:.2} (limit {limit:.2}) {verdict}"
            );
            failed |= new_rps < limit;
        }
        if failed {
            eprintln!("ensemble: runs/sec regression >20% against {base_path}");
            std::process::exit(2);
        }
    }
}
