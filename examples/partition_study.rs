//! Data-distribution study: reproduce the paper's §III story on a single
//! synthetic state — round-robin vs graph partitioning, before and after
//! heavy-location splitting, including the Figure 2 tradeoff example — and
//! then say where the set-up time of a run goes, stage by stage.
//!
//! ```sh
//! cargo run --release --example partition_study             # 2k, 15k, 30k, 200k people
//! cargo run --release --example partition_study -- --quick  # set-up block at 2k and 15k only
//! cargo run --release --example partition_study -- --setup-row 1000000  # one set-up row
//! ```

use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::splitloc::{split_heavy_locations, SplitConfig};
use episimdemics::core::workload::{
    build_workload_graph, location_static_loads, partition_workload, person_level,
};
use episimdemics::graph_part::coarsen::coarsen_to;
use episimdemics::graph_part::graph::figure2_example;
use episimdemics::graph_part::{kway_partition, PartitionConfig, PartitionQuality};
use episimdemics::load_model::speedup::{speedup_upper_bound, sub_ceiling};
use episimdemics::load_model::{LoadUnits, PiecewiseModel};
use episimdemics::synthpop::{Population, PopulationConfig};
use std::time::Instant;

/// Run `f`, returning its result and the wall time in ms.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// A size in this process's `/proc/self/status` (`"VmHWM:"` is the peak
/// resident set, `"VmRSS:"` the current one) in MB; 0 without `/proc`.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One row of the set-up table: where `DataDistribution::build` spends its
/// time for one world shape. Times are ms, best of three.
struct SetupRow {
    people: u32,
    generate: f64,
    split: f64,
    graph: f64,
    person: f64,
    coarsen: f64,
    kway: f64,
    quality: f64,
    build: f64,
    /// Levels as `person level + HEM levels`, e.g. `1+8`.
    levels: String,
    /// Σ edges over the finest graph and every coarse level ÷ finest edges:
    /// how many times the V-cycle walks the input (≈2 when coarsening
    /// halves the edges per level).
    edges_walked: f64,
    edge_cut: u64,
    hwm_before: f64,
    hwm_after: f64,
    /// `VmRSS` with the built distribution still held.
    rss_after: f64,
    /// The distribution's own bytes, `DataDistribution::heap_bytes()`, MB.
    heap: f64,
}

/// Time the stages of set-up for `people` people, composed exactly as
/// `DataDistribution::build` composes them, then `build` itself. The
/// `quality` column times `PartitionQuality::compute`, which checks the
/// staged cut against the built one; `build` does not pay it.
fn setup_row(people: u32, strategy: Strategy, k: u32, seed: u64) -> SetupRow {
    let model = PiecewiseModel::paper_constants();
    let split_cfg = SplitConfig {
        max_partitions: k.saturating_mul(8).max(256),
        threshold_override: None,
    };
    let cfg = PartitionConfig::new(k).with_seed(seed).with_ubfactor(1.10);
    let mut row = SetupRow {
        people,
        generate: f64::INFINITY,
        split: f64::INFINITY,
        graph: f64::INFINITY,
        person: f64::INFINITY,
        coarsen: f64::INFINITY,
        kway: f64::INFINITY,
        quality: f64::INFINITY,
        build: f64::INFINITY,
        levels: String::new(),
        edges_walked: 0.0,
        edge_cut: 0,
        hwm_before: 0.0,
        hwm_after: 0.0,
        rss_after: 0.0,
        heap: 0.0,
    };
    for rep in 0..3 {
        let (pop, generate) =
            timed(|| Population::generate(&PopulationConfig::small("EPB", people, seed)));
        if rep == 0 {
            // Writing 5 to clear_refs resets VmHWM to the current RSS, so
            // the pair brackets the first build alone.
            let _ = std::fs::write("/proc/self/clear_refs", "5");
            row.hwm_before = status_mb("VmHWM:");
        }
        let (dist, build) = timed(|| DataDistribution::build(&pop, strategy, k, seed));
        if rep == 0 {
            (row.hwm_after, row.rss_after) = (status_mb("VmHWM:"), status_mb("VmRSS:"));
            row.heap = dist.heap_bytes() as f64 / (1024.0 * 1024.0);
        }
        row.edge_cut = dist.edge_cut().unwrap_or(0);
        drop(dist);

        let (split_pop, split) = timed(|| {
            strategy
                .splits()
                .then(|| split_heavy_locations(&pop, &split_cfg).pop)
        });
        let ((graph, layout), graph_ms) = timed(|| {
            build_workload_graph(
                split_pop.as_ref().unwrap_or(&pop),
                &model,
                LoadUnits::default(),
            )
        });
        let (first, person) = timed(|| person_level(&graph, &layout, &cfg));
        let (levels, coarsen) = timed(|| {
            let start = first.as_ref().map_or(&graph, |l| &l.graph);
            coarsen_to(start, cfg.coarsen_target(), seed)
        });
        row.levels = format!("{}+{}", usize::from(first.is_some()), levels.len());
        let level_edges: u64 = first.iter().chain(&levels).map(|l| l.graph.m()).sum();
        row.edges_walked = (graph.m() + level_edges) as f64 / graph.m().max(1) as f64;
        drop((first, levels));
        let (part, kway) = timed(|| partition_workload(&graph, &layout, &cfg));
        let (quality, quality_ms) = timed(|| PartitionQuality::compute(&graph, &part));
        assert_eq!(
            quality.edge_cut, row.edge_cut,
            "staged and built partitions differ"
        );

        row.generate = row.generate.min(generate);
        row.split = row.split.min(split);
        row.graph = row.graph.min(graph_ms);
        row.person = row.person.min(person);
        row.coarsen = row.coarsen.min(coarsen);
        row.kway = row.kway.min(kway);
        row.quality = row.quality.min(quality_ms);
        row.build = row.build.min(build);
    }
    row
}

/// The world shapes of the set-up table: the benchmark's three, plus one
/// an order of magnitude larger. `--setup-row` builds any other size as
/// GP-splitLoc with k = 8.
const SHAPES: [(u32, Strategy, u32); 4] = [
    (2_000, Strategy::GraphPartition, 4),
    (15_000, Strategy::GraphPartitionSplit, 2),
    (30_000, Strategy::GraphPartitionSplit, 8),
    (200_000, Strategy::GraphPartitionSplit, 8),
];

/// The set-up table's header. A row's `build` time sits at the same
/// whitespace-separated position as its title does here.
const HEADER: &str = " people  k generate splitLoc    graph   person  coarsen init+refine  quality     build levels  Σm/m0  edge_cut        VmHWM MB  VmRSS   heap x linear";

/// Measure one shape and print the header and its row (what a
/// `--setup-row` child does).
fn print_setup_row(people: u32) {
    let (strategy, k) = SHAPES
        .iter()
        .find(|s| s.0 == people)
        .map_or((Strategy::GraphPartitionSplit, 8), |s| (s.1, s.2));
    let r = setup_row(people, strategy, k, 42_000);
    println!("{HEADER}");
    println!(
        "{:>7} {:>2} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>11.1} {:>8.1} {:>9.1} {:>6} {:>6.2} {:>9} {:>6.1} → {:<6.1} {:>6.1} {:>6.1}",
        r.people,
        k,
        r.generate,
        r.split,
        r.graph,
        r.person,
        r.coarsen,
        r.kway - r.person - r.coarsen,
        r.quality,
        r.build,
        r.levels,
        r.edges_walked,
        r.edge_cut,
        r.hwm_before,
        r.hwm_after,
        r.rss_after,
        r.heap,
    );
}

/// The "set-up by stage" block: one row per world shape, and each row's
/// `build` time against linear scaling from the 30k row. Every row is
/// measured by this program started again, because a process's peak RSS
/// and its allocator's retained heap carry over from whatever it built
/// before (the benchmark starts a process per iteration for the same
/// reason).
fn setup_by_stage(quick: bool) {
    println!("\n== set-up by stage (ms, best of 3, seed 42000, one process per row) ==");
    let exe = std::env::current_exe().expect("own path");
    let rows: Vec<(f64, f64, String)> = SHAPES[..if quick { 2 } else { 4 }]
        .iter()
        .map(|&(people, _, _)| {
            let out = std::process::Command::new(&exe)
                .args(["--setup-row", &people.to_string()])
                .output()
                .expect("start a --setup-row child");
            assert!(out.status.success(), "--setup-row {people} failed");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let row = stdout.lines().last().expect("the child's row").to_string();
            let build_at = HEADER
                .split_whitespace()
                .position(|title| title == "build")
                .expect("a build column");
            let build: f64 = row
                .split_whitespace()
                .nth(build_at)
                .and_then(|ms| ms.parse().ok())
                .expect("build ms in the child's row");
            (people as f64, build, row)
        })
        .collect();
    println!("{HEADER}");
    let base = rows.iter().find(|r| r.0 == 30_000.0);
    for (people, build, row) in &rows {
        // build(n) / build(30k) over n / 30k: 1.00 is linear scaling.
        match base {
            Some((base_people, base_build, _)) => println!(
                "{row} {:>8.2}",
                (build / base_build) / (people / base_people)
            ),
            None => println!("{row} {:>8}", "-"),
        }
    }
    println!("init+refine is partition_workload minus a stand-alone person level and coarsen_to");
    println!("of the same graph and seed; levels are person level + HEM levels; VmHWM is the");
    println!("process peak before → after the first DataDistribution::build, VmRSS the resident");
    println!("set after it with the distribution still held, heap the distribution's own");
    println!("DataDistribution::heap_bytes().");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => {}
        ["--quick"] => return setup_by_stage(true),
        ["--setup-row", people] => {
            return print_setup_row(people.parse().expect("a population size"))
        }
        _ => {
            eprintln!("usage: partition_study [--quick | --setup-row PEOPLE]");
            std::process::exit(2);
        }
    }

    // ---- Part 1: the Figure 2 example graph.
    println!("== Figure 2's 13-node example, 5-way ==");
    let g = figure2_example();
    let part = kway_partition(&g, &PartitionConfig::new(5).with_ubfactor(1.7));
    let q = PartitionQuality::compute(&g, &part);
    println!(
        "partitioner found: edge cut {}, max load {} (avg load {:.1})",
        q.edge_cut,
        q.max_load(0),
        q.total_load(0) as f64 / 5.0
    );
    println!(
        "caption's optima: (cut 8, max load 8) load-first vs (cut 6, max load 10) cut-first\n"
    );

    // ---- Part 2: the four strategies on a synthetic state.
    let pop = Population::generate(&PopulationConfig::small("state", 50_000, 99));
    println!(
        "== {} people / {} locations over k = 64 partitions ==",
        pop.n_people(),
        pop.n_locations()
    );
    let model = PiecewiseModel::paper_constants();
    println!(
        "{:<14} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "strategy", "locations", "remote_visits", "Sub(loc)", "ceiling", "edge_cut"
    );
    for strategy in Strategy::ALL {
        let dist = DataDistribution::build(&pop, strategy, 64, 1);
        let loads = location_static_loads(&dist.pop, &model, LoadUnits::default());
        let sub = speedup_upper_bound(&loads, dist.location_part(), dist.k());
        let ceiling = sub_ceiling(&loads);
        let cut = dist
            .edge_cut()
            .map(|cut| cut.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<14} {:>10} {:>11.1}% {:>10.1} {:>12.1} {:>10}",
            dist.strategy.label(),
            dist.pop.n_locations(),
            100.0 * dist.remote_visit_fraction(),
            sub,
            ceiling,
            cut
        );
    }
    println!("\nreading the table like §III: GP cuts remote traffic; splitLoc lifts");
    println!("the Ltot/lmax ceiling; GP-splitLoc gets both — the paper's winner.");

    // ---- Part 3: where set-up goes.
    setup_by_stage(false);
}
