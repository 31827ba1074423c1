//! Shared helpers for the experiment binaries.

use chare_rt::RuntimeConfig;
use episim_core::distribution::{DataDistribution, Strategy};
use episim_core::simulator::{SimConfig, Simulator};
use load_model::{LoadUnits, PiecewiseModel};
use ptts::flu_model;
use scale_model::{calibrate_from_run, MachineModel};
use synthpop::state::by_code;
use synthpop::{Population, PopulationConfig};

/// Population scale relative to Table I's full-size data. Overridable with
/// the `EPISIM_SCALE` environment variable (e.g. `EPISIM_SCALE=0.01` for a
/// 10× larger reproduction).
pub fn scale() -> f64 {
    std::env::var("EPISIM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1e-3)
}

/// The seven individually-plotted states of the paper's figures.
pub const FIGURE_STATES: [&str; 7] = ["CA", "NY", "MI", "NC", "IA", "AR", "WY"];

/// Deterministic per-state generation seed.
pub fn state_seed(code: &str) -> u64 {
    code.bytes().fold(0xE915u64, |acc, b| {
        acc.wrapping_mul(131).wrapping_add(b as u64)
    })
}

/// Generate a state's population at the current scale.
pub fn gen_state(code: &str) -> Population {
    let st = by_code(code).unwrap_or_else(|| panic!("unknown state {code}"));
    let counts = st.scaled(scale());
    Population::generate(&PopulationConfig::from_counts(counts, state_seed(code)))
}

/// The partition-count grid of Figures 4/8/14 ("between 12 and 196,608"),
/// geometric in steps of 4 like the paper's log-scale axis.
pub fn partition_grid() -> Vec<u32> {
    vec![12, 48, 192, 768, 3072, 12288, 49152, 196_608]
}

/// The core-module grid of Figures 12/13 (1 … 128K).
pub fn core_module_grid() -> Vec<u32> {
    vec![1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 131_072]
}

/// Clamp a partition count to the number of partitionable objects, the way
/// any real run would (more partitions than objects is pure waste).
pub fn clamp_k(k: u32, pop: &Population) -> u32 {
    k.min(pop.n_people() + pop.n_locations()).max(1)
}

/// A machine model whose compute constants were calibrated against a real
/// measured `no_opt` run of the simulator on this host (§III-A's
/// methodology). Falls back to defaults if the measurement degenerates.
pub fn calibrated_machine() -> MachineModel {
    let pop = Population::generate(&PopulationConfig::small("CAL", 2000, 99));
    let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 2, 1);
    let units: u64 = episim_core::workload::location_static_loads(
        &dist.pop,
        &PiecewiseModel::paper_constants(),
        LoadUnits::default(),
    )
    .iter()
    .sum();
    let cfg = SimConfig {
        days: 3,
        r: 0.001,
        seed: 7,
        initial_infections: 10,
        stop_when_extinct: false,
        ..Default::default()
    };
    let no_opt = RuntimeConfig::sequential(2).no_opt();
    let run = Simulator::new(&dist, flu_model(), cfg, no_opt).run();
    match calibrate_from_run(&run, units) {
        Some(cal) => cal.apply_to(MachineModel::default()),
        None => MachineModel::default(),
    }
}

/// The Figure 4/8 report: per-state speedup upper bounds `Sub = Ltot/Lmax`
/// of the location phase over the partition grid, under one strategy.
pub fn speedup_bound_report(strategy: Strategy, title: &str) {
    use load_model::speedup::{speedup_upper_bound, sub_ceiling};
    println!("== {title}: speedup upper bound vs #partitions ==\n");
    let model = PiecewiseModel::paper_constants();
    let grid = partition_grid();
    let mut header: Vec<String> = vec!["state".into(), "ceiling".into()];
    header.extend(grid.iter().map(|k| format!("K={k}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for code in FIGURE_STATES {
        let pop = gen_state(code);
        let mut row = vec![code.to_string()];
        let mut ceiling_cell = String::new();
        for (i, &k) in grid.iter().enumerate() {
            let dist = DataDistribution::build(&pop, strategy, clamp_k(k, &pop), 1);
            let loads = episim_core::workload::location_static_loads(
                &dist.pop,
                &model,
                LoadUnits::default(),
            );
            if i + 1 == grid.len() {
                // Splitting depends on the target partition count, so the
                // binding Ltot/lmax ceiling is the largest-K one.
                ceiling_cell = fnum(sub_ceiling(&loads));
            }
            let sub = speedup_upper_bound(&loads, dist.location_part(), dist.k());
            row.push(fnum(sub));
        }
        row.insert(1, ceiling_cell);
        rows.push(row);
    }
    print_table("Sub = Ltot/Lmax of the location phase", &header_refs, &rows);
}

/// Render an aligned table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    for row in rows {
        println!("{}", fmt_row(row));
    }
    println!();
}

/// Format a float compactly for tables.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 0.01 {
        format!("{x:.3}")
    } else {
        format!("{x:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_seeds_differ() {
        assert_ne!(state_seed("CA"), state_seed("NY"));
        assert_eq!(state_seed("CA"), state_seed("CA"));
    }

    #[test]
    fn gen_state_matches_scaled_counts() {
        let p = gen_state("WY");
        let expect = by_code("WY").unwrap().scaled(scale());
        assert_eq!(p.n_people() as u64, expect.people);
    }

    #[test]
    fn clamp_caps_at_object_count() {
        let p = gen_state("WY");
        let total = p.n_people() + p.n_locations();
        assert_eq!(clamp_k(10_000_000, &p), total);
        assert_eq!(clamp_k(0, &p), 1);
        assert_eq!(clamp_k(5, &p), 5);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(42.42), "42.4");
        assert_eq!(fnum(0.5), "0.500");
        assert!(fnum(1e-6).contains('e'));
    }
}
