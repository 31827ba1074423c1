//! Figure 14: the maximum per-partition edge cut (GP-splitLoc) vs the
//! number of partitions, and its ratio to the hypothetical
//! all-remote-communication case (total edges / partitions).
//!
//! Paper: "With WY, the maximum per-partition edge cut is 19 times larger
//! than the all-remote-communication case with 98,304 data partitions. On
//! the other hand, with NY data, the ratio is 2.7. The average ratio across
//! all seven states is 7.83." — i.e. minimizing *total* cut does not bound
//! the *maximum per-partition* cut, the motivation for balancing
//! communication too.

use bench::{clamp_k, fnum, gen_state, partition_grid, print_table, FIGURE_STATES};
use episim_core::distribution::{DataDistribution, Strategy};
use episim_core::workload::build_workload_graph;
use graph_part::metrics::max_partition_cut;
use graph_part::Partition;
use load_model::{LoadUnits, PiecewiseModel};

fn main() {
    println!("== Figure 14: max per-partition edge cut (GP-splitLoc) ==\n");
    let model = PiecewiseModel::paper_constants();
    let grid = partition_grid();
    let mut header: Vec<String> = vec!["state".into()];
    header.extend(grid.iter().map(|k| format!("K={k}")));
    header.push("ratio@maxK".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    let mut final_ratios = Vec::new();
    for code in FIGURE_STATES {
        let pop = gen_state(code);
        let mut row = vec![code.to_string()];
        let mut last_ratio = 0.0;
        for &k in &grid {
            let k = clamp_k(k, &pop);
            let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, k, 1);
            let (graph, _) = build_workload_graph(&dist.pop, &model, LoadUnits::default());
            let part = Partition {
                k,
                assignment: [dist.person_part(), dist.location_part()].concat(),
            };
            let max_cut = max_partition_cut(&graph, &part);
            // All-remote baseline: every edge cut, spread evenly.
            let all_remote = 2.0 * graph.total_edge_weight() as f64 / k as f64;
            last_ratio = max_cut as f64 / all_remote.max(1e-9);
            row.push(fnum(max_cut as f64));
        }
        row.push(fnum(last_ratio));
        final_ratios.push(last_ratio);
        rows.push(row);
    }
    print_table("max per-partition cut (edge weight)", &header_refs, &rows);
    let avg = final_ratios.iter().sum::<f64>() / final_ratios.len() as f64;
    println!("average max-cut / all-remote ratio at the largest K: {avg:.2}");
    println!("paper: WY 19×, NY 2.7×, average 7.83× at 98,304 partitions —");
    println!("small states concentrate their cut on few partitions; big states spread it.");
}
