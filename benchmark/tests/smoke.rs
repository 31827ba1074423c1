//! The benchmark's own contract, checked in seconds (`--quick`:
//! population / 20, 10 days, 1-second windows): `BENCHMARK.json` is the
//! manifest the program carries, and one pass over every workload prints
//! every workload and metric name exactly once per workload, with its
//! unit, and fails no operation.
//!
//! Run with `cd benchmark && cargo test`.

use std::path::Path;
use std::process::Command;

const EPIBENCH: &str = env!("CARGO_BIN_EXE_epibench");

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
}

fn epibench(args: &[&str]) -> String {
    let out = Command::new(EPIBENCH)
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("start epibench");
    assert!(
        out.status.success(),
        "epibench {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Every `"name": "..."` of the array stored under `key`, with the
/// `"unit"` that follows it when there is one.
fn names_under(manifest: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = manifest.find(&format!("\"{key}\": [")).expect(key);
    let body = &manifest[start..start + manifest[start..].find("\n  ]").expect("array end")];
    let quoted = |line: &str, field: &str| {
        let at = line.find(&format!("\"{field}\": \""))? + field.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|line| Some((quoted(line, "name")?, quoted(line, "unit"))))
        .collect()
}

#[test]
fn benchmark_json_is_the_programs_manifest() {
    let committed = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        epibench(&["--print-manifest"]),
        "BENCHMARK.json drifted from src/manifest.rs; regenerate it with `epibench --print-manifest`"
    );
}

#[test]
fn every_workload_prints_every_metric_once_and_fails_nothing() {
    let manifest = epibench(&["--print-manifest"]);
    let workloads = names_under(&manifest, "workloads");
    let mut metrics = names_under(&manifest, "end_to_end");
    metrics.extend(names_under(&manifest, "per_layer"));
    assert_eq!(workloads.len(), 5);
    assert!(metrics.iter().all(|(_, unit)| unit.is_some()));

    let out = epibench(&["--quick", "--trace"]);
    assert!(!out.contains("FAILED") && !out.contains("MISSING"), "{out}");
    let sections: Vec<&str> = out.split("== ").skip(1).collect();
    assert_eq!(
        sections.len(),
        workloads.len(),
        "one section per workload:\n{out}"
    );
    for ((workload, _), section) in workloads.iter().zip(&sections) {
        assert!(
            section.starts_with(&format!("{workload} (")),
            "sections follow BENCHMARK.json's order: {workload}"
        );
        assert_eq!(out.matches(&format!("== {workload} (")).count(), 1);
        for (metric, unit) in &metrics {
            let unit = unit.as_deref().expect("checked above");
            let lines: Vec<&str> = section
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(metric))
                .collect();
            assert_eq!(lines.len(), 1, "{metric} once under {workload}:\n{section}");
            let mut words = lines[0].split_whitespace().skip(1);
            let value = words.next().expect("a value");
            // A host with fewer cores than compute threads prints parallel
            // timings as unresolved instead of as numbers.
            assert!(
                value.parse::<f64>().is_ok() || value == "unresolved",
                "{metric} has a value: {value}"
            );
            assert_eq!(words.next(), Some(unit), "{metric} carries its unit");
        }
        for pass in ["ops_failed", "traced: ops_failed"] {
            let line = section
                .lines()
                .find(|l| l.trim_start().starts_with(pass))
                .unwrap_or_else(|| panic!("{pass} under {workload}"));
            assert_eq!(line.split_whitespace().last(), Some("0"), "{line}");
        }
    }
}
