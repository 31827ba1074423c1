//! `epibench`: the repository's one end-to-end + per-layer benchmark.
//! Every layer is measured from outside, by timing calls into its public
//! functions and reading the `DayPerf`/`PeStats` they return. README.md
//! has the metric and workload definitions; `run.sh` builds and starts
//! this program.
//!
//! ```text
//! epibench --workload W --seed N --seconds S --trace 0|1 [--quick]   one run, result as the last line
//! epibench --workload W --iteration ...                              one iteration of it (started by a run)
//! epibench [--seed N] [--seconds S] [--trace] [--quick]              every workload, one process each
//! epibench --aa [...]                                                two interleaved sets, compared
//! epibench --print-manifest                                          the text of BENCHMARK.json
//! ```

mod common;
mod engine;
mod manifest;
mod measure;
mod probes;
mod serve;
mod sweep;
mod trace;

use common::{Report, Run};
use manifest::{Metric, END_TO_END, NET, PER_LAYER, QUIET, SERVE, SWEEP, TAKEOFF, WORKLOADS};
use measure::Host;
use std::process::ExitCode;
use trace::Tracer;

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    /// One iteration of the workload in this process (see
    /// `common::iterations`); prints its samples, not a result.
    iteration: bool,
    aa: bool,
    print_manifest: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("epibench: {problem}");
    eprintln!(
        "usage: epibench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--aa] [--print-manifest]"
    );
    eprintln!("workloads: {}", WORKLOADS.map(|w| w.name).join(", "));
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        iteration: false,
        aa: false,
        print_manifest: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
                .as_str()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                let known = WORKLOADS.iter().find(|w| w.name == name);
                args.workload = Some(
                    known
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}")))
                        .name,
                );
            }
            "--seed" => {
                args.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a whole number"));
            }
            "--seconds" => {
                let s: f64 = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds needs a number"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                args.seconds = Some(s);
            }
            // `--trace 0|1` from the driver; bare `--trace` by hand.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--iteration" => args.iteration = true,
            "--aa" => args.aa = true,
            "--print-manifest" => args.print_manifest = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            1.0
        } else {
            manifest::RUN_SECONDS as f64
        })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    if args.print_manifest {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // The transport comes from the workload's RuntimeConfig alone, and net
    // workers are started with this process's arguments.
    std::env::remove_var("ChareNetTransport");
    std::env::remove_var("CHARE_NET_TRANSPORT");
    std::env::set_var("EPISIM_NET_CHILD_ARGS", argv.join(" "));

    match args.workload {
        Some(workload) => {
            let run = Run {
                workload,
                seed: args.seed,
                seconds: args.seconds(),
                trace: args.trace,
                quick: args.quick,
            };
            // A net worker re-executed by the root: no timing, no oracle,
            // no output. It exits inside the engine's teardown.
            if let Some(target) = chare_rt::worker_target() {
                engine::net_worker(&run, target);
            }
            if args.iteration {
                return iteration(&run);
            }
            single(&run)
        }
        None if args.aa => aa(&args),
        None => all(&args),
    }
}

/// One iteration for the run that started this process: its samples on
/// the first line of stdout, then its spans.
fn iteration(run: &Run) -> ExitCode {
    let mut tr = Tracer::new(run.trace);
    let samples = match run.workload {
        TAKEOFF | QUIET | NET => engine::iteration(&mut tr, run),
        SWEEP => sweep::iteration(&mut tr, run),
        other => usage(&format!("{other} does not run in iterations")),
    };
    println!("{}", samples.to_line());
    for line in tr.export() {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

/// One run of one workload; the result is the last line of stdout.
fn single(run: &Run) -> ExitCode {
    let host = Host::detect();
    eprintln!("epibench: {}", host.line());
    eprintln!(
        "epibench: {} seed={} seconds={} trace={} quick={}",
        run.workload, run.seed, run.seconds, run.trace as u8, run.quick
    );
    if host.oversubscribed() {
        eprintln!(
            "epibench: OVERSUBSCRIBED: {} compute threads on {} core(s); timings of parallel work are unresolved",
            manifest::THREADS_PER_WORKLOAD,
            host.nproc
        );
    }
    let mut tr = Tracer::new(run.trace);
    let mut report = match run.workload {
        TAKEOFF | QUIET | NET => engine::run(&mut tr, run),
        SWEEP => sweep::run(&mut tr, run),
        SERVE => serve::run(&mut tr, run),
        other => unreachable!("{other} passed argument parsing"),
    };
    let orphans = measure::child_pids();
    report.gate(orphans.is_empty(), || {
        format!("child processes outlived the run: {orphans:?}")
    });

    let table: &[Metric] = if run.trace { &PER_LAYER } else { &END_TO_END };
    if run.trace {
        let wall = tr.wall_s();
        let coverage = tr.top_level_s() / wall;
        report.set("trace.span_coverage", coverage);
        report.gate(coverage >= 0.95, || {
            format!("top-level spans cover {coverage:.3} of process wall, less than 0.95")
        });
        let path = measure::out_dir().join(format!("trace-{}.json", run.workload));
        std::fs::write(&path, tr.json(run.workload, &host.json(), wall))
            .expect("write the trace file under benchmark/out");
        eprintln!("epibench: trace written to {}", path.display());
    }
    println!("{}", result_json(&report, table));
    ExitCode::SUCCESS
}

/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
/// exactly the metrics of `table`, each value with all its digits.
fn result_json(report: &Report, table: &[Metric]) -> String {
    let metrics = table
        .iter()
        .map(|m| {
            let value = report
                .metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("the workload did not measure {}", m.name));
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    )
}

/// What a child run printed, read back by string search (the format
/// above is the only one this has to understand).
struct Outcome {
    line: String,
}

impl Outcome {
    /// The text between `needle` and the next `,` or `}`.
    fn after(&self, needle: &str) -> Option<&str> {
        let rest = &self.line[self.line.find(needle)? + needle.len()..];
        Some(rest[..rest.find([',', '}'])?].trim())
    }

    fn field(&self, key: &str) -> Option<&str> {
        self.after(&format!("\"{key}\": "))
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.after(&format!("\"{metric}\": {{\"value\": "))?
            .parse()
            .ok()
    }

    fn ok(&self) -> bool {
        self.field("correct") == Some("true") && self.field("failed") == Some("0")
    }
}

/// Run one workload in a process of its own, so `VmHWM` is per workload.
fn child(args: &Args, workload: &'static str, trace: bool) -> Option<Outcome> {
    let run = Run {
        workload,
        seed: args.seed,
        seconds: args.seconds(),
        trace,
        quick: args.quick,
    };
    let out = run.command().output().expect("start a workload process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success() && line.starts_with('{')).then_some(Outcome { line })
}

fn print_metrics(outcome: &Outcome, table: &[Metric], unresolved: bool) {
    for m in table {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("   (bound {:.0}%)", b * 100.0));
        // With more compute threads than cores a timing of parallel work
        // says nothing; counts and memory still do.
        let timing = matches!(m.unit, "s" | "ms" | "ns" | "x");
        match outcome.value(m.name) {
            Some(_) if unresolved && timing => {
                println!(
                    "  {:<34} unresolved {} (oversubscribed){bound}",
                    m.name, m.unit
                )
            }
            Some(v) => println!("  {:<34} {v:>14.6} {}{bound}", m.name, m.unit),
            None => println!("  {:<34} MISSING", m.name),
        }
    }
}

/// Every workload once with tracing off; with `--trace`, the separate
/// traced pass after it.
fn all(args: &Args) -> ExitCode {
    let host = Host::detect();
    println!("{}", host.line());
    let mut failed = false;
    for w in &WORKLOADS {
        println!("== {} (seed {}, {} s)", w.name, args.seed, args.seconds());
        let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &trace in passes {
            match child(args, w.name, trace) {
                Some(outcome) => {
                    let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
                    print_metrics(&outcome, table, host.oversubscribed());
                    let pass = if trace { "traced: " } else { "" };
                    for (label, key) in [("ops_attempted", "attempted"), ("ops_failed", "failed")] {
                        println!(
                            "  {:<34} {}",
                            format!("{pass}{label}"),
                            outcome.field(key).unwrap_or("?")
                        );
                    }
                    if !outcome.ok() {
                        println!("  CHECK FAILED (see the messages above)");
                        failed = true;
                    }
                }
                None => {
                    println!("  RUN FAILED: no result");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Two full untraced sets of the same build, interleaved workload by
/// workload. Fails if a gated metric differs by more than its bound.
fn aa(args: &Args) -> ExitCode {
    println!("{}", Host::detect().line());
    let mut failed = false;
    for w in &WORKLOADS {
        println!("== {} (seed {}, {} s)", w.name, args.seed, args.seconds());
        let (Some(a), Some(b)) = (child(args, w.name, false), child(args, w.name, false)) else {
            println!("  RUN FAILED: no result");
            failed = true;
            continue;
        };
        failed |= !(a.ok() && b.ok());
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (a.value(m.name), b.value(m.name)) else {
                println!("  {:<16} MISSING", m.name);
                failed = true;
                continue;
            };
            let diff = (vb - va).abs() / va.min(vb);
            let bound = m.bound.expect("end-to-end metrics are gated");
            let verdict = if diff <= bound { "ok" } else { "EXCEEDS BOUND" };
            println!(
                "  {:<16} A {va:>12.6}  B {vb:>12.6} {:<3} diff {:>5.1}%  bound {:>3.0}%  {verdict}",
                m.name,
                m.unit,
                diff * 100.0,
                bound * 100.0
            );
            failed |= diff > bound;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
