//! The benchmark's contract as data: every workload and metric by name.
//! `../BENCHMARK.json` is this table rendered by [`benchmark_json`]
//! (`epibench --print-manifest`); `tests/smoke.rs` fails if they drift.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 18;

/// Compute threads every workload uses (PE threads, net processes,
/// ensemble workers, serve pool workers). A host with fewer cores makes a
/// run `oversubscribed`.
pub const THREADS_PER_WORKLOAD: usize = 2;

/// One workload: its name and, in one line, why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const TAKEOFF: &str = "takeoff-30k.threads2";
pub const QUIET: &str = "quiet-30k.threads2";
pub const NET: &str = "takeoff-15k.net2";
pub const SWEEP: &str = "sweep-10k.oracle2";
pub const SERVE: &str = "serve-2k.closed2";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: TAKEOFF,
        why: "30k people, GP-splitLoc k=8, threaded(2), 120 days, r=1e-4 (~70% attack): time to solution; the only workload where every layer works and the DES kernel has its largest share",
    },
    Workload {
        name: QUIET,
        why: "same world and engine, r=1e-5 (no epidemic): the kernel takes its fast path, so person phase + message path + CD sync do the work; a kernel change must not move it",
    },
    Workload {
        name: NET,
        why: "15k people, k=2, net(2 PEs, 2 processes), 120 days, r=1e-4: the takeoff epidemic with every remote visit crossing the wire codec, shm ring/TCP, two-wave CD and batch controller",
    },
    Workload {
        name: SWEEP,
        why: "CowWorld over 10k people, 5 r values x 8 seeds = 40 members x 60 days, run_sweep on 2 workers: core::seq only, so it bypasses chare-rt and is the compute floor",
    },
    Workload {
        name: SERVE,
        why: "in-process episerve (2 pool workers), closed loop of 2 clients cycling 4 specs (2k people, 30 days, r=3e-4, seq engine): set-up code used many-times-small, plus the control plane",
    },
];

/// One metric: name, unit, direction, and (end-to-end only) the share of
/// the parent's median by which it may worsen.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What an analyst waiting on a run, a sweep or a served job pays. Every
/// workload reports all four (see README.md for the per-workload reading).
pub const END_TO_END: [Metric; 4] = [
    gated("setup_s", "s", 0.25),
    gated("s_per_day", "s", 0.2),
    gated("first_point_ms", "ms", 0.25),
    gated("peak_rss_mb", "MB", 0.25),
];

/// Single-layer metrics, traced pass only; layer = module. A workload
/// that does not execute a layer reports that layer's counts as 0.
pub const PER_LAYER: [Metric; 30] = [
    layer("synthpop.generate_s", "s", "lower"),
    layer("graph_part.build_s", "s", "lower"),
    layer("core.world_build_s", "s", "lower"),
    layer("graph_part.remote_visit_fraction", "share", "lower"),
    layer("graph_part.load_imbalance", "x", "lower"),
    layer("person.ns_per_visit", "ns", "lower"),
    layer("kernel.ns_per_event", "ns", "lower"),
    layer("kernel.events_per_day", "count", "lower"),
    layer("kernel.infects_per_day", "count", "lower"),
    layer("chare_rt.overhead_x", "x", "lower"),
    layer("chare_rt.sync_share", "share", "lower"),
    layer("chare_rt.seq_over_oracle", "x", "lower"),
    layer("chare_rt.location_busy_share", "share", "lower"),
    layer("s_per_day_p90", "s", "lower"),
    layer("first_point_ms_p95", "ms", "lower"),
    layer("net.msgs_per_frame", "count", "higher"),
    layer("net.wire_bytes_per_day", "bytes", "lower"),
    layer("net.remote_bytes_per_day", "bytes", "lower"),
    layer("net.parks_per_day", "count", "lower"),
    layer("net.flush_idle_share", "share", "lower"),
    layer("net.s_per_day_over_threads", "x", "lower"),
    layer("ensemble.parallel_eff", "share", "higher"),
    layer("serve.submit_share", "share", "lower"),
    layer("serve.job_setup_share", "share", "lower"),
    layer("serve.drain_share", "share", "lower"),
    layer("checkpoint.save_s", "s", "lower"),
    layer("checkpoint.load_s", "s", "lower"),
    layer("checkpoint.bytes_per_person", "bytes", "lower"),
    layer("trace.overhead", "share", "lower"),
    layer("trace.span_coverage", "share", "higher"),
];

/// The per-layer metrics of the three layers only one workload runs; the
/// others report them as 0 (the layer did no work).
pub const NET_LAYER: [&str; 6] = [
    "net.msgs_per_frame",
    "net.wire_bytes_per_day",
    "net.remote_bytes_per_day",
    "net.parks_per_day",
    "net.flush_idle_share",
    "net.s_per_day_over_threads",
];
pub const ENSEMBLE_LAYER: [&str; 1] = ["ensemble.parallel_eff"];
pub const SERVE_LAYER: [&str; 3] = [
    "serve.submit_share",
    "serve.job_setup_share",
    "serve.drain_share",
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let metrics = |ms: &[Metric]| {
        ms.iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name, m.unit, m.better
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        metrics(&END_TO_END),
        metrics(&PER_LAYER)
    )
}
