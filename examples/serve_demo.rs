//! episerve end-to-end demo: a simulation-as-a-service control plane on
//! localhost TCP. Starts an in-process server, submits nine concurrent
//! jobs mixing the Seq/Threads/Vt engines, streams every per-day curve
//! point over subscription connections, pauses one job mid-run and
//! resumes it from its CRC checkpoint, cancels another at a day
//! boundary, and verifies that every completion event's `curve_hash` is
//! bit-identical to a direct in-process run of the same spec — including
//! the paused-then-resumed job.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```
//!
//! Prints a per-job table plus the two service metrics EXPERIMENTS.md
//! records: completed jobs/sec and first-curve-point stream latency, and
//! at shutdown the world cache's counters.

use episimdemics::episerve::{
    reference_hash, Client, EngineSel, Event, JobId, JobSpec, JobState, PoolConfig, Server,
    ServerConfig, Stopwatch,
};
use std::time::Duration;

const N_JOBS: usize = 9;
const PAUSE_TARGET: usize = 1; // a Threads job: paused, then resumed
const CANCEL_TARGET: usize = 2; // a Vt job: cancelled mid-run

fn scenario_dsl() -> String {
    format!(
        "{}\nsim days=20 r=0.0004 seed=11 initial=6\n",
        episimdemics::ptts::dsl::FLU_DSL
    )
}

fn demo_spec(i: usize) -> JobSpec {
    let engine = [EngineSel::Seq, EngineSel::Threads, EngineSel::Vt][i % 3];
    let mut spec = JobSpec::dsl(&format!("demo-{i}"), &scenario_dsl(), engine);
    spec.hints.pop_size = 800;
    spec.hints.pop_seed = 7 + i as u64;
    spec.hints.n_pes = 2;
    spec.hints.n_partitions = 4;
    if i == PAUSE_TARGET || i == CANCEL_TARGET {
        // Pace the two interactive jobs so pause/cancel land mid-run.
        spec.hints.throttle_ms = 25;
    }
    if i == CANCEL_TARGET {
        spec.days = Some(400);
    }
    spec
}

fn wait_for(client: &mut Client, job: JobId, pred: impl Fn(JobState, u32) -> bool) {
    loop {
        let (state, days) = client.status(job).expect("status");
        if pred(state, days) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn main() {
    let data_dir = std::env::temp_dir().join(format!("episerve-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let mut cfg = ServerConfig::local(data_dir);
    cfg.pool = PoolConfig { workers: 4 };
    let server = Server::start(cfg).expect("server start");
    let addr = server.addr().to_string();
    println!("episerve listening on {addr} (4 workers)\n");

    // Pin the expected hashes with direct in-process runs before the
    // service touches anything.
    let specs: Vec<JobSpec> = (0..N_JOBS).map(demo_spec).collect();
    let expected: Vec<Option<u64>> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (i != CANCEL_TARGET).then(|| reference_hash(s).expect("twin")))
        .collect();

    let mut client = Client::connect(&addr).expect("connect");
    let total = Stopwatch::start();
    let jobs: Vec<JobId> = specs
        .iter()
        .map(|s| client.submit(s).expect("submit"))
        .collect();
    println!("submitted {N_JOBS} jobs: {jobs:?}");

    // One streaming thread per job: subscribe, count curve points, note
    // the latency to the first point, return the terminal event.
    let streamers: Vec<_> = jobs
        .iter()
        .map(|&job| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let c = Client::connect(&addr).expect("connect");
                let watch = Stopwatch::start();
                let (_, stream) = c.subscribe(job).expect("subscribe");
                let mut first_ms = None;
                let mut points = 0u32;
                let terminal = stream
                    .drain(|_| {
                        points += 1;
                        if first_ms.is_none() {
                            first_ms = Some(watch.millis());
                        }
                    })
                    .expect("terminal");
                (job, points, first_ms, terminal)
            })
        })
        .collect();

    // Pause the target once it is a few days in, then resume it.
    let pause_job = jobs[PAUSE_TARGET];
    wait_for(&mut client, pause_job, |s, d| {
        d >= 3 || s.is_terminal() // terminal here would be a demo bug
    });
    client.pause(pause_job).expect("pause");
    wait_for(&mut client, pause_job, |s, _| s == JobState::Paused);
    let (_, paused_at) = client.status(pause_job).expect("status");
    println!("job {pause_job} paused at day {paused_at}; resuming from checkpoint");
    client.resume(pause_job).expect("resume");

    // Cancel the long-running target at a day boundary.
    let cancel_job = jobs[CANCEL_TARGET];
    wait_for(&mut client, cancel_job, |_, d| d >= 2);
    client.cancel(cancel_job).expect("cancel");
    wait_for(&mut client, cancel_job, |s, _| s == JobState::Cancelled);
    println!("job {cancel_job} cancelled mid-run\n");

    // Collect every stream and check the determinism contract.
    println!("job  engine   points  first-point  outcome");
    let mut completed = 0u32;
    let mut latencies = Vec::new();
    for h in streamers {
        let (job, points, first_ms, terminal) = h.join().expect("streamer");
        let i = jobs.iter().position(|&j| j == job).expect("known job");
        if let Some(ms) = first_ms {
            latencies.push(ms);
        }
        let first = first_ms.unwrap_or(0.0);
        let outcome = match terminal {
            Event::Completed { curve_hash, .. } => {
                let want = expected[i].expect("completed job has a twin");
                assert_eq!(
                    curve_hash, want,
                    "job {job}: served hash differs from the direct run"
                );
                completed += 1;
                format!("completed, hash {curve_hash:#018x} == direct run")
            }
            Event::State { state, .. } => format!("terminal state {}", state.as_str()),
            other => format!("{other:?}"),
        };
        println!(
            "{job:>3}  {:<7}  {points:>6}  {first:>8.1}ms   {outcome}",
            specs[i].engine.as_str(),
        );
    }
    let secs = total.seconds().max(1e-9);
    assert_eq!(
        completed,
        (N_JOBS - 1) as u32,
        "all but the cancelled job complete"
    );

    let mean_latency = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    println!(
        "\n{completed} jobs completed in {secs:.2}s  ->  {:.1} jobs/sec",
        f64::from(completed) / secs
    );
    println!("mean stream latency to first curve point: {mean_latency:.1}ms");
    println!("paused-then-resumed job {pause_job} matched its uninterrupted twin bit-for-bit");

    let worlds = server.world_cache_stats();
    println!(
        "world cache: {} hits, {} misses, {} evictions; {} worlds kept in {:.0} KB",
        worlds.hits,
        worlds.misses,
        worlds.evictions,
        worlds.entries,
        worlds.resident_bytes as f64 / 1024.0
    );
    client.shutdown().expect("shutdown");
    server.join();
    println!("server drained cleanly");
}
