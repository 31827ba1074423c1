//! `serve-2k.closed2`: an in-process episerve and a closed loop of two
//! clients, each `submit` → `EventStream::open` → drain to the terminal
//! event → next. Closed because episerve's callers (an analyst, a sweep
//! script) wait for their curve before asking for the next.

use crate::common::{sim_config, Report, Run, World};
use crate::manifest::{ENSEMBLE_LAYER, NET_LAYER};
use crate::measure::{median, peak_rss_mb, percentile, ratio, Temp};
use crate::probes;
use crate::trace::Tracer;
use episerve::{
    reference_hash, Client, EngineSel, Event, EventStream, JobSpec, PoolConfig, Server,
    ServerConfig,
};
use episim_core::Strategy;
use std::time::{Duration, Instant};

const PEOPLE: u32 = 2_000;
const DAYS: u32 = 30;
const R: f64 = 3e-4;
const N_SPECS: u64 = 4;
const CLIENTS: usize = 2;
const POOL_WORKERS: usize = 2;
const PARTITIONS: u32 = 4;
/// Server start → first connect is sub-millisecond, so it is sampled
/// more often than the engine workloads' set-up.
const SETUP_REPS: usize = 101;
/// Every client finishes at least this many jobs whatever `--seconds` is.
const MIN_JOBS_PER_CLIENT: usize = 10;

fn spec(run: &Run, i: u64) -> JobSpec {
    let dsl = format!(
        "{}\nsim days={} r={R} seed={} initial={}\n",
        ptts::dsl::FLU_DSL,
        run.days(DAYS),
        run.sim_seed(),
        crate::common::INITIAL_INFECTIONS
    );
    let mut spec = JobSpec::dsl(&format!("epb-{i}"), &dsl, EngineSel::Seq);
    spec.hints.pop_size = run.people(PEOPLE);
    spec.hints.pop_seed = run.seed.wrapping_mul(N_SPECS).wrapping_add(i);
    spec.hints.n_pes = 1;
    spec.hints.n_partitions = PARTITIONS;
    spec
}

fn start_server(data_dir: &Temp) -> Server {
    let mut cfg = ServerConfig::local(data_dir.path().to_path_buf());
    cfg.pool = PoolConfig {
        workers: POOL_WORKERS,
    };
    Server::start(cfg).expect("start episerve on a loopback port")
}

fn stop_server(server: Server) {
    server.shutdown();
    server.join();
}

/// One job as its client saw it.
struct Job {
    submit: Instant,
    /// `submit` returned the job id.
    accepted: Instant,
    first_point: Option<Instant>,
    done: Instant,
    days: u32,
    ok: bool,
}

impl Job {
    fn since_submit(&self, t: Instant) -> f64 {
        t.duration_since(self.submit).as_secs_f64()
    }
}

/// One client's closed loop until `deadline`.
fn client_loop(
    addr: &str,
    specs: &[JobSpec],
    expected: &[u64],
    offset: usize,
    deadline: Instant,
) -> Vec<Job> {
    let mut client = Client::connect(addr).expect("client connect");
    let mut jobs = Vec::new();
    while jobs.len() < MIN_JOBS_PER_CLIENT || Instant::now() < deadline {
        let which = (offset + jobs.len()) % specs.len();
        let submit = Instant::now();
        let submitted = client.submit(&specs[which]);
        let accepted = Instant::now();
        let mut job = Job {
            submit,
            accepted,
            first_point: None,
            done: accepted,
            days: 0,
            ok: false,
        };
        // A refused submit, a broken stream or a wrong hash is a failed job.
        if let Ok(id) = submitted {
            if let Ok((_state, stream)) = EventStream::open(addr, id) {
                for event in stream {
                    match event {
                        Ok(Event::Day { .. }) => {
                            job.first_point.get_or_insert_with(Instant::now);
                        }
                        Ok(Event::Completed {
                            days, curve_hash, ..
                        }) => {
                            job.days = days;
                            job.ok = curve_hash == expected[which] && job.first_point.is_some();
                        }
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
            }
        }
        job.done = Instant::now();
        jobs.push(job);
    }
    jobs
}

pub fn run(tr: &mut Tracer, run: &Run) -> Report {
    let mut report = Report::new();
    let specs: Vec<JobSpec> = (0..N_SPECS).map(|i| spec(run, i)).collect();
    // Each distinct spec's uninterrupted in-process twin, once.
    let (expected, _) = tr.span("serve.reference_hashes", |_| {
        specs
            .iter()
            .map(|s| reference_hash(s).expect("reference run of a valid spec"))
            .collect::<Vec<u64>>()
    });
    let data_dir = Temp::new("serve");

    let (setup, _) = tr.span("serve.setup_reps", |tr| {
        (0..SETUP_REPS)
            .map(|_| {
                let ((server, client), setup_s) = tr.span("serve.start_connect", |_| {
                    let server = start_server(&data_dir);
                    let client = Client::connect(&server.addr().to_string());
                    (server, client)
                });
                client.expect("first connect");
                stop_server(server);
                setup_s
            })
            .collect::<Vec<f64>>()
    });

    let (jobs, loop_s) = tr.span("serve.closed_loop", |tr| {
        let server = start_server(&data_dir);
        let addr = server.addr().to_string();
        let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
        let per_client: Vec<Vec<Job>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (addr, specs, expected) = (&addr, &specs, &expected);
                    scope.spawn(move || client_loop(addr, specs, expected, c, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        stop_server(server);
        let jobs: Vec<Job> = per_client.into_iter().flatten().collect();
        for j in &jobs {
            let id = tr.add("serve.job", j.submit, j.done, None);
            tr.add("serve.submit", j.submit, j.accepted, id);
            if let Some(first) = j.first_point {
                tr.add("serve.first_point_wait", j.accepted, first, id);
                tr.add("serve.drain", first, j.done, id);
            }
        }
        jobs
    });
    let rss = peak_rss_mb();

    report.attempted = jobs.len() as u64;
    report.failed = jobs.iter().filter(|j| !j.ok).count() as u64;
    let bad = report.failed;
    report.gate(bad == 0, || {
        format!(
            "{bad} of {} jobs refused, failed or hashed wrong",
            jobs.len()
        )
    });
    let good: Vec<&Job> = jobs.iter().filter(|j| j.ok).collect();
    report.gate(!good.is_empty(), || "no job completed".to_string());
    if good.is_empty() {
        return report;
    }
    // First submit to last terminal event.
    let first_submit = jobs.iter().map(|j| j.submit).min().expect("jobs ran");
    let last_done = jobs.iter().map(|j| j.done).max().expect("jobs ran");
    let wall = last_done.duration_since(first_submit).as_secs_f64();
    let days_delivered: u64 = good.iter().map(|j| j.days as u64).sum();
    let first_point_ms: Vec<f64> = good
        .iter()
        .map(|j| j.since_submit(j.first_point.expect("ok jobs saw a day")) * 1e3)
        .collect();

    if !run.trace {
        report.set("setup_s", median(&setup));
        report.set("s_per_day", wall / days_delivered as f64);
        report.set("first_point_ms", median(&first_point_ms));
        report.set("peak_rss_mb", rss);
        eprintln!(
            "epibench: {} jobs in {wall:.2} s = {:.1} jobs/s, first point p95 {:.2} ms, loop span {loop_s:.2} s",
            good.len(),
            good.len() as f64 / wall,
            percentile(&first_point_ms, 95.0)
        );
        return report;
    }

    // Where a job's latency goes, from the clients' clocks.
    let submit_rtt: Vec<f64> = good.iter().map(|j| j.since_submit(j.accepted)).collect();
    let first_point: Vec<f64> = first_point_ms.iter().map(|ms| ms / 1e3).collect();
    let latency: Vec<f64> = good.iter().map(|j| j.since_submit(j.done)).collect();
    let drain: Vec<f64> = good
        .iter()
        .map(|j| {
            j.done
                .duration_since(j.first_point.expect("ok"))
                .as_secs_f64()
        })
        .collect();
    // First point minus the submit round trip minus one simulated day:
    // queueing plus the synthpop + graph-part set-up inside the job.
    let job_setup: Vec<f64> = good
        .iter()
        .zip(&drain)
        .map(|(j, drain)| {
            let one_day = drain / (j.days.max(2) - 1) as f64;
            (j.since_submit(j.first_point.expect("ok")) - j.since_submit(j.accepted) - one_day)
                .max(0.0)
        })
        .collect();

    // The layer probes run on spec 0's world, built the way the pool does.
    let cfg = sim_config(run.days(DAYS), R, run.sim_seed());
    let world = World::build(
        tr,
        &specs[0].name,
        specs[0].hints.pop_size,
        Strategy::GraphPartition,
        PARTITIONS,
        specs[0].hints.pop_seed,
        cfg.seed,
    );
    let oracle = probes::oracle(tr, &world, &cfg);
    let layers = probes::layers(tr, &world, &cfg, oracle.hash, &mut report);
    let s_per_day = wall / days_delivered as f64;

    report.set("synthpop.generate_s", world.generate_s);
    report.set("graph_part.build_s", world.partition_s);
    report.set("core.world_build_s", layers.world_build_s);
    layers.report(&mut report, &world, &oracle, s_per_day, None);
    report.set(
        "s_per_day_p90",
        percentile(
            &good
                .iter()
                .zip(&latency)
                .map(|(j, l)| l / j.days.max(1) as f64)
                .collect::<Vec<_>>(),
            90.0,
        ),
    );
    report.set("first_point_ms_p95", percentile(&first_point_ms, 95.0));
    report.zero(&NET_LAYER);
    report.zero(&ENSEMBLE_LAYER);
    // The clients stamp every job whether or not spans are kept, so there
    // is no unrecorded twin to compare with.
    report.zero(&["trace.overhead"]);
    report.set(
        "serve.submit_share",
        ratio(median(&submit_rtt), median(&first_point)),
    );
    report.set(
        "serve.job_setup_share",
        ratio(median(&job_setup), median(&first_point)),
    );
    report.set("serve.drain_share", ratio(median(&drain), median(&latency)));
    report
}
