//! End-to-end lifecycle tests over localhost TCP: submit → stream →
//! pause → resume → cancel, the cross-engine pause/resume determinism
//! pin, the world cache's hash-neutrality, the bounded job table, and the
//! no-orphan guarantee after cancel + shutdown.

use episerve::{
    reference_hash, Client, Deadline, EngineSel, Event, EventStream, JobId, JobSpec, JobState,
    PoolConfig, Server, ServerConfig,
};
use std::path::PathBuf;
use std::time::Duration;

fn data_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("episerve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn scenario_dsl() -> String {
    format!(
        "{}\nsim days=14 r=0.0004 seed=11 initial=6\n",
        ptts::dsl::FLU_DSL
    )
}

fn small_spec(name: &str, engine: EngineSel) -> JobSpec {
    let mut spec = JobSpec::dsl(name, &scenario_dsl(), engine);
    spec.hints.pop_size = 700;
    spec.hints.n_pes = 2;
    spec.hints.n_partitions = 4;
    // Pace the run so pause/cancel requests land mid-run even in release
    // builds (a 700-person, 14-day job otherwise finishes in microseconds).
    spec.hints.throttle_ms = 15;
    spec
}

fn start_server(tag: &str, workers: usize) -> (Server, String) {
    let mut cfg = ServerConfig::local(data_dir(tag));
    cfg.pool = PoolConfig { workers };
    let server = Server::start(cfg).expect("server start");
    let addr = server.addr().to_string();
    (server, addr)
}

/// Wait (with timeout) until the server reports `job` in `want`.
fn wait_for_state(client: &mut Client, job: JobId, want: JobState) {
    let deadline = Deadline::after(Duration::from_secs(60));
    loop {
        let (state, _) = client.status(job).expect("status");
        if state == want {
            return;
        }
        assert!(
            !deadline.expired(),
            "job {job} stuck in {} waiting for {}",
            state.as_str(),
            want.as_str()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Wait until the job has streamed at least `days` curve points.
fn wait_for_days(client: &mut Client, job: JobId, days: u32) {
    let deadline = Deadline::after(Duration::from_secs(60));
    loop {
        let (state, done) = client.status(job).expect("status");
        if done >= days {
            return;
        }
        assert!(
            !deadline.expired() && !state.is_terminal(),
            "job {job} ({}, {done} days) never reached {days} days",
            state.as_str()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The tentpole determinism pin: for every engine, a job that is paused
/// mid-run (checkpointed to disk, re-queued, resumed by a possibly
/// different worker) completes with a curve hash bit-identical to the
/// uninterrupted twin of the same spec.
#[test]
fn pause_resume_hash_is_bit_identical_across_all_engines() {
    let (server, addr) = start_server("xengine", 2);
    let mut client = Client::connect(&addr).expect("connect");

    for engine in [
        EngineSel::Seq,
        EngineSel::Threads,
        EngineSel::Vt,
        EngineSel::Net,
    ] {
        let spec = small_spec(&format!("x-{}", engine.as_str()), engine);
        let direct = reference_hash(&spec).expect("reference twin");

        let job = client.submit(&spec).expect("submit");
        wait_for_days(&mut client, job, 4);
        client.pause(job).expect("pause");
        wait_for_state(&mut client, job, JobState::Paused);
        let (_, paused_days) = client.status(job).expect("status");
        assert!(
            (4..14).contains(&paused_days),
            "{}: pause landed at day {paused_days}, not mid-run",
            engine.as_str()
        );

        client.resume(job).expect("resume");
        let (_, stream) = client.subscribe(job).expect("subscribe");
        let mut streamed = Vec::new();
        let terminal = stream
            .drain(|d| streamed.push(d.day))
            .expect("terminal event");
        let Event::Completed {
            curve_hash, days, ..
        } = terminal
        else {
            panic!("{}: expected Completed, got {terminal:?}", engine.as_str());
        };
        assert_eq!(
            curve_hash,
            direct,
            "{}: paused-then-resumed hash differs from the uninterrupted twin",
            engine.as_str()
        );
        assert_eq!(streamed.len() as u32, days, "stream replays the full curve");
        assert_eq!(
            streamed,
            (0..days).collect::<Vec<_>>(),
            "{}: curve points arrive gapless and in order",
            engine.as_str()
        );
    }
    // Each resumed lease took the world its first lease built.
    let worlds = server.world_cache_stats();
    assert_eq!((worlds.misses, worlds.hits), (4, 4), "{worlds:?}");

    server.shutdown();
    server.join();
}

/// Count this process's direct children via procfs (Linux). The serve
/// pool runs everything in-process — even net jobs are standalone — so
/// the child set must stay empty throughout.
fn child_pids() -> Vec<u32> {
    let mut out = Vec::new();
    let tasks = std::path::Path::new("/proc/self/task");
    let Ok(entries) = std::fs::read_dir(tasks) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path().join("children");
        if let Ok(text) = std::fs::read_to_string(path) {
            out.extend(
                text.split_whitespace()
                    .filter_map(|p| p.parse::<u32>().ok()),
            );
        }
    }
    out
}

/// Cancel-mid-run: the cooperative day-boundary stop ends the job in
/// `Cancelled`, the stream terminates with the terminal state event, the
/// worker pool drains on shutdown, and no orphan processes survive
/// (reusing the net suite's reap discipline: assert on the child table,
/// not on hope).
#[test]
fn cancel_mid_run_leaves_no_orphans() {
    let before = child_pids();
    let (server, addr) = start_server("cancel", 2);
    let mut client = Client::connect(&addr).expect("connect");

    let mut spec = small_spec("victim", EngineSel::Threads);
    spec.days = Some(400); // long enough that cancel always lands mid-run
    let job = client.submit(&spec).expect("submit");
    wait_for_days(&mut client, job, 2);
    client.cancel(job).expect("cancel");
    wait_for_state(&mut client, job, JobState::Cancelled);

    // The subscription replays the partial curve, then the terminal
    // cancel event.
    let (state, stream) = client.subscribe(job).expect("subscribe");
    assert_eq!(state, JobState::Cancelled);
    let mut days = 0u32;
    let terminal = stream.drain(|_| days += 1).expect("terminal");
    assert!(
        matches!(
            terminal,
            Event::State {
                state: JobState::Cancelled,
                ..
            }
        ),
        "expected terminal cancel, got {terminal:?}"
    );
    assert!(days >= 2, "partial curve replays before the terminal event");

    server.shutdown();
    server.join();
    let after = child_pids();
    assert_eq!(
        after, before,
        "cancel + shutdown must not leave orphan processes"
    );
}

/// The full service loop over the wire: mixed-engine concurrent jobs,
/// status, listing, illegal transitions as typed errors, ensemble jobs,
/// and wire-driven shutdown. Every spec runs twice: the second lease takes
/// the world the first one built, and both completions hash equal to the
/// uncached reference twin.
#[test]
fn mixed_engine_service_loop() {
    let (server, addr) = start_server("mixed", 3);
    let mut client = Client::connect(&addr).expect("connect");

    // An invalid spec is refused synchronously.
    let mut broken = small_spec("broken", EngineSel::Seq);
    broken.source = episerve::ScenarioSource::Dsl("disease nope\nstate".into());
    let err = client
        .submit(&broken)
        .expect_err("bad spec must be refused");
    assert!(err.to_string().contains("does not parse"), "{err}");

    // Mixed engines plus an ensemble sweep, each submitted twice.
    let mut specs: Vec<JobSpec> = [
        EngineSel::Seq,
        EngineSel::Threads,
        EngineSel::Vt,
        EngineSel::Net,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, engine)| small_spec(&format!("mix-{i}"), engine))
    .collect();
    let mut sweep = small_spec("sweep", EngineSel::Ensemble);
    sweep.source = episerve::ScenarioSource::Sweep {
        dsl: scenario_dsl(),
        r_values: vec![0.0002, 0.0004],
        replicates: 2,
        workers: 2,
    };
    specs.push(sweep);
    let jobs: Vec<(JobId, &JobSpec)> = specs
        .iter()
        .chain(&specs)
        .map(|spec| (client.submit(spec).expect("submit"), spec))
        .collect();

    // Pausing an ensemble job is a typed refusal, not a hang.
    let sweep_job = jobs[specs.len() - 1].0;
    let err = client.pause(sweep_job).expect_err("ensemble pause refused");
    assert!(err.to_string().contains("atomically"), "{err}");

    for (job, spec) in &jobs {
        let (_, stream) = client.subscribe(*job).expect("subscribe");
        let terminal = stream.drain(|_| {}).expect("terminal");
        let Event::Completed {
            curve_hash, days, ..
        } = terminal
        else {
            panic!("job {job} ended {terminal:?}");
        };
        assert_eq!(
            curve_hash,
            reference_hash(spec).expect("twin"),
            "job {job} ({})",
            spec.engine.as_str()
        );
        if spec.engine == EngineSel::Ensemble {
            assert_eq!(days, 4, "2 r-values x 2 replicates");
        }
    }
    let worlds = server.world_cache_stats();
    assert_eq!(
        (worlds.misses, worlds.hits, worlds.evictions, worlds.entries),
        (5, 5, 0, 5),
        "one miss and one hit per spec: {worlds:?}"
    );

    // Listing shows every job terminal.
    let listed = client.list().expect("list");
    assert_eq!(listed.len(), jobs.len());
    assert!(listed.iter().all(|(_, s)| s.is_terminal()));

    // Unknown job ids are typed errors on every lifecycle verb.
    for result in [
        client.pause(999).err(),
        client.resume(999).err(),
        client.cancel(999).err(),
        client.status(999).err(),
    ] {
        let err = result.expect("unknown job must error");
        assert!(err.to_string().contains("no job 999"), "{err}");
    }

    // Wire-driven shutdown: Bye, then the server drains.
    client.shutdown().expect("shutdown");
    server.join();
}

/// The job table keeps the most recent `RETAINED_TERMINAL_JOBS` finished
/// jobs: an older id is a typed `NoSuchJob` on every verb, and a late
/// subscriber to a retained one still gets its replay and terminal event.
#[test]
fn finished_jobs_beyond_the_cap_are_forgotten_oldest_first() {
    const JOBS: u64 = 300;
    let retained = episerve::manager::RETAINED_TERMINAL_JOBS as u64;
    let (server, addr) = start_server("retire", 2);
    let mut client = Client::connect(&addr).expect("connect");
    let mut spec = small_spec("retire", EngineSel::Seq);
    spec.hints.pop_size = 50;
    spec.hints.throttle_ms = 0;
    spec.days = Some(1);
    for want in 1..=JOBS {
        let job = client.submit(&spec).expect("submit");
        assert_eq!(job, want);
        let (_, stream) = client.subscribe(job).expect("subscribe");
        stream.drain(|_| {}).expect("terminal");
    }

    let listed = client.list().expect("list");
    assert_eq!(listed.len() as u64, retained);
    assert!(listed.iter().all(|(_, s)| s.is_terminal()));
    let oldest_kept = JOBS - retained + 1;
    assert_eq!(listed.first().map(|(id, _)| *id), Some(oldest_kept));

    let forgotten = oldest_kept - 1;
    for result in [
        client.status(forgotten).err(),
        client.cancel(forgotten).err(),
        EventStream::open(&addr, forgotten).err(),
    ] {
        let err = result.expect("a forgotten job must error");
        assert!(
            err.to_string().contains(&format!("no job {forgotten}")),
            "{err}"
        );
    }

    let (state, stream) = client.subscribe(oldest_kept).expect("subscribe");
    assert_eq!(state, JobState::Completed);
    let mut days = 0u32;
    let terminal = stream.drain(|_| days += 1).expect("terminal");
    assert!(
        matches!(terminal, Event::Completed { days: 1, .. }),
        "{terminal:?}"
    );
    assert_eq!(days, 1, "replay before the terminal event");

    server.shutdown();
    server.join();
}

/// Subscribing to an unknown job errors; subscribing twice streams the
/// same completed curve to both (late subscribers replay).
#[test]
fn late_and_duplicate_subscribers_replay() {
    let (server, addr) = start_server("replay", 2);
    let mut client = Client::connect(&addr).expect("connect");
    assert!(EventStream::open(&addr, 42).is_err(), "unknown job refused");

    let spec = small_spec("replayed", EngineSel::Seq);
    let job = client.submit(&spec).expect("submit");
    wait_for_state(&mut client, job, JobState::Completed);

    let mut hashes = Vec::new();
    for _ in 0..2 {
        let (state, stream) = client.subscribe(job).expect("subscribe");
        assert_eq!(state, JobState::Completed);
        let mut n = 0u32;
        match stream.drain(|_| n += 1).expect("terminal") {
            Event::Completed {
                curve_hash, days, ..
            } => {
                assert_eq!(n, days);
                hashes.push(curve_hash);
            }
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(hashes.first(), hashes.last());

    server.shutdown();
    server.join();
}
