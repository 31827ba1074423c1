//! Chaos conformance for the crash-tolerant driver: a net-mode run that
//! loses a worker mid-simulation must recover automatically from the
//! last committed checkpoint and finish with a curve **bit-identical**
//! to an undisturbed sequential run — on both wire planes, and for both
//! failure classes the detector knows (crash and stall).
//!
//! Tests with `n_procs > 1` re-execute this test binary (filtered by
//! thread name, see `chare_rt::net::launch`) to create their workers, so
//! each test body runs once per process and must stay SPMD-safe: the
//! sequential baseline is computed only on the root, and every rank
//! funnels through `run_resilient`, which aligns workers to the attempt
//! they were spawned for. The recovery env vars are process-global, so
//! the net tests serialize on a mutex.

use std::sync::Mutex;

use chare_rt::{FaultPlan, NetTransport, RecoveryError, RuntimeConfig, TransportError};
use episim_core::distribution::{DataDistribution, Strategy};
use episim_core::output::EpiCurve;
use episim_core::resilient::{run_resilient, RecoveryConfig};
use episim_core::simulator::{SimConfig, Simulator};
use ptts::flu_model;
use ptts::intervention::{Action, Intervention, InterventionSet, Trigger};
use synthpop::{LocationKind, Population, PopulationConfig};

/// Serializes the net-mode tests: the root exports `EPISIM_NET_RECOVERY_*`
/// env vars before each attempt, and env is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

const DAYS: u32 = 10;
/// Phase at which the injected fault fires: phases are 1-based with two
/// per day, so 12 = the ComputeDay phase of day 5 — squarely mid-run,
/// with epochs 1..=5 already committed.
const FAULT_PHASE: u32 = 12;

fn fixture() -> (DataDistribution, SimConfig) {
    let pop = Population::generate(&PopulationConfig::small("RZ", 1200, 55));
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 55);
    let cfg = SimConfig {
        days: DAYS,
        r: 0.0013,
        seed: 55,
        initial_infections: 8,
        stop_when_extinct: false,
        // An intervention that fires mid-run, so recovery must restore
        // intervention state (fired flags + active windows), not just
        // person states.
        interventions: InterventionSet::new(vec![Intervention {
            trigger: Trigger::PrevalenceAbove(0.02),
            action: Action::CloseKind {
                kind: LocationKind::School as u8,
                duration: 4,
            },
        }]),
    };
    (dist, cfg)
}

fn seq_baseline(dist: &DataDistribution, cfg: &SimConfig) -> EpiCurve {
    Simulator::new(dist, flu_model(), cfg.clone(), RuntimeConfig::sequential(4))
        .run()
        .curve
}

fn recovery_cfg(tag: &str) -> RecoveryConfig {
    let dir = std::env::temp_dir().join(format!("episim-resilient-{tag}-{}", std::process::id()));
    RecoveryConfig::new(dir)
}

/// Net config used by the chaos tests: heartbeats on, so stalls (not
/// just socket EOFs) are detectable.
fn net_cfg(transport: NetTransport) -> RuntimeConfig {
    let mut rt = RuntimeConfig::net(4, 2);
    rt.net.transport = transport;
    rt.net.heartbeat_interval_ms = 100;
    rt.net.heartbeat_timeout_ms = 1_000;
    rt
}

/// Root-side body shared by the chaos cases: run resiliently, then check
/// the curve against the undisturbed sequential reference bit-for-bit.
fn assert_recovers(tag: &str, rt: RuntimeConfig) {
    let on_root = chare_rt::worker_target().is_none();
    let _guard = on_root.then(|| ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner()));
    let (dist, cfg) = fixture();
    let rec = recovery_cfg(tag);
    let run =
        run_resilient(&dist, &flu_model(), &cfg, &rt, &rec).expect("run must recover, not abort");
    // Workers exit inside engine teardown; everything below is root-only.
    let reference = seq_baseline(&dist, &cfg);
    assert_eq!(run.attempts, 2, "fault must fire exactly once");
    assert_eq!(
        run.resumed_from,
        Some(5),
        "day-5 fault must roll back to the epoch committed after day 5"
    );
    assert_eq!(
        run.curve.hash(),
        reference.hash(),
        "recovered curve must be bit-identical to the sequential run"
    );
    assert_eq!(run.curve.days, reference.days);
    let _ = std::fs::remove_dir_all(&rec.dir);
}

#[test]
fn resilient_recovers_from_killed_worker_tcp() {
    let mut rt = net_cfg(NetTransport::Tcp);
    rt.faults = FaultPlan::proc_kill(0, 1, FAULT_PHASE);
    assert_recovers("kill-tcp", rt);
}

#[test]
fn resilient_recovers_from_killed_worker_shm() {
    let mut rt = net_cfg(NetTransport::Shm);
    rt.faults = FaultPlan::proc_kill(0, 1, FAULT_PHASE);
    assert_recovers("kill-shm", rt);
}

/// A stall (process alive, compute+comm descheduled) is invisible to
/// EOF-based detection — only the heartbeat timeout catches it. The
/// stalled worker sleeps well past the timeout, the detector classifies
/// it, the attempt aborts, and recovery proceeds exactly as for a crash.
#[test]
fn resilient_recovers_from_stalled_worker() {
    let mut rt = net_cfg(NetTransport::Tcp);
    rt.faults = FaultPlan::proc_stall(55, 1, FAULT_PHASE, 4_000);
    assert_recovers("stall", rt);
}

/// Sequential mode gains checkpoints but can't fail: one attempt, no
/// resume, curve identical to the plain runner.
#[test]
fn resilient_sequential_matches_plain_run() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dist, cfg) = fixture();
    let rec = recovery_cfg("seq");
    let run = run_resilient(
        &dist,
        &flu_model(),
        &cfg,
        &RuntimeConfig::sequential(4),
        &rec,
    )
    .expect("sequential run cannot fail");
    assert_eq!(run.attempts, 1);
    assert_eq!(run.resumed_from, None);
    assert_eq!(run.curve.hash(), seq_baseline(&dist, &cfg).hash());
    // Checkpoints were actually written (daily cadence, keep = 2).
    let shards = std::fs::read_dir(&rec.dir)
        .expect("store dir exists")
        .count();
    assert!(shards >= 2, "expected retained epoch shards, got {shards}");
    let _ = std::fs::remove_dir_all(&rec.dir);
}

/// With retries exhausted the driver must return a typed error — never
/// hang, never loop forever.
#[test]
fn resilient_exhausted_returns_typed_error() {
    let on_root = chare_rt::worker_target().is_none();
    let _guard = on_root.then(|| ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner()));
    let (dist, cfg) = fixture();
    let mut rt = net_cfg(NetTransport::Tcp);
    rt.faults = FaultPlan::proc_kill(0, 1, FAULT_PHASE);
    let mut rec = recovery_cfg("exhausted");
    rec.max_retries = 0;
    let err = run_resilient(&dist, &flu_model(), &cfg, &rt, &rec)
        .expect_err("zero retries must surface the failure");
    match err {
        RecoveryError::Exhausted { attempts, ref last } => {
            assert_eq!(attempts, 1);
            assert!(!last.is_empty(), "last error must describe the failure");
        }
        other => panic!("expected Exhausted, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&rec.dir);
}

/// The fail-fast contract is untouched when recovery is not in play: a
/// plain (non-resilient) net run that loses a worker still aborts with
/// the typed transport error instead of hanging or mis-reporting.
#[test]
fn plain_net_run_still_fails_fast_without_recovery() {
    let on_root = chare_rt::worker_target().is_none();
    let _guard = on_root.then(|| ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner()));
    let (dist, cfg) = fixture();
    let mut rt = net_cfg(NetTransport::Tcp);
    rt.faults = FaultPlan::proc_kill(0, 1, FAULT_PHASE);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Simulator::new(&dist, flu_model(), cfg, rt).run()
    }))
    .expect_err("losing a worker must not look like success");
    assert!(
        err.downcast_ref::<TransportError>().is_some(),
        "panic payload must stay a typed TransportError"
    );
}
