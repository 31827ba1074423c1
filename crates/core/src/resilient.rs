//! Crash-tolerant simulation driver: coordinated checkpointing and
//! rollback recovery on top of [`crate::simulator::Simulator`].
//!
//! The net engine's failure contract is fail-fast: any peer loss (socket
//! EOF, write error, heartbeat timeout, mesh partition) surfaces on the
//! root as a typed [`chare_rt::TransportError`] panic while workers exit
//! with [`chare_rt::TRANSPORT_EXIT`]. This module turns that contract
//! into availability:
//!
//! * **Checkpoint.** After every day — a global quiescence point, no
//!   messages in flight — each rank writes its shard of the simulation
//!   state ([`Checkpoint::shard`]: its PersonManager blobs plus a
//!   rank-identical meta record holding the resume day, carry counters,
//!   intervention state, and the curve so far) into a shared
//!   [`EpochStore`]. An epoch counts as *committed* only once every
//!   rank's shard exists and CRC-validates, so a crash mid-checkpoint
//!   disqualifies the partial epoch harmlessly.
//! * **Detect.** The heartbeat detector in `net::comm` classifies the
//!   loss (crashed / stalled / partitioned) and aborts the attempt.
//! * **Recover.** The root catches the [`chare_rt::TransportError`]
//!   panic, reaps the surviving workers (engine teardown), sleeps a
//!   jittered exponential [`Backoff`], and relaunches the whole mesh
//!   from the last committed epoch via the ordinary SPMD re-exec path,
//!   which every rank rebuilds as a paused run is rebuilt:
//!   [`Checkpoint::from_shards`], then [`Simulator::resume`].
//!   Process faults are stripped on retries so an injected crash fires
//!   exactly once. After `max_retries` failed respawns the driver
//!   returns [`RecoveryError::Exhausted`] instead of hanging.
//!
//! Workers never iterate the retry loop themselves: each spawned worker
//! joins exactly the attempt it was spawned for
//! ([`chare_rt::align_to_invocation`]) and learns the resume epoch from
//! environment variables the root exports before spawning. Because the
//! meta record is assembled from broadcast phase reductions it is
//! bit-identical on every rank, and because person shards carry explicit
//! person ids the full state table can be reassembled on any rank — the
//! restored run is therefore bit-identical to an undisturbed one (the
//! conformance suite checks the curve hash).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use chare_rt::{
    align_to_invocation, worker_target, Backoff, EpochStore, ExecMode, RecoveryError,
    RuntimeConfig, TransportError,
};
use ptts::Ptts;

use crate::checkpoint::{capture, Checkpoint};
use crate::distribution::DataDistribution;
use crate::output::EpiCurve;
use crate::simulator::{Carry, DayPerf, SimConfig, Simulator};

/// Env var naming the shared checkpoint directory. Exported by the root
/// before spawning workers so every rank of an attempt opens the same
/// [`EpochStore`] (the root's configured directory, not whatever the
/// worker's own config would default to).
pub const ENV_RECOVERY_DIR: &str = "EPISIM_NET_RECOVERY_DIR";
/// Env var carrying the epoch a respawned attempt must resume from.
/// Absent on the first attempt (fresh start).
pub const ENV_RESUME_EPOCH: &str = "EPISIM_NET_RESUME_EPOCH";

/// Committed epochs retained on disk (older ones are pruned).
pub const KEEP_EPOCHS: u32 = 2;
/// Base delay of the jittered exponential backoff between respawns.
const BACKOFF_BASE_MS: u64 = 50;
/// Cap on the backoff delay.
const BACKOFF_CAP_MS: u64 = 2_000;

/// Knobs for [`run_resilient`].
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Checkpoint directory, shared by every rank (same filesystem).
    pub dir: PathBuf,
    /// Respawn attempts after the initial run before giving up.
    pub max_retries: u32,
}

impl RecoveryConfig {
    /// Three respawns in `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> RecoveryConfig {
        RecoveryConfig {
            dir: dir.into(),
            max_retries: 3,
        }
    }
}

/// Outcome of a resilient run.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// The epidemic curve — bit-identical to an undisturbed run.
    pub curve: EpiCurve,
    /// Per-day phase timings of the *surviving* attempt only (days
    /// replayed from a checkpoint restore are not re-timed).
    pub perf: Vec<DayPerf>,
    /// Total attempts launched (1 = no failure).
    pub attempts: u32,
    /// Epoch the surviving attempt resumed from (`None` = fresh start).
    pub resumed_from: Option<u64>,
}

fn n_ranks_of(rt_cfg: &RuntimeConfig) -> u32 {
    if rt_cfg.mode == ExecMode::Net {
        rt_cfg.net.n_procs.max(1)
    } else {
        1
    }
}

/// One mesh launch: construct (fresh or from `resume`), run day by day,
/// checkpointing after every day. Workers exit inside the
/// engine teardown when the run (or their process) ends; only the root
/// returns. A [`chare_rt::TransportError`] panic out of this function is
/// the failure signal [`run_resilient`] recovers from.
fn run_attempt(
    dist: &DataDistribution,
    ptts: Ptts,
    cfg: &SimConfig,
    rt_cfg: &RuntimeConfig,
    store: &EpochStore,
    resume: Option<u64>,
) -> Result<(EpiCurve, Vec<DayPerf>), RecoveryError> {
    let n_ranks = n_ranks_of(rt_cfg);
    let population = dist.pop.n_people() as u64;

    let (mut sim, mut carry, mut day, mut days, seeds) = match resume {
        Some(epoch) => {
            let (ckpt, days) = Checkpoint::from_shards(&store.load_epoch(epoch, n_ranks)?)?;
            let mut r = Simulator::resume(ckpt, dist, ptts, cfg.clone(), *rt_cfg)?;
            r.sim.note_restore();
            (r.sim, r.carry, r.next_day, days, r.seeds)
        }
        None => {
            let seeds = cfg.initial_infections.min(dist.pop.n_people()) as u64;
            let carry = Carry::new(cfg.interventions.clone(), seeds);
            let sim = Simulator::new(dist, ptts, cfg.clone(), *rt_cfg);
            (sim, carry, 0u32, Vec::new(), seeds)
        }
    };

    let mut perf: Vec<DayPerf> = Vec::new();
    let mut extinct = false;
    while day < cfg.days && !extinct {
        let (mut d, mut p, ext) = sim.run_days(day, day + 1, &mut carry);
        days.append(&mut d);
        perf.append(&mut p);
        extinct = ext;
        day += 1;
        // Day boundaries are global quiescence points: every rank saw the
        // same broadcast reduction, no messages are in flight, and the
        // extinction decision above is taken in lockstep — so every rank
        // reaches this checkpoint (or none does).
        let head = capture(day, seeds, &carry, Vec::new());
        store.commit_shard(&head.shard(sim.net_rank(), n_ranks, &days, sim.snapshot_chares()))?;
        sim.note_checkpoint();
        if sim.net_rank() == 0 {
            store.retain(n_ranks);
        }
    }

    let curve = EpiCurve {
        population,
        seeds,
        days,
    };
    Ok((curve, perf))
}

fn clear_env() {
    std::env::remove_var(ENV_RECOVERY_DIR);
    std::env::remove_var(ENV_RESUME_EPOCH);
}

/// Run the simulation with automatic crash recovery.
///
/// Equivalent to `Simulator::new(..).run_curve()` when nothing fails,
/// but a mesh failure mid-run (worker crash, stall, or partition —
/// injected or real) rolls the run back to the last committed epoch and
/// relaunches instead of aborting. Works in every [`ExecMode`]; only
/// `Net` can actually experience transport failures, the others simply
/// gain periodic checkpoints.
pub fn run_resilient(
    dist: &DataDistribution,
    ptts: &Ptts,
    cfg: &SimConfig,
    rt_cfg: &RuntimeConfig,
    rec: &RecoveryConfig,
) -> Result<ResilientRun, RecoveryError> {
    if let Some(target) = worker_target() {
        // Worker process: join exactly the attempt we were spawned for and
        // read the resume point the root exported before spawning us. The
        // process exits inside the engine teardown (or the fault-injection
        // kill), so control normally never returns here.
        align_to_invocation(target);
        let dir = std::env::var(ENV_RECOVERY_DIR)
            .map(PathBuf::from)
            .unwrap_or_else(|_| rec.dir.clone());
        let resume = std::env::var(ENV_RESUME_EPOCH)
            .ok()
            .and_then(|v| v.parse::<u64>().ok());
        let store = EpochStore::open(&dir, KEEP_EPOCHS)?;
        let (curve, perf) = run_attempt(dist, ptts.clone(), cfg, rt_cfg, &store, resume)?;
        return Ok(ResilientRun {
            curve,
            perf,
            attempts: 1,
            resumed_from: resume,
        });
    }

    // Root (or one-process) run: own the retry loop.
    let store = EpochStore::open(&rec.dir, KEEP_EPOCHS)?;
    std::env::set_var(ENV_RECOVERY_DIR, abs_dir(&rec.dir));
    let n_ranks = n_ranks_of(rt_cfg);
    let mut backoff = Backoff::new(BACKOFF_BASE_MS, BACKOFF_CAP_MS, cfg.seed);
    let mut rt = *rt_cfg;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let resume = store.latest_committed(n_ranks);
        match resume {
            Some(epoch) => std::env::set_var(ENV_RESUME_EPOCH, epoch.to_string()),
            None => std::env::remove_var(ENV_RESUME_EPOCH),
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_attempt(dist, ptts.clone(), cfg, &rt, &store, resume)
        }));
        match outcome {
            Ok(Ok((curve, perf))) => {
                clear_env();
                return Ok(ResilientRun {
                    curve,
                    perf,
                    attempts,
                    resumed_from: resume,
                });
            }
            Ok(Err(e)) => {
                // Recovery-store I/O or corruption: not a transport crash,
                // retrying the mesh will not help.
                clear_env();
                return Err(e);
            }
            Err(payload) => {
                let transport = payload
                    .downcast_ref::<TransportError>()
                    .map(|t| t.0.clone());
                match transport {
                    Some(last) => {
                        eprintln!(
                            "[net recovery] attempt {attempts} failed: {last}; \
                             last committed epoch: {resume:?}"
                        );
                        if attempts > rec.max_retries {
                            clear_env();
                            return Err(RecoveryError::Exhausted { attempts, last });
                        }
                        // An injected fault has fired by now; do not
                        // re-inject it into the respawned mesh.
                        rt.faults = rt.faults.without_proc_faults();
                        backoff.sleep(attempts - 1);
                    }
                    // Anything other than the engine's typed transport
                    // failure is a genuine bug: propagate it.
                    None => resume_unwind(payload),
                }
            }
        }
    }
}

/// Workers may run with a different CWD than the root; export an
/// absolute path so the shared store resolves identically everywhere.
fn abs_dir(dir: &Path) -> PathBuf {
    std::env::current_dir()
        .map(|cwd| cwd.join(dir))
        .unwrap_or_else(|_| dir.to_path_buf())
}
