//! Crash-tolerant simulation driver: coordinated checkpointing and
//! rollback recovery on top of [`crate::simulator::Simulator`].
//!
//! The net engine's failure contract is fail-fast: any peer loss (socket
//! EOF, write error, heartbeat timeout, mesh partition) surfaces on the
//! root as a typed [`chare_rt::TransportError`] panic while workers exit
//! with [`chare_rt::TRANSPORT_EXIT`]. This module turns that contract
//! into availability:
//!
//! * **Checkpoint.** Every `every` days — a global quiescence point, no
//!   messages in flight — each rank writes its shard of the simulation
//!   state (its PersonManager blobs plus a rank-identical meta record,
//!   [`crate::checkpoint::encode_meta`]: resume day, carry counters,
//!   intervention state, and the curve so far) into a shared
//!   [`EpochStore`]. An epoch counts as *committed* only once every
//!   rank's shard exists and CRC-validates, so a crash mid-checkpoint
//!   disqualifies the partial epoch harmlessly.
//! * **Detect.** The heartbeat detector in `net::comm` classifies the
//!   loss (crashed / stalled / partitioned) and aborts the attempt.
//! * **Recover.** The root catches the [`chare_rt::TransportError`]
//!   panic, reaps the surviving workers (engine teardown), sleeps a
//!   jittered exponential [`Backoff`], and relaunches the whole mesh
//!   from the last committed epoch via the ordinary SPMD re-exec path.
//!   Fault-injection knobs are stripped on retries so an injected crash
//!   fires exactly once. After `max_retries` failed respawns the driver
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
    RecoverySnapshot, RuntimeConfig, TransportError,
};
use ptts::Ptts;

use crate::checkpoint::{capture, decode_meta, decode_person_shard, encode_meta, Checkpoint};
use crate::distribution::DataDistribution;
use crate::output::{DayStats, EpiCurve};
use crate::person::PersonSlot;
use crate::simulator::{Carry, DayPerf, SimConfig, Simulator};

/// Env var naming the shared checkpoint directory. Exported by the root
/// before spawning workers so every rank of an attempt opens the same
/// [`EpochStore`] (the root's configured directory, not whatever the
/// worker's own config would default to).
pub const ENV_RECOVERY_DIR: &str = "EPISIM_NET_RECOVERY_DIR";
/// Env var carrying the epoch a respawned attempt must resume from.
/// Absent on the first attempt (fresh start).
pub const ENV_RESUME_EPOCH: &str = "EPISIM_NET_RESUME_EPOCH";

/// Knobs for [`run_resilient`].
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Checkpoint directory, shared by every rank (same filesystem).
    pub dir: PathBuf,
    /// Committed epochs retained on disk (older ones are pruned).
    pub keep: u32,
    /// Checkpoint cadence in days (`1` = after every day).
    pub every: u32,
    /// Respawn attempts after the initial run before giving up.
    pub max_retries: u32,
    /// Base delay of the jittered exponential backoff between respawns.
    pub backoff_base_ms: u64,
    /// Cap on the backoff delay.
    pub backoff_cap_ms: u64,
}

impl RecoveryConfig {
    /// Defaults tuned for the conformance suite: keep 2 epochs,
    /// checkpoint daily, 3 respawns, 50ms..2s backoff.
    pub fn new(dir: impl Into<PathBuf>) -> RecoveryConfig {
        RecoveryConfig {
            dir: dir.into(),
            keep: 2,
            every: 1,
            max_retries: 3,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
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

/// Reassemble a committed epoch: the meta record (a checkpoint whose
/// person table is rebuilt, indexed by person id, from every rank's
/// shards) and the curve so far.
fn restore(
    store: &EpochStore,
    epoch: u64,
    n_ranks: u32,
    n_people: usize,
) -> Result<(Checkpoint, Vec<DayStats>), RecoveryError> {
    let shards = store.load_epoch(epoch, n_ranks)?;
    let meta_blob = shards
        .first()
        .map(|s| s.meta.clone())
        .ok_or_else(|| RecoveryError::ShardMismatch("epoch has no shards".into()))?;
    let (mut ckpt, days) = decode_meta(&meta_blob)?;
    let mut persons: Vec<Option<PersonSlot>> = Vec::new();
    persons.resize_with(n_people, || None);
    for shard in &shards {
        if shard.meta != meta_blob {
            return Err(RecoveryError::ShardMismatch(format!(
                "rank {} meta record diverges from rank 0 (lockstep violated)",
                shard.rank
            )));
        }
        for (_, blob) in &shard.chares {
            for s in decode_person_shard(blob)? {
                match persons.get_mut(s.id as usize) {
                    Some(slot) => *slot = Some(s),
                    None => {
                        return Err(RecoveryError::ShardMismatch(format!(
                            "person id {} out of range ({} people)",
                            s.id, n_people
                        )))
                    }
                }
            }
        }
    }
    ckpt.states = persons
        .into_iter()
        .enumerate()
        .map(|(id, p)| {
            p.ok_or_else(|| {
                RecoveryError::ShardMismatch(format!("person {id} missing from epoch {epoch}"))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((ckpt, days))
}

/// One mesh launch: construct (fresh or from `resume`), run day by day,
/// checkpointing at the configured cadence. Workers exit inside the
/// engine teardown when the run (or their process) ends; only the root
/// returns. A [`chare_rt::TransportError`] panic out of this function is
/// the failure signal [`run_resilient`] recovers from.
fn run_attempt(
    dist: &DataDistribution,
    ptts: Ptts,
    cfg: &SimConfig,
    rt_cfg: &RuntimeConfig,
    rec: &RecoveryConfig,
    store: &EpochStore,
    resume: Option<u64>,
) -> Result<(EpiCurve, Vec<DayPerf>), RecoveryError> {
    let n_ranks = n_ranks_of(rt_cfg);
    let population = dist.pop.n_people() as u64;
    let n_people = population as usize;
    let every = rec.every.max(1);

    let (mut carry, mut day, mut days, seeds, states) = match resume {
        Some(epoch) => {
            let (ckpt, days) = restore(store, epoch, n_ranks, n_people)?;
            let carry = ckpt.to_carry(&cfg.interventions);
            (carry, ckpt.next_day, days, ckpt.seeds, Some(ckpt.states))
        }
        None => {
            let seeds = cfg.initial_infections.min(dist.pop.n_people()) as u64;
            let carry = Carry::new(cfg.interventions.clone(), seeds);
            (carry, 0u32, Vec::new(), seeds, None)
        }
    };

    let mut sim = Simulator::with_states(dist, ptts, cfg.clone(), *rt_cfg, states);
    if resume.is_some() {
        sim.note_restore();
    }

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
        // extinction decision below is taken in lockstep — so every rank
        // reaches this checkpoint (or none does).
        if day % every == 0 || day == cfg.days || extinct {
            let snap = RecoverySnapshot {
                epoch: day as u64,
                next_phase: day as u64 * 2 + 1,
                rank: sim.net_rank(),
                n_ranks,
                in_flight: 0,
                meta: encode_meta(&capture(day, seeds, &carry, Vec::new()), &days),
                chares: sim.snapshot_chares(),
            };
            store.commit_shard(&snap)?;
            sim.note_checkpoint();
            if sim.net_rank() == 0 {
                store.retain(n_ranks);
            }
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
        let store = EpochStore::open(&dir, rec.keep)?;
        let (curve, perf) = run_attempt(dist, ptts.clone(), cfg, rt_cfg, rec, &store, resume)?;
        return Ok(ResilientRun {
            curve,
            perf,
            attempts: 1,
            resumed_from: resume,
        });
    }

    // Root (or one-process) run: own the retry loop.
    let store = EpochStore::open(&rec.dir, rec.keep)?;
    std::env::set_var(ENV_RECOVERY_DIR, abs_dir(&rec.dir));
    let n_ranks = n_ranks_of(rt_cfg);
    let mut backoff = Backoff::new(rec.backoff_base_ms, rec.backoff_cap_ms, cfg.seed);
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
            run_attempt(dist, ptts.clone(), cfg, &rt, rec, &store, resume)
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
                        rt.net.kill_rank = u32::MAX;
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
