//! The worker pool: OS threads that lease jobs from the
//! [`Manager`], take the job's world from the [`WorldCache`], and drive
//! the engines through the day-boundary lifecycle hooks
//! ([`Simulator::run_days_observed`]).
//!
//! A worker is a pure consumer of the lease protocol:
//!
//! * per-day curve points stream out via [`Manager::day_finished`];
//! * a pending pause turns into `dismantle → capture → Checkpoint::save`
//!   (a one-rank recovery epoch) and [`Manager::finish_paused`];
//! * a resumed lease goes through [`Simulator::resume_from`] — the
//!   validated entry point a crash recovery also rebuilds through — so a
//!   corrupt or mismatched checkpoint fails the job with a typed
//!   [`chare_rt::RecoveryError`] message instead of crashing the worker;
//! * cancel is the cooperative day-boundary stop ([`DayControl::Stop`]).
//!
//! Panics inside a job (engine bugs, bad downcasts) are caught per-lease
//! and turn into `Failed` transitions; the worker thread survives.

use crate::job::{EngineSel, JobSpec, ScenarioSource};
use crate::manager::{ctl, Lease, Manager};
use crate::worlds::{WorldCache, WorldSpec};
use episim_core::{
    CowWorld, DataDistribution, DayControl, EngineChoice, EnsembleSpec, ResultStore, RunHalt,
    SimConfig, Simulator,
};
use ptts::dsl::Scenario;
use ptts::intervention::InterventionSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Pool sizing.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker threads (each runs at most one job at a time).
    pub workers: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { workers: 4 }
    }
}

/// Handle over the spawned worker threads.
pub struct Pool {
    handles: Vec<JoinHandle<()>>,
}

/// Spawn `cfg.workers` lease-loop threads against `manager`, all taking
/// their worlds from `worlds`.
pub(crate) fn spawn(manager: Arc<Manager>, worlds: Arc<WorldCache>, cfg: PoolConfig) -> Pool {
    let handles = (0..cfg.workers.max(1))
        .map(|i| {
            let mgr = Arc::clone(&manager);
            let worlds = Arc::clone(&worlds);
            std::thread::Builder::new()
                .name(format!("episerve-worker-{i}"))
                .spawn(move || worker_loop(&mgr, &worlds))
                .unwrap_or_else(|e| panic!("spawn worker {i}: {e}"))
        })
        .collect();
    Pool { handles }
}

impl Pool {
    /// Wait for every worker to drain (they exit once the manager is
    /// shut down and the queue is empty).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(mgr: &Manager, worlds: &WorldCache) {
    while let Some(lease) = mgr.lease() {
        let job = lease.job;
        let outcome = catch_unwind(AssertUnwindSafe(|| run_lease(mgr, worlds, &lease)));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "worker panicked".to_string());
            mgr.finish_failed(job, format!("panic: {msg}"));
        }
    }
}

/// Resolve the effective simulation config from spec + scenario, with
/// the same defaults `SimConfig::default()` documents.
fn effective_config(spec: &JobSpec, scenario: &Scenario) -> SimConfig {
    let defaults = SimConfig::default();
    SimConfig {
        days: spec.days.or(scenario.sim.days).unwrap_or(defaults.days),
        r: scenario.sim.r.unwrap_or(defaults.r),
        seed: spec.seed.or(scenario.sim.seed).unwrap_or(defaults.seed),
        initial_infections: scenario
            .sim
            .initial_infections
            .unwrap_or(defaults.initial_infections),
        interventions: InterventionSet::new(scenario.interventions.clone()),
        stop_when_extinct: true,
    }
}

/// The engine a single-curve job runs on; `None` for ensemble sweeps.
fn engine_choice(engine: EngineSel) -> Option<EngineChoice> {
    match engine {
        EngineSel::Seq => Some(EngineChoice::Seq),
        EngineSel::Threads => Some(EngineChoice::Threads),
        EngineSel::Vt => Some(EngineChoice::Vt),
        // In-server net jobs run with one process, i.e. on the sequential
        // engine: the SPMD launcher re-execs the current binary, which
        // must never fork extra servers.
        EngineSel::Net => Some(EngineChoice::Net),
        EngineSel::Ensemble => None,
    }
}

/// A sweep job's ensemble over `dist`; `None` when the source is not a
/// sweep.
fn sweep(
    source: &ScenarioSource,
    scenario: &Scenario,
    cfg: &SimConfig,
    dist: &DataDistribution,
) -> Option<ResultStore> {
    let ScenarioSource::Sweep {
        r_values,
        replicates,
        workers,
        ..
    } = source
    else {
        return None;
    };
    let world = CowWorld::build(dist, scenario.ptts.clone());
    let grid = EnsembleSpec::grid(cfg, r_values, *replicates);
    Some(episim_core::run_sweep(&world, &grid, *workers))
}

/// Run a spec's *uninterrupted twin* in-process and return its curve
/// hash (for an ensemble sweep, its `ResultStore` hash): exactly the
/// world-building and engine selection a pool worker performs, minus the
/// service machinery and minus the world cache. It builds its world
/// through [`WorldSpec::build`] every time, so it stays independent of
/// anything a server has kept; the demo and the lifecycle tests compare
/// server completion events against it — the service-ification
/// determinism check.
pub fn reference_hash(spec: &JobSpec) -> Result<u64, String> {
    let scenario: Scenario = spec
        .source
        .dsl()
        .parse()
        .map_err(|e| format!("scenario DSL does not parse: {e}"))?;
    let cfg = effective_config(spec, &scenario);
    let dist = WorldSpec::of(spec, cfg.seed).build();
    let Some(choice) = engine_choice(spec.engine) else {
        return sweep(&spec.source, &scenario, &cfg, &dist)
            .map(|store| store.hash())
            .ok_or_else(|| "ensemble job without a sweep source".to_string());
    };
    let rt_cfg = choice.runtime_config(spec.hints.n_pes, 1);
    Ok(Simulator::run_curve(&dist, scenario.ptts.clone(), cfg, rt_cfg).hash())
}

fn run_lease(mgr: &Manager, worlds: &WorldCache, lease: &Lease) {
    let job = lease.job;
    let scenario: Scenario = match lease.spec.source.dsl().parse() {
        Ok(s) => s,
        Err(e) => {
            mgr.finish_failed(job, format!("scenario DSL does not parse: {e}"));
            return;
        }
    };
    let cfg = effective_config(&lease.spec, &scenario);
    let dist = worlds.get(&WorldSpec::of(&lease.spec, cfg.seed));

    match engine_choice(lease.spec.engine) {
        None => run_ensemble_lease(mgr, lease, &scenario, &cfg, &dist),
        Some(choice) => run_engine_lease(mgr, lease, choice, &scenario, cfg, &dist),
    }
}

/// Ensemble sweeps are atomic: one `run_sweep` call, cancel honored only
/// before the sweep starts, terminal summary carries the
/// [`episim_core::ResultStore`] hash as its `curve_hash`.
fn run_ensemble_lease(
    mgr: &Manager,
    lease: &Lease,
    scenario: &Scenario,
    cfg: &SimConfig,
    dist: &DataDistribution,
) {
    let job = lease.job;
    if lease.flag.load(Ordering::Acquire) == ctl::CANCEL {
        mgr.finish_cancelled(job);
        return;
    }
    let Some(store) = sweep(&lease.spec.source, scenario, cfg, dist) else {
        mgr.finish_failed(job, "ensemble job without a sweep source".into());
        return;
    };
    mgr.note_seeds(job, cfg.initial_infections as u64);
    let members = (store.n_points() * store.n_seeds()) as u32;
    mgr.finish_sweep_completed(job, members, store.hash());
}

fn run_engine_lease(
    mgr: &Manager,
    lease: &Lease,
    choice: EngineChoice,
    scenario: &Scenario,
    cfg: SimConfig,
    dist: &DataDistribution,
) {
    let job = lease.job;
    let rt_cfg = choice.runtime_config(lease.spec.hints.n_pes, 1);
    let end = cfg.days;

    // Fresh start or checkpoint resume through the validated entry.
    let (mut sim, mut carry, start, seeds) = match &lease.checkpoint {
        Some(path) => {
            match Simulator::resume_from(path, dist, scenario.ptts.clone(), cfg.clone(), rt_cfg) {
                Ok(resumed) => (resumed.sim, resumed.carry, resumed.next_day, resumed.seeds),
                Err(e) => {
                    mgr.finish_failed(job, format!("resume refused: {e}"));
                    return;
                }
            }
        }
        None => {
            let seeds = cfg.initial_infections.min(dist.pop.n_people()) as u64;
            let carry = episim_core::simulator::Carry::new(cfg.interventions.clone(), seeds);
            let sim = Simulator::new(dist, scenario.ptts.clone(), cfg.clone(), rt_cfg);
            (sim, carry, 0, seeds)
        }
    };
    mgr.note_seeds(job, seeds);

    let flag = Arc::clone(&lease.flag);
    let throttle = lease.spec.hints.throttle_ms;
    let (_days, _perf, halt) = sim.run_days_observed(start, end, &mut carry, &mut |stats| {
        mgr.day_finished(job, stats);
        if throttle > 0 {
            // Pacing only — outside the simulation step, so the curve
            // (and its hash) is identical with or without it.
            std::thread::sleep(std::time::Duration::from_millis(throttle as u64));
        }
        match flag.load(Ordering::Acquire) {
            ctl::PAUSE => DayControl::Pause,
            ctl::CANCEL => DayControl::Stop,
            _ => DayControl::Continue,
        }
    });

    match halt {
        RunHalt::Finished { .. } => mgr.finish_completed(job),
        RunHalt::Stopped { .. } => mgr.finish_cancelled(job),
        RunHalt::Paused { next_day } => {
            let (states, _features) = sim.dismantle();
            let ckpt = episim_core::checkpoint::capture(next_day, seeds, &carry, states);
            let path = mgr.data_dir().join(format!("job-{job}.ckpt"));
            match ckpt.save(&path) {
                Ok(()) => mgr.finish_paused(job, path),
                Err(e) => mgr.finish_failed(job, format!("checkpoint save failed: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use crate::worlds::WORLD_CACHE_BUDGET;
    use episim_core::Strategy;

    /// The world a lease for `spec` asks the cache for.
    fn key_of(spec: &JobSpec) -> WorldSpec {
        let scenario: Scenario = spec.source.dsl().parse().expect("scenario parses");
        WorldSpec::of(spec, effective_config(spec, &scenario).seed)
    }

    /// Changing any input of the world is a miss; changing anything else a
    /// job carries is a hit on the world already built.
    #[test]
    fn world_key_is_exactly_the_world_inputs() {
        let dsl =
            |r: f64, seed: u64| format!("{}\nsim days=5 r={r} seed={seed}\n", ptts::dsl::FLU_DSL);
        let mut base = JobSpec::dsl("key", &dsl(3e-4, 11), EngineSel::Seq);
        base.hints.pop_size = 60;
        base.hints.n_partitions = 2;
        let variant = |change: &dyn Fn(&mut JobSpec)| {
            let mut spec = base.clone();
            change(&mut spec);
            spec
        };
        let cache = WorldCache::new(WORLD_CACHE_BUDGET);
        cache.get(&key_of(&base));

        let same_world = [
            ("days", variant(&|s| s.days = Some(9))),
            (
                "DSL r",
                variant(&|s| s.source = ScenarioSource::Dsl(dsl(9e-4, 11))),
            ),
            ("engine", variant(&|s| s.engine = EngineSel::Vt)),
            ("priority", variant(&|s| s.priority = Priority::High)),
            ("throttle", variant(&|s| s.hints.throttle_ms = 20)),
            ("PEs", variant(&|s| s.hints.n_pes = 4)),
            (
                "sweep over the same world",
                variant(&|s| {
                    s.engine = EngineSel::Ensemble;
                    s.source = ScenarioSource::Sweep {
                        dsl: dsl(3e-4, 11),
                        r_values: vec![1e-4],
                        replicates: 1,
                        workers: 1,
                    };
                }),
            ),
        ];
        for (what, spec) in &same_world {
            cache.get(&key_of(spec));
            assert_eq!(cache.stats().misses, 1, "changing {what} rebuilt the world");
        }

        let other_worlds = [
            ("name", variant(&|s| s.name = "other".into())),
            ("pop_size", variant(&|s| s.hints.pop_size = 61)),
            ("pop_seed", variant(&|s| s.hints.pop_seed += 1)),
            ("n_partitions", variant(&|s| s.hints.n_partitions = 3)),
            ("seed override", variant(&|s| s.seed = Some(12))),
            (
                "DSL seed",
                variant(&|s| s.source = ScenarioSource::Dsl(dsl(3e-4, 13))),
            ),
        ];
        for (i, (what, spec)) in other_worlds.iter().enumerate() {
            cache.get(&key_of(spec));
            assert_eq!(
                cache.stats().misses,
                2 + i as u64,
                "changing {what} reused a world"
            );
        }
        let mut round_robin = key_of(&base);
        round_robin.strategy = Strategy::RoundRobin;
        cache.get(&round_robin);
        let st = cache.stats();
        assert_eq!(st.misses, 2 + other_worlds.len() as u64, "strategy");
        assert_eq!(st.hits, same_world.len() as u64);
    }
}
