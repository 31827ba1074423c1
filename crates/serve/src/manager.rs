//! The job manager: registry, scheduler queue, per-job topics, the
//! transition log, and the lease protocol the worker pool drives.
//!
//! All mutable state lives behind one mutex ([`ManagerState`]); topic
//! publishes happen *while holding it*, which gives subscribers a crisp
//! guarantee: the replay a new subscription receives plus the live events
//! after it are exactly the job's event sequence — no gap, no duplicate
//! (lock order is always manager → topic, never the reverse).
//!
//! Every state change goes through [`JobState::can_transition`] and is
//! appended to `transitions.log` in the data dir as
//! `"<seq> job=<id> <from> -> <to>"` — `seq` is a process-monotonic
//! counter, not a wall-clock timestamp, keeping the control plane inside
//! the repo's determinism rules (simlint R2).
//!
//! The job table is bounded: at most [`RETAINED_TERMINAL_JOBS`] finished
//! jobs (completed, failed or cancelled) keep their record and topic, and
//! the one that finished longest ago is forgotten first. Queued, running
//! and paused jobs are never forgotten; `transitions.log` keeps the whole
//! history.

use crate::job::{EngineSel, JobId, JobSpec, JobState};
use crate::protocol::Event;
use crate::pubsub::{Subscription, Topic};
use crate::queue::JobQueue;
use episim_core::output::curve_hash;
use episim_core::DayStats;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Finished jobs whose record and topic the manager keeps (a few KB
/// each: spec, curve, terminal event); a request about an older one gets
/// `NoSuchJob`.
pub const RETAINED_TERMINAL_JOBS: usize = 256;

/// Control-flag values a running worker polls at each day boundary.
pub mod ctl {
    /// Keep simulating.
    pub const RUN: u8 = 0;
    /// Checkpoint and pause at the next day boundary.
    pub const PAUSE: u8 = 1;
    /// Cooperatively stop (cancel) at the next day boundary.
    pub const CANCEL: u8 = 2;
}

/// Per-engine concurrency caps for the worker pool: at most this many
/// jobs of each engine class run at once (the thread-hungry engines get
/// small caps so one job can't monopolize the host).
#[derive(Debug, Clone, Copy)]
pub struct EngineCaps {
    /// Sequential-engine jobs.
    pub seq: u32,
    /// Threaded-engine jobs.
    pub threads: u32,
    /// Virtual-time-engine jobs.
    pub vt: u32,
    /// One-process net-engine jobs (run on the sequential engine).
    pub net: u32,
    /// Ensemble sweeps (already internally parallel).
    pub ensemble: u32,
}

impl Default for EngineCaps {
    fn default() -> Self {
        EngineCaps {
            seq: 4,
            threads: 2,
            vt: 2,
            net: 2,
            ensemble: 1,
        }
    }
}

impl EngineCaps {
    /// The cap for one engine class.
    pub fn cap(&self, e: EngineSel) -> u32 {
        match e {
            EngineSel::Seq => self.seq,
            EngineSel::Threads => self.threads,
            EngineSel::Vt => self.vt,
            EngineSel::Net => self.net,
            EngineSel::Ensemble => self.ensemble,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// [`JobSpec::validate`] failed.
    Invalid(String),
    /// The scheduler queue is full.
    QueueFull,
    /// The server is shutting down.
    ShuttingDown,
}

/// Why a lifecycle request (pause/resume/cancel) was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LifecycleError {
    /// Unknown job id.
    NoSuchJob,
    /// The job's current state does not allow the request.
    BadTransition {
        /// The state the job was actually in.
        state: JobState,
    },
    /// The operation is structurally unsupported for this job.
    Unsupported(String),
    /// Resume refused: the queue is full (the job stays `Paused`).
    QueueFull,
    /// The server is shutting down.
    ShuttingDown,
}

/// Everything the manager tracks about one job.
#[derive(Debug)]
pub struct JobRecord {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// The curve so far (prefix across pauses; full curve at completion).
    pub days: Vec<DayStats>,
    /// FNV-1a hash of `days`, set at completion.
    pub curve_hash: Option<u64>,
    /// Failure message, set on `Failed`.
    pub error: Option<String>,
    /// Checkpoint file, set while `Paused`.
    pub checkpoint: Option<PathBuf>,
    /// Initial seeded infections (for completion summaries).
    pub seeds: u64,
    /// The terminal event as published, replayed verbatim to late
    /// subscribers (an ensemble summary's `days` is its member count,
    /// which `days.len()` cannot reconstruct).
    pub terminal: Option<Event>,
}

/// What a worker receives when it wins a job.
pub struct Lease {
    /// The job.
    pub job: JobId,
    /// Spec snapshot.
    pub spec: JobSpec,
    /// Present when this lease resumes a paused job.
    pub checkpoint: Option<PathBuf>,
    /// Control flag to poll at day boundaries (see [`ctl`]).
    pub flag: Arc<AtomicU8>,
}

struct ManagerState {
    jobs: BTreeMap<JobId, JobRecord>,
    topics: BTreeMap<JobId, Topic>,
    queue: JobQueue,
    flags: BTreeMap<JobId, Arc<AtomicU8>>,
    running: BTreeMap<u8, u32>,
    /// Terminal jobs still in `jobs`, in the order they finished.
    finished: VecDeque<JobId>,
    next_id: JobId,
    seq: u64,
    log: std::fs::File,
    shutdown: bool,
}

/// The control plane's shared core. Cheap to clone via `Arc`; the server
/// front-end and every pool worker hold one.
pub struct Manager {
    state: Mutex<ManagerState>,
    work_bell: Condvar,
    caps: EngineCaps,
    data_dir: PathBuf,
    topic_cap: usize,
}

impl Manager {
    /// Create a manager rooted at `data_dir` (created if absent; holds
    /// checkpoints and the transition log).
    pub fn new(
        data_dir: PathBuf,
        queue_cap: usize,
        topic_cap: usize,
        caps: EngineCaps,
    ) -> std::io::Result<Arc<Manager>> {
        std::fs::create_dir_all(&data_dir)?;
        let log = std::fs::File::create(data_dir.join("transitions.log"))?;
        Ok(Arc::new(Manager {
            state: Mutex::new(ManagerState {
                jobs: BTreeMap::new(),
                topics: BTreeMap::new(),
                queue: JobQueue::new(queue_cap),
                flags: BTreeMap::new(),
                running: BTreeMap::new(),
                finished: VecDeque::new(),
                next_id: 1,
                seq: 0,
                log,
                shutdown: false,
            }),
            work_bell: Condvar::new(),
            caps,
            data_dir,
            topic_cap,
        }))
    }

    fn lock_state(&self) -> MutexGuard<'_, ManagerState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    /// Validate, register, queue, and announce a new job.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        spec.validate().map_err(SubmitError::Invalid)?;
        let mut st = self.lock_state();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let id = st.next_id;
        st.queue
            .push(id, spec.priority)
            .map_err(|_| SubmitError::QueueFull)?;
        st.next_id += 1;
        st.jobs.insert(
            id,
            JobRecord {
                spec,
                state: JobState::Queued,
                days: Vec::new(),
                curve_hash: None,
                error: None,
                checkpoint: None,
                seeds: 0,
                terminal: None,
            },
        );
        st.topics.insert(id, Topic::new(id, self.topic_cap));
        log_line(&mut st, id, None, JobState::Queued);
        drop(st);
        self.work_bell.notify_all();
        Ok(id)
    }

    /// Request a checkpoint-pause. Only running engine jobs can pause;
    /// the transition lands at the next day boundary (watch the event
    /// stream for `State { Paused }`).
    pub fn pause(&self, job: JobId) -> Result<JobState, LifecycleError> {
        let st = self.lock_state();
        let rec = st.jobs.get(&job).ok_or(LifecycleError::NoSuchJob)?;
        if rec.spec.engine == EngineSel::Ensemble {
            return Err(LifecycleError::Unsupported(
                "ensemble sweeps run atomically and cannot pause".into(),
            ));
        }
        if rec.state != JobState::Running {
            return Err(LifecycleError::BadTransition { state: rec.state });
        }
        if let Some(flag) = st.flags.get(&job) {
            // Only arm the pause if nothing stronger (cancel) is pending.
            let _ =
                flag.compare_exchange(ctl::RUN, ctl::PAUSE, Ordering::AcqRel, Ordering::Acquire);
        }
        Ok(JobState::Running)
    }

    /// Re-enqueue a paused job; its next lease resumes from the
    /// checkpoint.
    pub fn resume(&self, job: JobId) -> Result<JobState, LifecycleError> {
        let mut st = self.lock_state();
        if st.shutdown {
            return Err(LifecycleError::ShuttingDown);
        }
        let rec = st.jobs.get(&job).ok_or(LifecycleError::NoSuchJob)?;
        if rec.state != JobState::Paused {
            return Err(LifecycleError::BadTransition { state: rec.state });
        }
        let priority = rec.spec.priority;
        st.queue
            .push(job, priority)
            .map_err(|_| LifecycleError::QueueFull)?;
        transition(&mut st, job, JobState::Queued);
        drop(st);
        self.work_bell.notify_all();
        Ok(JobState::Queued)
    }

    /// Cancel a job: dequeue it, discard its checkpoint, or (if running)
    /// arm the cooperative day-boundary stop.
    pub fn cancel(&self, job: JobId) -> Result<JobState, LifecycleError> {
        let mut st = self.lock_state();
        let rec = st.jobs.get(&job).ok_or(LifecycleError::NoSuchJob)?;
        match rec.state {
            JobState::Queued => {
                st.queue.remove(job);
                transition(&mut st, job, JobState::Cancelled);
                Ok(JobState::Cancelled)
            }
            JobState::Running => {
                if let Some(flag) = st.flags.get(&job) {
                    flag.store(ctl::CANCEL, Ordering::Release);
                }
                Ok(JobState::Running)
            }
            JobState::Paused => {
                if let Some(path) = st.jobs.get_mut(&job).and_then(|r| r.checkpoint.take()) {
                    let _ = std::fs::remove_file(path);
                }
                transition(&mut st, job, JobState::Cancelled);
                Ok(JobState::Cancelled)
            }
            state => Err(LifecycleError::BadTransition { state }),
        }
    }

    /// `(state, days simulated)` snapshot.
    pub fn status(&self, job: JobId) -> Option<(JobState, u32)> {
        let st = self.lock_state();
        st.jobs.get(&job).map(|r| (r.state, r.days.len() as u32))
    }

    /// Every job still retained, id-ascending.
    pub fn list(&self) -> Vec<(JobId, JobState)> {
        let st = self.lock_state();
        st.jobs.iter().map(|(&id, r)| (id, r.state)).collect()
    }

    /// The completion hash, once the job completed.
    pub fn curve_hash_of(&self, job: JobId) -> Option<u64> {
        self.lock_state().jobs.get(&job).and_then(|r| r.curve_hash)
    }

    /// Attach an event stream: replays the curve so far (and the terminal
    /// event, if the job already ended), then follows live.
    pub fn subscribe(&self, job: JobId) -> Option<Subscription> {
        let st = self.lock_state();
        let rec = st.jobs.get(&job)?;
        let topic = st.topics.get(&job)?.clone();
        let mut replay: Vec<Event> = rec
            .days
            .iter()
            .map(|d| Event::Day { job, stats: *d })
            .collect();
        if let Some(terminal) = rec.terminal.clone() {
            replay.push(terminal);
        }
        // Still under the manager lock: no publish can interleave between
        // building the replay and attaching the subscriber.
        Some(topic.subscribe(replay))
    }

    /// Stop accepting work: cancel every queued job, arm the cooperative
    /// stop on every running one, and wake lease waiters so pool workers
    /// drain and exit.
    pub fn shutdown(&self) {
        let mut st = self.lock_state();
        st.shutdown = true;
        while let Some(job) = st.queue.pop_where(|_| true) {
            transition(&mut st, job, JobState::Cancelled);
        }
        for (job, flag) in &st.flags {
            if st
                .jobs
                .get(job)
                .is_some_and(|r| r.state == JobState::Running)
            {
                flag.store(ctl::CANCEL, Ordering::Release);
            }
        }
        drop(st);
        self.work_bell.notify_all();
    }

    // -- pool-facing ------------------------------------------------------

    /// Block until a job is available under the engine caps (leasing it),
    /// or until shutdown with nothing left to lease (returning `None`).
    pub fn lease(&self) -> Option<Lease> {
        let mut st = self.lock_state();
        loop {
            let caps = self.caps;
            let picked = {
                let ManagerState {
                    queue,
                    jobs,
                    running,
                    ..
                } = &mut *st;
                queue.pop_where(|id| {
                    jobs.get(&id).is_some_and(|r| {
                        let code = r.spec.engine.code();
                        running.get(&code).copied().unwrap_or(0) < caps.cap(r.spec.engine)
                    })
                })
            };
            if let Some(job) = picked {
                transition(&mut st, job, JobState::Running);
                let rec = st.jobs.get_mut(&job)?;
                let spec = rec.spec.clone();
                let checkpoint = rec.checkpoint.take();
                let flag = Arc::new(AtomicU8::new(ctl::RUN));
                *st.running.entry(spec.engine.code()).or_insert(0) += 1;
                st.flags.insert(job, Arc::clone(&flag));
                return Some(Lease {
                    job,
                    spec,
                    checkpoint,
                    flag,
                });
            }
            if st.shutdown {
                return None;
            }
            st = match self.work_bell.wait(st) {
                Ok(g) => g,
                Err(poison) => poison.into_inner(),
            };
        }
    }

    /// One finished day from a running job: extend the recorded curve and
    /// stream it.
    pub fn day_finished(&self, job: JobId, stats: &DayStats) {
        let mut st = self.lock_state();
        if let Some(rec) = st.jobs.get_mut(&job) {
            rec.days.push(*stats);
        }
        if let Some(topic) = st.topics.get(&job) {
            topic.publish(Event::Day { job, stats: *stats });
        }
    }

    /// Record the seed count a fresh (non-resumed) run established.
    pub fn note_seeds(&self, job: JobId, seeds: u64) {
        let mut st = self.lock_state();
        if let Some(rec) = st.jobs.get_mut(&job) {
            if rec.seeds == 0 {
                rec.seeds = seeds;
            }
        }
    }

    /// Terminal success: hash the recorded curve, publish the summary.
    pub fn finish_completed(&self, job: JobId) {
        let mut st = self.lock_state();
        let (days, cumulative, seeds) = match st.jobs.get(&job) {
            Some(rec) => (
                rec.days.clone(),
                rec.days.last().map_or(rec.seeds, |d| d.cumulative),
                rec.seeds,
            ),
            None => return,
        };
        let hash = curve_hash(&days);
        let summary = Event::Completed {
            job,
            days: days.len() as u32,
            cumulative: cumulative.max(seeds),
            curve_hash: hash,
        };
        if let Some(rec) = st.jobs.get_mut(&job) {
            rec.curve_hash = Some(hash);
            rec.terminal = Some(summary.clone());
        }
        transition(&mut st, job, JobState::Completed);
        if let Some(topic) = st.topics.get(&job) {
            topic.publish(summary);
        }
        self.release(&mut st, job);
        drop(st);
        self.work_bell.notify_all();
    }

    /// Terminal success for an ensemble sweep: no per-day curve, so the
    /// summary carries the [`episim_core::ResultStore`] hash as its
    /// `curve_hash` and the member count in the `days` slot.
    pub fn finish_sweep_completed(&self, job: JobId, members: u32, store_hash: u64) {
        let mut st = self.lock_state();
        let seeds = st.jobs.get(&job).map_or(0, |r| r.seeds);
        let summary = Event::Completed {
            job,
            days: members,
            cumulative: seeds,
            curve_hash: store_hash,
        };
        if let Some(rec) = st.jobs.get_mut(&job) {
            rec.curve_hash = Some(store_hash);
            rec.terminal = Some(summary.clone());
        }
        transition(&mut st, job, JobState::Completed);
        if let Some(topic) = st.topics.get(&job) {
            topic.publish(summary);
        }
        self.release(&mut st, job);
        drop(st);
        self.work_bell.notify_all();
    }

    /// Terminal failure.
    pub fn finish_failed(&self, job: JobId, message: String) {
        let mut st = self.lock_state();
        if let Some(rec) = st.jobs.get_mut(&job) {
            rec.error = Some(message.clone());
            rec.terminal = Some(Event::Failed {
                job,
                message: message.clone(),
            });
        }
        transition(&mut st, job, JobState::Failed);
        if let Some(topic) = st.topics.get(&job) {
            topic.publish(Event::Failed { job, message });
        }
        self.release(&mut st, job);
        drop(st);
        self.work_bell.notify_all();
    }

    /// The worker checkpointed and stopped. If a cancel raced in after
    /// the pause was observed, honor it now (`Running → Paused →
    /// Cancelled` — both edges legal, both logged).
    pub fn finish_paused(&self, job: JobId, checkpoint: PathBuf) {
        let mut st = self.lock_state();
        let cancel_raced = st
            .flags
            .get(&job)
            .is_some_and(|f| f.load(Ordering::Acquire) == ctl::CANCEL);
        if let Some(rec) = st.jobs.get_mut(&job) {
            rec.checkpoint = Some(checkpoint.clone());
        }
        transition(&mut st, job, JobState::Paused);
        if cancel_raced {
            if let Some(path) = st.jobs.get_mut(&job).and_then(|r| r.checkpoint.take()) {
                let _ = std::fs::remove_file(path);
            }
            transition(&mut st, job, JobState::Cancelled);
        }
        self.release(&mut st, job);
        drop(st);
        self.work_bell.notify_all();
    }

    /// The worker stopped cooperatively after a cancel.
    pub fn finish_cancelled(&self, job: JobId) {
        let mut st = self.lock_state();
        transition(&mut st, job, JobState::Cancelled);
        self.release(&mut st, job);
        drop(st);
        self.work_bell.notify_all();
    }

    fn release(&self, st: &mut ManagerState, job: JobId) {
        if let Some(rec) = st.jobs.get(&job) {
            let code = rec.spec.engine.code();
            if let Some(n) = st.running.get_mut(&code) {
                *n = n.saturating_sub(1);
            }
        }
        st.flags.remove(&job);
    }

    /// Where checkpoints live.
    pub fn data_dir(&self) -> &std::path::Path {
        &self.data_dir
    }
}

/// Perform and log a state change; publishes the `State` event. Panics on
/// an illegal edge — by construction the manager only calls this on legal
/// ones, and the transition-table test pins the table itself.
fn transition(st: &mut ManagerState, job: JobId, to: JobState) {
    let Some(rec) = st.jobs.get_mut(&job) else {
        return;
    };
    let from = rec.state;
    assert!(
        from.can_transition(to),
        "illegal transition {} -> {} for job {job}",
        from.as_str(),
        to.as_str()
    );
    rec.state = to;
    // Cancellation's terminal event is the `State` change itself; richer
    // terminals (Completed/Failed summaries) are stored by the finish_*
    // methods before they call here.
    if to == JobState::Cancelled {
        rec.terminal = Some(Event::State { job, state: to });
    }
    log_line(st, job, Some(from), to);
    if let Some(topic) = st.topics.get(&job) {
        topic.publish(Event::State { job, state: to });
    }
    if to.is_terminal() {
        retire(st, job);
    }
}

/// Count `job` among the finished ones and forget the oldest beyond
/// [`RETAINED_TERMINAL_JOBS`]. A subscriber already attached to a
/// forgotten job keeps its stream: it holds the topic, and the terminal
/// event was published before the job could be forgotten.
fn retire(st: &mut ManagerState, job: JobId) {
    st.finished.push_back(job);
    while st.finished.len() > RETAINED_TERMINAL_JOBS {
        if let Some(old) = st.finished.pop_front() {
            st.jobs.remove(&old);
            st.topics.remove(&old);
        }
    }
}

fn log_line(st: &mut ManagerState, job: JobId, from: Option<JobState>, to: JobState) {
    st.seq += 1;
    let seq = st.seq;
    let from = from.map_or("submit", |s| s.as_str());
    let _ = writeln!(st.log, "{seq} job={job} {from} -> {}", to.as_str());
    let _ = st.log.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Priority, ScenarioSource};
    use std::time::Duration;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("episerve-mgr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn spec(name: &str) -> JobSpec {
        JobSpec::dsl(name, ptts::dsl::FLU_DSL, EngineSel::Seq)
    }

    #[test]
    fn submit_validates_and_queues() {
        let m = Manager::new(dir("submit"), 2, 16, EngineCaps::default()).unwrap();
        let id = m.submit(spec("a")).unwrap();
        assert_eq!(m.status(id), Some((JobState::Queued, 0)));

        let mut bad = spec("b");
        bad.source = ScenarioSource::Dsl("disease broken\nstate".into());
        assert!(matches!(m.submit(bad), Err(SubmitError::Invalid(_))));

        m.submit(spec("c")).unwrap();
        assert_eq!(m.submit(spec("d")), Err(SubmitError::QueueFull));
    }

    #[test]
    fn lease_respects_engine_caps_and_priority() {
        let caps = EngineCaps {
            seq: 1,
            ..EngineCaps::default()
        };
        let m = Manager::new(dir("caps"), 16, 16, caps).unwrap();
        let a = m.submit(spec("a")).unwrap();
        let mut high = spec("hi");
        high.priority = Priority::High;
        let b = m.submit(high).unwrap();
        let mut thr = spec("thr");
        thr.engine = EngineSel::Threads;
        let c = m.submit(thr).unwrap();

        // High-priority seq job leases first.
        let l1 = m.lease().unwrap();
        assert_eq!(l1.job, b);
        // Seq cap is 1: the next lease must skip job `a` and take the
        // threads job.
        let l2 = m.lease().unwrap();
        assert_eq!(l2.job, c);
        // Freeing the seq slot unblocks `a`.
        m.finish_completed(b);
        let l3 = m.lease().unwrap();
        assert_eq!(l3.job, a);
    }

    #[test]
    fn lifecycle_errors_are_typed() {
        let m = Manager::new(dir("err"), 16, 16, EngineCaps::default()).unwrap();
        assert_eq!(m.pause(99), Err(LifecycleError::NoSuchJob));
        let id = m.submit(spec("a")).unwrap();
        // Pause of a queued job is illegal (Queued -> Paused not an edge).
        assert_eq!(
            m.pause(id),
            Err(LifecycleError::BadTransition {
                state: JobState::Queued
            })
        );
        // Resume of a queued job likewise.
        assert_eq!(
            m.resume(id),
            Err(LifecycleError::BadTransition {
                state: JobState::Queued
            })
        );
        // Cancel from queue works and is terminal.
        assert_eq!(m.cancel(id), Ok(JobState::Cancelled));
        assert_eq!(
            m.cancel(id),
            Err(LifecycleError::BadTransition {
                state: JobState::Cancelled
            })
        );
    }

    #[test]
    fn cancel_of_running_arms_flag_and_worker_finishes() {
        let m = Manager::new(dir("cancel"), 16, 16, EngineCaps::default()).unwrap();
        let id = m.submit(spec("a")).unwrap();
        let lease = m.lease().unwrap();
        assert_eq!(m.cancel(id), Ok(JobState::Running));
        assert_eq!(lease.flag.load(Ordering::Acquire), ctl::CANCEL);
        m.finish_cancelled(id);
        assert_eq!(m.status(id), Some((JobState::Cancelled, 0)));
    }

    #[test]
    fn subscribe_replays_days_and_terminal() {
        let m = Manager::new(dir("sub"), 16, 16, EngineCaps::default()).unwrap();
        let id = m.submit(spec("a")).unwrap();
        let _lease = m.lease().unwrap();
        for day in 0..3 {
            m.day_finished(
                id,
                &DayStats {
                    day,
                    cumulative: 5 + day as u64,
                    ..Default::default()
                },
            );
        }
        m.finish_completed(id);
        let mut sub = m.subscribe(id).unwrap();
        let mut days = 0;
        loop {
            match sub.recv_timeout(Duration::from_secs(1)) {
                Some(Event::Day { .. }) => days += 1,
                Some(Event::Completed {
                    days: n,
                    curve_hash,
                    ..
                }) => {
                    assert_eq!(n, 3);
                    assert_eq!(Some(curve_hash), m.curve_hash_of(id));
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(days, 3);
    }

    #[test]
    fn shutdown_cancels_queued_and_arms_running() {
        let m = Manager::new(dir("shutdown"), 16, 16, EngineCaps::default()).unwrap();
        let running = m.submit(spec("run")).unwrap();
        let queued = m.submit(spec("wait")).unwrap();
        let lease = m.lease().unwrap();
        assert_eq!(lease.job, running);
        m.shutdown();
        assert_eq!(m.status(queued), Some((JobState::Cancelled, 0)));
        assert_eq!(lease.flag.load(Ordering::Acquire), ctl::CANCEL);
        assert!(matches!(
            m.submit(spec("late")),
            Err(SubmitError::ShuttingDown)
        ));
        m.finish_cancelled(running);
        assert!(m.lease().is_none(), "lease drains after shutdown");
    }

    #[test]
    fn pause_cancel_race_lands_in_cancelled_via_paused() {
        let m = Manager::new(dir("race"), 16, 16, EngineCaps::default()).unwrap();
        let id = m.submit(spec("a")).unwrap();
        let lease = m.lease().unwrap();
        assert_eq!(m.pause(id), Ok(JobState::Running));
        // Cancel overwrites the pending pause.
        assert_eq!(m.cancel(id), Ok(JobState::Running));
        assert_eq!(lease.flag.load(Ordering::Acquire), ctl::CANCEL);
        // Worker observed PAUSE before the overwrite and checkpointed
        // anyway: the manager walks Paused -> Cancelled and removes the
        // file.
        let ckpt = m.data_dir().join("job-race.ckpt");
        std::fs::write(&ckpt, b"x").unwrap();
        m.finish_paused(id, ckpt.clone());
        assert_eq!(m.status(id), Some((JobState::Cancelled, 0)));
        assert!(!ckpt.exists(), "raced checkpoint is cleaned up");
    }
}
