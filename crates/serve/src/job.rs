//! Job model: what a client submits ([`JobSpec`]) and the lifecycle state
//! machine every job walks ([`JobState`]).
//!
//! The state machine is deliberately small and *closed*: every transition
//! the manager performs goes through [`JobState::can_transition`], illegal
//! edges are rejected before any side effect, and the exhaustive
//! transition-table test in this module is the spec of record (mirrored in
//! DESIGN.md §12).

/// Server-assigned job identifier, monotonically increasing from 1.
pub type JobId = u64;

/// Scheduling priority: `High` jobs drain before `Normal` ones; within a
/// class the queue is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Default class.
    #[default]
    Normal,
    /// Drains first.
    High,
}

impl Priority {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            Priority::Normal => 0,
            Priority::High => 1,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<Priority> {
        match code {
            0 => Some(Priority::Normal),
            1 => Some(Priority::High),
            _ => None,
        }
    }
}

/// Where the scenario comes from: inline ptts DSL text, or the same text
/// plus an explicit sweep grid for ensemble jobs.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSource {
    /// A complete ptts scenario (disease model + optional `sim` /
    /// `intervention` directives) as DSL text, parsed server-side via
    /// `str::parse::<ptts::dsl::Scenario>()`.
    Dsl(String),
    /// Scenario text plus a sweep grid; only valid with
    /// [`EngineSel::Ensemble`].
    Sweep {
        /// Scenario DSL text (the base config for every grid point).
        dsl: String,
        /// Transmissibility grid.
        r_values: Vec<f64>,
        /// Replicate seeds per grid point.
        replicates: u32,
        /// Ensemble worker threads.
        workers: u32,
    },
}

impl ScenarioSource {
    /// The scenario DSL text regardless of variant.
    pub fn dsl(&self) -> &str {
        match self {
            ScenarioSource::Dsl(text) => text,
            ScenarioSource::Sweep { dsl, .. } => dsl,
        }
    }
}

/// Which execution engine runs the job.
///
/// In-server `Net` jobs always run with `n_procs = 1`, which `chare-rt`
/// runs as its sequential engine: the net engine's multi-process mode
/// works by re-executing the *current binary* as SPMD workers, which would
/// fork whole extra servers. Multi-process net runs stay batch-mode (see
/// DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSel {
    /// Deterministic sequential engine.
    Seq,
    /// Real OS threads.
    Threads,
    /// Virtual-time DST engine.
    Vt,
    /// Net engine with one process: the sequential engine (no comm
    /// thread, no workers).
    Net,
    /// Copy-on-write ensemble sweep (`run_sweep`); requires
    /// [`ScenarioSource::Sweep`].
    Ensemble,
}

impl EngineSel {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            EngineSel::Seq => 0,
            EngineSel::Threads => 1,
            EngineSel::Vt => 2,
            EngineSel::Net => 3,
            EngineSel::Ensemble => 4,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<EngineSel> {
        match code {
            0 => Some(EngineSel::Seq),
            1 => Some(EngineSel::Threads),
            2 => Some(EngineSel::Vt),
            3 => Some(EngineSel::Net),
            4 => Some(EngineSel::Ensemble),
            _ => None,
        }
    }

    /// Short display name (matches `EngineChoice`'s CLI spellings).
    pub fn as_str(self) -> &'static str {
        match self {
            EngineSel::Seq => "seq",
            EngineSel::Threads => "threads",
            EngineSel::Vt => "vt",
            EngineSel::Net => "net",
            EngineSel::Ensemble => "ensemble",
        }
    }
}

/// Resource hints: how big a synthetic population to build and how many
/// PEs/partitions to spread it over. The server clamps rather than
/// trusts — see [`JobSpec::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceHints {
    /// Synthetic population size (persons).
    pub pop_size: u32,
    /// Population generator seed.
    pub pop_seed: u64,
    /// Processing elements for the runtime.
    pub n_pes: u32,
    /// Graph partitions (chare pairs) for the data distribution.
    pub n_partitions: u32,
    /// Artificial per-day delay in milliseconds (0 = none). Lets tests
    /// and demos land pause/cancel requests mid-run deterministically on
    /// jobs that would otherwise finish in microseconds; the sleep sits
    /// outside the simulation step, so curve hashes are unaffected.
    pub throttle_ms: u32,
}

impl Default for ResourceHints {
    fn default() -> Self {
        ResourceHints {
            pop_size: 1_000,
            pop_seed: 7,
            n_pes: 2,
            n_partitions: 4,
            throttle_ms: 0,
        }
    }
}

/// Everything the server needs to run one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human label (shows up in listings; also names the population).
    pub name: String,
    /// Scenario source.
    pub source: ScenarioSource,
    /// Engine selection.
    pub engine: EngineSel,
    /// Master-seed override (else the scenario's `sim seed=`, else 42).
    pub seed: Option<u64>,
    /// Day-count override (else the scenario's `sim days=`, else 120).
    pub days: Option<u32>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Population / layout sizing.
    pub hints: ResourceHints,
}

/// Bounds enforced by [`JobSpec::validate`].
pub const MAX_POP_SIZE: u32 = 200_000;
/// Smallest population the generator produces sensibly.
pub const MIN_POP_SIZE: u32 = 50;
/// Largest day count a job may request.
pub const MAX_DAYS: u32 = 2_000;
/// Largest per-day throttle a job may request (ms).
pub const MAX_THROTTLE_MS: u32 = 1_000;

impl JobSpec {
    /// A small default spec around inline DSL text — tests and the demo
    /// start from this and override fields.
    pub fn dsl(name: &str, dsl_text: &str, engine: EngineSel) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            source: ScenarioSource::Dsl(dsl_text.to_string()),
            engine,
            seed: None,
            days: None,
            priority: Priority::Normal,
            hints: ResourceHints::default(),
        }
    }

    /// Structural validation performed at submit time, *before* the job is
    /// queued, so a bad spec is rejected synchronously instead of failing
    /// asynchronously in a worker. Checks: the DSL parses, sizing is in
    /// bounds, and the source variant matches the engine (sweeps need the
    /// ensemble engine and vice versa).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("job name must be non-empty".into());
        }
        if let Err(e) = self.source.dsl().parse::<ptts::dsl::Scenario>() {
            return Err(format!("scenario DSL does not parse: {e}"));
        }
        match (&self.source, self.engine) {
            (ScenarioSource::Sweep { .. }, EngineSel::Ensemble) => {}
            (ScenarioSource::Sweep { .. }, other) => {
                return Err(format!(
                    "sweep source requires the ensemble engine, not {}",
                    other.as_str()
                ));
            }
            (ScenarioSource::Dsl(_), EngineSel::Ensemble) => {
                return Err("ensemble engine requires a sweep source".into());
            }
            (ScenarioSource::Dsl(_), _) => {}
        }
        if let ScenarioSource::Sweep {
            r_values,
            replicates,
            workers,
            ..
        } = &self.source
        {
            if r_values.is_empty() {
                return Err("sweep needs at least one r value".into());
            }
            if *replicates == 0 || *workers == 0 {
                return Err("sweep replicates and workers must be >= 1".into());
            }
        }
        if self.hints.pop_size < MIN_POP_SIZE || self.hints.pop_size > MAX_POP_SIZE {
            return Err(format!(
                "pop_size {} outside [{MIN_POP_SIZE}, {MAX_POP_SIZE}]",
                self.hints.pop_size
            ));
        }
        if self.hints.n_pes == 0 || self.hints.n_partitions == 0 {
            return Err("n_pes and n_partitions must be >= 1".into());
        }
        if self.hints.throttle_ms > MAX_THROTTLE_MS {
            return Err(format!(
                "throttle_ms {} exceeds {MAX_THROTTLE_MS}",
                self.hints.throttle_ms
            ));
        }
        if let Some(days) = self.days {
            if days == 0 || days > MAX_DAYS {
                return Err(format!("days {days} outside [1, {MAX_DAYS}]"));
            }
        }
        Ok(())
    }
}

/// The job lifecycle:
///
/// ```text
///            submit            lease              finish
///   (new) ─────────▶ Queued ─────────▶ Running ─────────▶ Completed
///                      │  ▲              │ │ └──────────▶ Failed
///                      │  │ resume  pause│ │cancel
///                      │  └────── Paused◀┘ └────────────▶ Cancelled
///                      │ cancel      │ cancel
///                      └──────────▶ Cancelled ◀──────────┘
/// ```
///
/// `Completed`, `Failed`, and `Cancelled` are terminal. Resume re-enqueues
/// (`Paused → Queued`), so a resumed job waits its turn like any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobState {
    /// Waiting in the scheduler queue.
    Queued,
    /// Leased to a worker and simulating.
    Running,
    /// Checkpointed at a day boundary; resumable.
    Paused,
    /// Ran to the end (or extinction); curve hash published.
    Completed,
    /// Worker hit an error; message recorded.
    Failed,
    /// Cancelled by the client (from queue, pause, or mid-run).
    Cancelled,
}

impl JobState {
    /// Every state, for exhaustive table tests.
    pub const ALL: [JobState; 6] = [
        JobState::Queued,
        JobState::Running,
        JobState::Paused,
        JobState::Completed,
        JobState::Failed,
        JobState::Cancelled,
    ];

    /// Is this a terminal state (no further transitions)?
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }

    /// The legal-transition table. This is the single source of truth:
    /// the manager consults it before every state change.
    pub fn can_transition(self, to: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, to),
            (Queued, Running)
                | (Queued, Cancelled)
                | (Running, Paused)
                | (Running, Completed)
                | (Running, Failed)
                | (Running, Cancelled)
                | (Paused, Queued)
                | (Paused, Cancelled)
        )
    }

    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Paused => 2,
            JobState::Completed => 3,
            JobState::Failed => 4,
            JobState::Cancelled => 5,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<JobState> {
        match code {
            0 => Some(JobState::Queued),
            1 => Some(JobState::Running),
            2 => Some(JobState::Paused),
            3 => Some(JobState::Completed),
            4 => Some(JobState::Failed),
            5 => Some(JobState::Cancelled),
            _ => None,
        }
    }

    /// Display name (used in the transition log and listings).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exhaustive legal/illegal transition table (ISSUE satellite):
    /// all 36 ordered pairs, each asserted individually against the
    /// diagram in the type docs.
    #[test]
    fn transition_table_is_exactly_the_documented_graph() {
        use JobState::*;
        let legal = [
            (Queued, Running),
            (Queued, Cancelled),
            (Running, Paused),
            (Running, Completed),
            (Running, Failed),
            (Running, Cancelled),
            (Paused, Queued),
            (Paused, Cancelled),
        ];
        for from in JobState::ALL {
            for to in JobState::ALL {
                let want = legal.contains(&(from, to));
                assert_eq!(
                    from.can_transition(to),
                    want,
                    "{} -> {} should be {}",
                    from.as_str(),
                    to.as_str(),
                    if want { "legal" } else { "illegal" }
                );
            }
        }
        assert_eq!(legal.len(), 8, "the graph has exactly 8 edges");
    }

    #[test]
    fn terminal_states_have_no_outgoing_edges() {
        for from in JobState::ALL.into_iter().filter(|s| s.is_terminal()) {
            for to in JobState::ALL {
                assert!(!from.can_transition(to));
            }
        }
        // And no edge *into* Queued except from Paused (resume).
        for from in JobState::ALL {
            if from.can_transition(JobState::Queued) {
                assert_eq!(from, JobState::Paused);
            }
        }
    }

    #[test]
    fn codes_roundtrip() {
        for s in JobState::ALL {
            assert_eq!(JobState::from_code(s.code()), Some(s));
        }
        assert_eq!(JobState::from_code(99), None);
        for p in [Priority::Normal, Priority::High] {
            assert_eq!(Priority::from_code(p.code()), Some(p));
        }
        for e in [
            EngineSel::Seq,
            EngineSel::Threads,
            EngineSel::Vt,
            EngineSel::Net,
            EngineSel::Ensemble,
        ] {
            assert_eq!(EngineSel::from_code(e.code()), Some(e));
        }
    }

    #[test]
    fn validate_rejects_structural_errors() {
        let good = JobSpec::dsl("t", ptts::dsl::FLU_DSL, EngineSel::Seq);
        assert!(good.validate().is_ok());

        let mut bad = good.clone();
        bad.name.clear();
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.source = ScenarioSource::Dsl("disease broken\nstate".into());
        assert!(bad.validate().unwrap_err().contains("does not parse"));

        let mut bad = good.clone();
        bad.engine = EngineSel::Ensemble;
        assert!(bad.validate().unwrap_err().contains("sweep source"));

        let mut bad = good.clone();
        bad.source = ScenarioSource::Sweep {
            dsl: ptts::dsl::FLU_DSL.into(),
            r_values: vec![0.0004],
            replicates: 2,
            workers: 2,
        };
        assert!(bad.validate().unwrap_err().contains("ensemble engine"));

        let mut bad = good.clone();
        bad.hints.pop_size = 10;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.days = Some(0);
        assert!(bad.validate().is_err());

        let mut sweep = good;
        sweep.engine = EngineSel::Ensemble;
        sweep.source = ScenarioSource::Sweep {
            dsl: ptts::dsl::FLU_DSL.into(),
            r_values: vec![0.0004, 0.0008],
            replicates: 2,
            workers: 2,
        };
        assert!(sweep.validate().is_ok());
    }
}
