//! # episim-core — the EpiSimdemics contagion simulator
//!
//! The paper's primary contribution (Yeom et al., IPDPS 2014): an
//! agent-based contagion simulator over person–location bipartite graphs,
//! implemented message-driven on the `chare-rt` runtime, with the §III
//! scalability machinery — application-specific workload modeling,
//! multi-constraint graph partitioning, and heavy-location splitting
//! (splitLoc).
//!
//! The per-day algorithm (§II-B):
//!
//! 1. **Person phase** — every person recalculates their health state (a
//!    PTTS step), reacts to interventions, and sends a *visit* message to
//!    every location they will visit today.
//! 2. Completion detection (receivers don't know how many messages to
//!    expect).
//! 3. **Location phase** — every location builds a local DES from the
//!    arrive/depart events, computes susceptible×infectious interactions,
//!    and sends *infect* messages.
//! 4. Completion detection again.
//! 5. **Apply phase** — infected persons update their health state; global
//!    counts reduce to the driver.
//!
//! Modules:
//! * [`messages`] — the visit/infect message types and phase controls.
//! * [`kernel`] — the location DES: class-binned exposure integrals, the
//!   Barrett transmission function, infector attribution.
//! * [`person`] — person-side scheduling (health + interventions).
//! * [`layout`] — the static visit layout (`SweepLayout`) the engines
//!   and the oracle sweep, and the routes a person's updates take.
//! * [`managers`] — PersonManager / LocationManager chares (§II-C's
//!   two-level hierarchical data distribution).
//! * [`splitloc`] — §III-C's heavy-location splitting preprocessor.
//! * [`workload`] — the 2-constraint partitioner input graph (§III-A).
//! * [`distribution`] — the four data distributions of the evaluation:
//!   `RR`, `GP`, `RR-splitLoc`, `GP-splitLoc`.
//! * [`simulator`] — the parallel driver (a day is one runtime phase of two
//!   stages).
//! * [`engine`] — engine selection (`--engine seq|threads|vt|net`) and the
//!   block partition→PE placement.
//! * [`seq`] — a direct sequential implementation used as the correctness
//!   oracle for the parallel one.
//! * [`checkpoint`] — save/restore a simulation mid-run (restart is
//!   bit-exact).
//! * [`ensemble`] — the copy-on-write ensemble engine: whole-run
//!   parallelism over one `Arc`-shared world, parameter sweeps,
//!   attack-rate quantiles, and the FastSIR-style surrogate screen
//!   (DESIGN.md §11).
//! * [`tree`] — transmission-tree analytics (R_t, generation intervals,
//!   offspring distribution).
//! * [`output`] — epidemic curves and TSV rendering.

pub mod checkpoint;
pub mod distribution;
pub mod engine;
pub mod ensemble;
pub mod kernel;
pub mod layout;
pub mod managers;
pub mod messages;
pub mod output;
pub mod person;
pub mod resilient;
pub mod seq;
pub mod simulator;
pub mod splitloc;
pub mod tree;
pub mod workload;

pub use distribution::{DataDistribution, Strategy};
pub use engine::{pe_for_partition, EngineChoice};
pub use ensemble::{run_sweep, CowWorld, Ensemble, EnsembleSpec, ParamPoint, ResultStore};
pub use output::{DayStats, EpiCurve};
pub use resilient::{run_resilient, RecoveryConfig, ResilientRun};
pub use simulator::{DayControl, Resumed, RunHalt, SimConfig, Simulator};
pub use splitloc::{split_heavy_locations, SplitConfig, SplitResult};
pub use tree::{transmission_stats, TransmissionStats};
pub use workload::build_workload_graph;

/// The names most programs need.
pub mod prelude {
    pub use crate::distribution::{DataDistribution, Strategy};
    pub use crate::output::{DayStats, EpiCurve};
    pub use crate::simulator::{SimConfig, Simulator};
    pub use crate::splitloc::{split_heavy_locations, SplitConfig};
}
