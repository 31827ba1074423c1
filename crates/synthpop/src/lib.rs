//! # synthpop — synthetic populations and the person–location graph
//!
//! EpiSimdemics' input is "a bipartite graph consisting of person and
//! location nodes, with edges between them representing a visit by a person
//! to a specific location at a specific time … a synthetic network based on
//! census and other data" (paper §II-A, citing Barrett et al. \[5\]). The
//! NDSSL populations themselves are not redistributable, so this crate is
//! the substitution documented in DESIGN.md: a parametric generator that
//! reproduces the *statistical* properties the paper's analysis rests on —
//!
//! * Table I's per-state people/location/visit counts (at a configurable
//!   scale),
//! * near-constant person out-degree (avg ≈ 5.5, σ ≈ 2.6),
//! * heavy-tailed (power-law) location in-degree with exponent β,
//! * sublocation structure inside each location (rooms/classrooms), which
//!   §III-C's splitLoc preprocessing exploits,
//! * location kinds (home/work/school/...) so interventions such as school
//!   closure act on the right nodes.
//!
//! Modules:
//! * [`state`] — the Table I catalog: 48 contiguous US states + DC.
//! * [`powerlaw`] — bounded-Pareto sampling and exponent estimation.
//! * [`alias`] — Walker alias tables for O(1) weighted sampling.
//! * [`generator`] — the population generator itself.
//! * [`graph`] — CSR views of the bipartite graph + degree statistics.
//! * [`histogram`] — log-binned histograms (Figures 3c/3d/7).

pub mod alias;
pub mod generator;
pub mod graph;
pub mod histogram;
pub mod powerlaw;
pub mod state;

pub use generator::{Location, LocationKind, Person, Population, PopulationConfig, Visit};
pub use graph::BipartiteGraph;
pub use histogram::LogHistogram;
pub use powerlaw::BoundedPareto;
pub use state::{UsState, ALL_STATES, TABLE_I_STATES};

/// Identifier of a person within one population (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PersonId(pub u32);

/// Identifier of a location within one population (dense, 0-based).
///
/// After splitLoc preprocessing (in `episim-core`), new location ids are
/// appended past the original range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocationId(pub u32);

/// Index of a sublocation (room) within its location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SublocationId(pub u16);

/// Minutes in a simulated day.
pub const MINUTES_PER_DAY: u16 = 1440;
