//! The copy-on-write ensemble engine: whole-run parallelism over one
//! immutable world.
//!
//! A single stochastic trajectory is an anecdote; course-of-action studies
//! of the kind EpiSimdemics supported during H1N1 report medians and
//! uncertainty bands over thousands of replicates and parameter points.
//! Those members are embarrassingly parallel, so the scalable axis is
//! *whole runs*, not PEs within a run:
//!
//! * [`CowWorld`] — the world ([`DataDistribution`]: synthpop, the
//!   partition, its §II-C index maps and the sweep layout) and the disease
//!   model, each built once and shared immutably (`Arc`) by every member;
//!   nothing is deep-copied.
//! * [`run_sweep`] — an ensemble scheduler that fans whole runs across a
//!   worker pool. Each member is one chare-rt sequential-engine run
//!   ([`Simulator::run_curve`]) over the world's distribution, the same
//!   day loop every single-curve job runs, reading the world's one
//!   [`crate::layout::SweepLayout`] (built on first use). Workers race,
//!   results don't: placement into the [`ResultStore`] is by `(param
//!   point, seed)` index, and each member's epidemic is keyed only by its
//!   own seed, so worker count and interleaving can never change a bit of
//!   output.
//! * [`EnsembleSpec`] — the sweep front-end: parameter grids over
//!   transmissibility and intervention variants, driven either
//!   programmatically or from the ptts DSL's `sweep` directive.
//! * [`surrogate`] — a FastSIR-style percolation screen that ranks
//!   parameter points on a static contact graph before promoting survivors
//!   to full EpiSimdemics runs.
//!
//! Whole-run parallelism beat intra-run `ExecMode::Threads` at every worker
//! count it was measured at (EXPERIMENTS.md, "Ensemble crossover"); the
//! benchmark's `sweep-10k.oracle2` workload times `run_sweep` today.

use crate::distribution::DataDistribution;
use crate::output::{curve_hash, EpiCurve};
use crate::simulator::{SimConfig, Simulator};
use chare_rt::RuntimeConfig;
use ptts::intervention::InterventionSet;
use ptts::Ptts;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The immutable world every ensemble member aliases: the distribution
/// and the disease model.
///
/// Cloning a `CowWorld` bumps reference counts and copies nothing, and a
/// [`crate::Simulator`] built over its distribution shares the same
/// arrays; the aliasing tests pin this with `Arc::strong_count`.
#[derive(Debug, Clone)]
pub struct CowWorld {
    /// The world: population, partition, index maps and sweep layout.
    pub dist: DataDistribution,
    /// The disease model.
    pub ptts: Arc<Ptts>,
}

impl CowWorld {
    /// Build the world once from a distribution; everything downstream
    /// shares it.
    pub fn build(dist: &DataDistribution, ptts: Ptts) -> CowWorld {
        CowWorld {
            dist: dist.clone(),
            ptts: Arc::new(ptts),
        }
    }
}

/// One point of a parameter sweep: a transmissibility and an intervention
/// package. Everything else comes from the spec's base [`SimConfig`].
#[derive(Debug, Clone)]
pub struct ParamPoint {
    /// Display label (grid coordinates, for reports).
    pub label: String,
    /// Base transmissibility per minute of contact.
    pub r: f64,
    /// Interventions in force at this point.
    pub interventions: InterventionSet,
}

impl ParamPoint {
    /// A point varying only transmissibility.
    pub fn bare(r: f64) -> ParamPoint {
        ParamPoint {
            label: format!("r={r}"),
            r,
            interventions: InterventionSet::none(),
        }
    }

    /// The full-run configuration for this point under `seed`.
    pub fn config(&self, base: &SimConfig, seed: u64) -> SimConfig {
        SimConfig {
            r: self.r,
            seed,
            interventions: self.interventions.clone(),
            ..base.clone()
        }
    }
}

/// A full ensemble specification: the member set is the cross product
/// `points × seeds`, enumerated point-major.
#[derive(Debug, Clone)]
pub struct EnsembleSpec {
    /// Parameters shared by every member (days, initial infections, …).
    pub base: SimConfig,
    /// The parameter grid.
    pub points: Vec<ParamPoint>,
    /// Replicate seeds, applied to every point.
    pub seeds: Vec<u64>,
}

impl EnsembleSpec {
    /// Plain replicates of one scenario: a single point taken verbatim from
    /// `base` (its `r` and interventions), seeds `base.seed + i`.
    pub fn replicates(base: &SimConfig, n: u32) -> EnsembleSpec {
        let point = ParamPoint {
            label: format!("r={}", base.r),
            r: base.r,
            interventions: base.interventions.clone(),
        };
        EnsembleSpec {
            base: base.clone(),
            points: vec![point],
            seeds: (0..n).map(|i| base.seed.wrapping_add(i as u64)).collect(),
        }
    }

    /// A transmissibility grid with `n_seeds` replicates per point.
    pub fn grid(base: &SimConfig, rs: &[f64], n_seeds: u32) -> EnsembleSpec {
        EnsembleSpec {
            base: base.clone(),
            points: rs.iter().map(|&r| ParamPoint::bare(r)).collect(),
            seeds: (0..n_seeds)
                .map(|i| base.seed.wrapping_add(i as u64))
                .collect(),
        }
    }

    /// The cross product of transmissibilities and intervention variants
    /// (`variants` are `(label, interventions)` pairs).
    pub fn grid_over(
        base: &SimConfig,
        rs: &[f64],
        variants: &[(&str, InterventionSet)],
        n_seeds: u32,
    ) -> EnsembleSpec {
        let mut points = Vec::with_capacity(rs.len() * variants.len());
        for &r in rs {
            for (name, iv) in variants {
                points.push(ParamPoint {
                    label: format!("r={r} {name}"),
                    r,
                    interventions: iv.clone(),
                });
            }
        }
        EnsembleSpec {
            base: base.clone(),
            points,
            seeds: (0..n_seeds)
                .map(|i| base.seed.wrapping_add(i as u64))
                .collect(),
        }
    }

    /// Total member count (`points × seeds`).
    pub fn n_members(&self) -> usize {
        self.points.len() * self.seeds.len()
    }

    /// Decompose a member index into `(point index, seed index)`.
    pub fn member(&self, idx: usize) -> (usize, usize) {
        (idx / self.seeds.len(), idx % self.seeds.len())
    }

    /// The full-run configuration of member `idx`.
    pub fn config_for(&self, idx: usize) -> SimConfig {
        let (pi, si) = self.member(idx);
        self.points[pi].config(&self.base, self.seeds[si])
    }
}

/// Deterministic store of sweep results, keyed by `(param point, seed)`.
/// Placement is by member index, so the worker interleaving that produced a
/// curve is unobservable.
#[derive(Debug, Clone)]
pub struct ResultStore {
    n_points: usize,
    n_seeds: usize,
    curves: Vec<EpiCurve>,
}

impl ResultStore {
    /// Number of parameter points.
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// Number of replicate seeds per point.
    pub fn n_seeds(&self) -> usize {
        self.n_seeds
    }

    /// The curve of one member.
    pub fn curve(&self, point: usize, seed: usize) -> &EpiCurve {
        &self.curves[point * self.n_seeds + seed]
    }

    /// All curves of one point, in seed order.
    pub fn curves_for_point(&self, point: usize) -> &[EpiCurve] {
        &self.curves[point * self.n_seeds..(point + 1) * self.n_seeds]
    }

    /// Replicate summary of one point.
    pub fn point_ensemble(&self, point: usize) -> Ensemble {
        Ensemble {
            runs: self.curves_for_point(point).to_vec(),
        }
    }

    /// Mean attack rate across a point's replicates.
    pub fn mean_attack_rate(&self, point: usize) -> f64 {
        let cs = self.curves_for_point(point);
        if cs.is_empty() {
            return 0.0;
        }
        cs.iter().map(|c| c.attack_rate()).sum::<f64>() / cs.len() as f64
    }

    /// FNV-1a fold over every member's curve hash, in `(point, seed)`
    /// order — one number that pins the entire sweep bit-for-bit (the
    /// conformance grid asserts it against a constant).
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for c in &self.curves {
            h = (h ^ curve_hash(&c.days)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Run every member of `spec` over the shared `world`, fanning whole runs
/// across `workers` OS threads, the caller's among them.
///
/// Each worker pulls member indices from an atomic counter until the sweep
/// is drained and runs each member on the sequential engine over the
/// world's distribution; the first member to start builds the world's
/// [`crate::layout::SweepLayout`] (if no holder of the world has yet) and
/// every member reads it. Determinism is structural:
/// members draw only from counter-based streams keyed by their own seed,
/// and results land in the store by index — so any worker count, including
/// 1, yields bit-identical output (the determinism proptest varies it).
///
/// `workers` is a *logical* parallelism cap: the OS thread count is
/// additionally clamped to the member count and the machine's available
/// parallelism, because oversubscribing CPU-bound whole runs only buys
/// context-switch and cache pressure. The clamp is unobservable in the
/// results, by the determinism argument above. The caller's thread runs
/// one worker's members, so `workers - 1` threads are spawned and one
/// worker's simulators reuse the heap the caller has already grown.
pub fn run_sweep(world: &CowWorld, spec: &EnsembleSpec, workers: u32) -> ResultStore {
    let total = spec.n_members();
    let hw = std::thread::available_parallelism().map_or(usize::MAX, usize::from);
    let workers = (workers.max(1) as usize).min(total.max(1)).min(hw);
    let next = AtomicUsize::new(0);
    let mut placed: Vec<Option<EpiCurve>> = (0..total).map(|_| None).collect();
    let work = || {
        let mut out = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= total {
                break;
            }
            let (ptts, cfg) = ((*world.ptts).clone(), spec.config_for(idx));
            let rt = RuntimeConfig::sequential(1);
            out.push((idx, Simulator::run_curve(&world.dist, ptts, cfg, rt)));
        }
        out
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in handles {
            done.extend(h.join().expect("ensemble worker panicked"));
        }
        for (idx, curve) in done {
            placed[idx] = Some(curve);
        }
    });
    ResultStore {
        n_points: spec.points.len(),
        n_seeds: spec.seeds.len(),
        curves: placed
            .into_iter()
            .map(|c| c.expect("every member index was claimed by a worker"))
            .collect(),
    }
}

/// Result of an ensemble: one curve per replicate.
#[derive(Debug, Clone, Default)]
pub struct Ensemble {
    /// One epidemic curve per replicate (ordered by seed).
    pub runs: Vec<EpiCurve>,
}

impl Ensemble {
    /// Attack rates across replicates, sorted ascending.
    pub fn attack_rates(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.runs.iter().map(|r| r.attack_rate()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    /// Quantile of the attack-rate distribution (`q ∈ [0,1]`).
    pub fn attack_rate_quantile(&self, q: f64) -> f64 {
        quantile_f64(&self.attack_rates(), q)
    }

    /// Fraction of replicates where the outbreak took off (attack rate
    /// above `threshold`) — small seeds fizzle stochastically.
    pub fn takeoff_probability(&self, threshold: f64) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs
            .iter()
            .filter(|r| r.attack_rate() > threshold)
            .count() as f64
            / self.runs.len() as f64
    }
}

fn quantile_f64(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

pub mod surrogate {
    //! FastSIR-style surrogate screen: rank parameter points on a static
    //! contact graph before paying for full EpiSimdemics runs.
    //!
    //! The full simulator replays every visit of every person every day.
    //! The surrogate collapses that to a one-shot bond percolation: build a
    //! static person–person contact graph from per-location visit overlaps
    //! (degree-capped at heavy locations), open each edge with the
    //! transmission function's probability for the whole infectious period,
    //! and measure the component reachable from the seed set. Percolation
    //! draws share one keyed uniform per edge across every parameter point
    //! (`Purpose::Surrogate`), which *couples* the samples: the open-edge
    //! set can only grow with transmissibility, so scores are monotone in
    //! `r` by construction — the surrogate sanity suite pins this, along
    //! with top-k retention against exhaustive full runs (tolerances in
    //! EXPERIMENTS.md).

    use super::{CowWorld, EnsembleSpec, ParamPoint};
    use ptts::crng::{CounterRng, Purpose};
    use ptts::model::TreatmentId;
    use ptts::transmission::infection_prob;
    use ptts::Ptts;
    use synthpop::{LocationId, Population};

    /// Per-location visitor cap when building the contact graph. Heavy
    /// locations (malls in the paper's degree plots) would otherwise
    /// contribute O(degree²) edges; the screen only needs connectivity.
    pub const MAX_VISITORS_PER_LOCATION: usize = 24;

    /// A static undirected person–person contact graph in CSR form. Each
    /// directed half-edge carries the contact minutes and the undirected
    /// edge id its percolation draw is keyed by.
    #[derive(Debug, Clone)]
    pub struct ContactGraph {
        offsets: Vec<u32>,
        targets: Vec<u32>,
        minutes: Vec<f32>,
        edge_ids: Vec<u32>,
        n_edges: u32,
    }

    impl ContactGraph {
        /// Build from per-location visit overlaps: two people who overlap
        /// at a location for `m` minutes get an edge of weight `m`
        /// (summed over co-visits). Deterministic — locations and visits
        /// are walked in id order.
        pub fn build(pop: &Population) -> ContactGraph {
            let n_people = pop.n_people() as usize;
            let graph = synthpop::BipartiteGraph::build(pop);
            let mut adj: Vec<Vec<(u32, f32, u32)>> = vec![Vec::new(); n_people];
            let mut n_edges = 0u32;
            for l in 0..pop.n_locations() {
                let vis = graph.visits_at(LocationId(l));
                let take = vis.len().min(MAX_VISITORS_PER_LOCATION);
                for a in 0..take {
                    let va = &pop.visits[vis[a] as usize];
                    for &vbi in vis.iter().take(take).skip(a + 1) {
                        let vb = &pop.visits[vbi as usize];
                        if va.person == vb.person {
                            continue;
                        }
                        let overlap = va
                            .end_min()
                            .min(vb.end_min())
                            .saturating_sub(va.start_min.max(vb.start_min));
                        if overlap == 0 {
                            continue;
                        }
                        let id = n_edges;
                        n_edges += 1;
                        adj[va.person.0 as usize].push((vb.person.0, overlap as f32, id));
                        adj[vb.person.0 as usize].push((va.person.0, overlap as f32, id));
                    }
                }
            }
            let mut offsets = Vec::with_capacity(n_people + 1);
            let mut targets = Vec::new();
            let mut minutes = Vec::new();
            let mut edge_ids = Vec::new();
            offsets.push(0u32);
            for list in &adj {
                for &(t, m, id) in list {
                    targets.push(t);
                    minutes.push(m);
                    edge_ids.push(id);
                }
                offsets.push(targets.len() as u32);
            }
            ContactGraph {
                offsets,
                targets,
                minutes,
                edge_ids,
                n_edges,
            }
        }

        /// Number of undirected edges.
        pub fn n_edges(&self) -> u32 {
            self.n_edges
        }

        /// Number of person nodes.
        pub fn n_people(&self) -> usize {
            self.offsets.len() - 1
        }

        fn neighbors(&self, p: u32) -> impl Iterator<Item = (u32, f32, u32)> + '_ {
            let lo = self.offsets[p as usize] as usize;
            let hi = self.offsets[p as usize + 1] as usize;
            (lo..hi).map(move |i| (self.targets[i], self.minutes[i], self.edge_ids[i]))
        }
    }

    /// Expected infectivity-weighted days of one infection episode under
    /// the default treatment: `Σ_s ι(s) · E[dwell(s)] · P(visit s)`,
    /// following the exposed-onset chain. This converts the contact graph's
    /// per-day minutes into whole-episode contact time for the percolation
    /// probability.
    pub fn expected_infectivity_days(ptts: &Ptts) -> f64 {
        let n = ptts.n_states();
        let mut mass = vec![0.0f64; n];
        mass[ptts.exposed_state().0 as usize] = 1.0;
        let mut total = 0.0;
        // The PTTS graphs we run are shallow DAGs; 32 propagation rounds is
        // plenty, and the residual-mass exit catches convergence early.
        for _ in 0..32 {
            let mut next = vec![0.0f64; n];
            let mut moved = 0.0;
            for (s, &m) in mass.iter().enumerate() {
                if m <= 0.0 {
                    continue;
                }
                let sid = ptts::model::StateId(s as u16);
                if let Some(d) = ptts.state(sid).dwell.mean() {
                    total += ptts.infectivity(sid) * d * m;
                    if let Some(table) = ptts.table(sid, TreatmentId::DEFAULT) {
                        for &(t, p) in table.edges() {
                            next[t.0 as usize] += m * p;
                            moved += m * p;
                        }
                    }
                }
                // Absorbing states (dwell Forever) retain their mass and
                // shed nothing further.
            }
            mass = next;
            if moved < 1e-9 {
                break;
            }
        }
        total
    }

    /// One parameter point's surrogate score.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct SurrogateScore {
        /// Index into the screened point list.
        pub point: usize,
        /// Mean fraction of the population reachable from the seed set
        /// across percolation samples.
        pub mean_attack: f64,
    }

    /// Score every point of `spec` by percolation on `graph`.
    ///
    /// Sample `s` uses seed `spec.seeds[s]`: the seed set is drawn by the
    /// exact code the full simulator uses, and each edge's uniform is keyed
    /// `(seed, edge, 0, Surrogate)` — shared across points, so scores are
    /// monotone in transmissibility by coupling.
    pub fn screen(
        graph: &ContactGraph,
        world: &CowWorld,
        spec: &EnsembleSpec,
    ) -> Vec<SurrogateScore> {
        let n_people = graph.n_people();
        let d_inf = expected_infectivity_days(&world.ptts);
        let mut scores: Vec<SurrogateScore> = (0..spec.points.len())
            .map(|point| SurrogateScore {
                point,
                mean_attack: 0.0,
            })
            .collect();
        if n_people == 0 || spec.seeds.is_empty() {
            return scores;
        }
        let mut visited = vec![false; n_people];
        let mut stack: Vec<u32> = Vec::new();
        for &seed in &spec.seeds {
            // Seed set: identical draw to `Simulator::new`.
            let mut seeds = std::collections::BTreeSet::new();
            let mut rng = CounterRng::for_entity(seed, 0, 0, Purpose::Synthesis);
            let want = (spec.base.initial_infections as usize).min(n_people);
            while seeds.len() < want {
                seeds.insert(rng.uniform_u64(n_people as u64) as u32);
            }
            for (pi, point) in spec.points.iter().enumerate() {
                let reached =
                    percolate(graph, seed, point, d_inf, &seeds, &mut visited, &mut stack);
                scores[pi].mean_attack += reached as f64 / n_people as f64;
            }
        }
        for s in &mut scores {
            s.mean_attack /= spec.seeds.len() as f64;
        }
        scores
    }

    fn percolate(
        graph: &ContactGraph,
        seed: u64,
        point: &ParamPoint,
        d_inf: f64,
        seeds: &std::collections::BTreeSet<u32>,
        visited: &mut [bool],
        stack: &mut Vec<u32>,
    ) -> usize {
        visited.iter_mut().for_each(|v| *v = false);
        stack.clear();
        let mut reached = 0usize;
        for &p in seeds {
            if !visited[p as usize] {
                visited[p as usize] = true;
                reached += 1;
                stack.push(p);
            }
        }
        while let Some(p) = stack.pop() {
            for (q, mins, edge) in graph.neighbors(p) {
                if visited[q as usize] {
                    continue;
                }
                // Whole-episode transmission probability for this contact.
                let prob = infection_prob(point.r, 1.0, 1.0, mins as f64 * d_inf);
                let u =
                    CounterRng::for_entity(seed, edge as u64, 0, Purpose::Surrogate).uniform_f64();
                if u < prob {
                    visited[q as usize] = true;
                    reached += 1;
                    stack.push(q);
                }
            }
        }
        reached
    }

    /// Indices of the `k` best-scoring points (score descending, index
    /// ascending on ties) — the survivors to promote to full runs.
    pub fn promote_top_k(scores: &[SurrogateScore], k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .mean_attack
                .partial_cmp(&scores[a].mean_attack)
                .unwrap()
                .then(a.cmp(&b))
        });
        order.truncate(k);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Strategy;
    use ptts::flu_model;
    use synthpop::{Population, PopulationConfig};

    fn setup() -> (DataDistribution, SimConfig) {
        let pop = Population::generate(&PopulationConfig::small("ENS", 1500, 5));
        let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 1, 5);
        let cfg = SimConfig {
            days: 25,
            r: 0.0012,
            seed: 100,
            initial_infections: 3,
            ..Default::default()
        };
        (dist, cfg)
    }

    /// `n` replicates of `cfg` over `dist`, swept on `workers` workers.
    fn replicates(dist: &DataDistribution, cfg: &SimConfig, n: u32, workers: u32) -> Ensemble {
        let world = CowWorld::build(dist, flu_model());
        run_sweep(&world, &EnsembleSpec::replicates(cfg, n), workers).point_ensemble(0)
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (dist, cfg) = setup();
        let a = replicates(&dist, &cfg, 8, 1);
        let b = replicates(&dist, &cfg, 8, 4);
        assert_eq!(a.runs, b.runs);
    }

    #[test]
    fn replicates_differ_but_share_structure() {
        let (dist, cfg) = setup();
        let ensemble = replicates(&dist, &cfg, 6, 2);
        assert_eq!(ensemble.runs.len(), 6);
        // Different seeds → (generically) different totals.
        let totals: std::collections::BTreeSet<u64> =
            ensemble.runs.iter().map(|r| r.total_infections()).collect();
        assert!(totals.len() > 1, "all replicates identical");
    }

    #[test]
    fn quantile_helper() {
        assert_eq!(quantile_f64(&[], 0.5), 0.0);
        assert_eq!(quantile_f64(&[7.0], 0.0), 7.0);
        assert_eq!(quantile_f64(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(quantile_f64(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile_f64(&[0.1, 0.9], 0.0), 0.1);
    }

    #[test]
    fn takeoff_probability_sane() {
        let (dist, cfg) = setup();
        let ensemble = replicates(&dist, &cfg, 10, 3);
        let p = ensemble.takeoff_probability(0.02);
        assert!((0.0..=1.0).contains(&p));
        // With r = 0.0012 on this town most replicates take off.
        assert!(p >= 0.5, "takeoff probability {p}");
        // Attack-rate quantiles are monotone.
        assert!(ensemble.attack_rate_quantile(0.1) <= ensemble.attack_rate_quantile(0.9));
    }

    /// Every member of `store` against the sequential oracle: the sweep
    /// runs its members on the engine, so an engine run of the same config
    /// would check the engine against itself.
    fn assert_members_match_oracle(world: &CowWorld, spec: &EnsembleSpec, store: &ResultStore) {
        for idx in 0..spec.n_members() {
            let (point, seed) = spec.member(idx);
            let oracle =
                crate::seq::run_sequential(&world.dist.pop, &world.ptts, &spec.config_for(idx));
            assert_eq!(
                store.curve(point, seed),
                &oracle,
                "member {idx} ({}, seed {})",
                spec.points[point].label,
                spec.seeds[seed]
            );
        }
    }

    #[test]
    fn sweep_store_is_worker_count_invariant_and_indexed() {
        let (dist, cfg) = setup();
        let world = CowWorld::build(&dist, flu_model());
        let spec = EnsembleSpec::grid(&cfg, &[0.0004, 0.0012, 0.002], 3);
        let one = run_sweep(&world, &spec, 1);
        let many = run_sweep(&world, &spec, 5);
        assert_eq!(one.hash(), many.hash());
        assert_eq!(one.n_points(), 3);
        assert_eq!(one.n_seeds(), 3);
        // Index placement: member (point, seed) equals an oracle run of
        // that member's config.
        assert_members_match_oracle(&world, &spec, &one);
        // More transmissible points infect more on average.
        assert!(one.mean_attack_rate(0) <= one.mean_attack_rate(2));
    }

    #[test]
    fn sweep_with_closure_and_vaccination_matches_the_oracle() {
        use ptts::intervention::{Action, Intervention, Trigger};
        let (dist, cfg) = setup();
        let world = CowWorld::build(&dist, flu_model());
        // A school closure drops visits by kind, the vaccination order
        // lowers `sus_scale`, and the symptomatic stay home on their own:
        // all three absences the gather filters out of a group.
        let package = InterventionSet::new(vec![
            Intervention {
                trigger: Trigger::Day(2),
                action: Action::Vaccinate {
                    fraction: 0.5,
                    treatment: ptts::model::TreatmentId(1),
                    efficacy_factor: 0.3,
                },
            },
            Intervention {
                trigger: Trigger::Day(4),
                action: Action::CloseKind {
                    kind: synthpop::LocationKind::School as u8,
                    duration: 8,
                },
            },
        ]);
        let variants = [("none", InterventionSet::none()), ("school+vax", package)];
        let spec = EnsembleSpec::grid_over(&cfg, &[0.0012, 0.002], &variants, 2);
        let store = run_sweep(&world, &spec, 2);
        assert_members_match_oracle(&world, &spec, &store);
        let (plain, package) = (store.curve(0, 0), store.curve(1, 0));
        assert_ne!(plain, package, "the package changed nothing");
    }

    #[test]
    fn cow_world_shares_not_copies() {
        let (dist, cfg) = setup();
        let world = CowWorld::build(&dist, flu_model());
        // The world aliases the distribution's population…
        assert!(Arc::ptr_eq(&world.dist.pop, &dist.pop));
        let before = Arc::strong_count(&world.dist.pop);
        // …and its sweep layout, built once for both…
        let sweep = world.dist.sweep_layout();
        assert!(Arc::ptr_eq(&sweep, &dist.sweep_layout()));
        let sweep_before = Arc::strong_count(&sweep);
        // …and simulators over the world alias its Arcs.
        let sims: Vec<_> = (0..4)
            .map(|i| {
                let mut c = cfg.clone();
                c.seed = cfg.seed + i;
                let rt = chare_rt::RuntimeConfig::sequential(1);
                crate::Simulator::new(&world.dist, (*world.ptts).clone(), c, rt)
            })
            .collect();
        assert_eq!(Arc::strong_count(&world.dist.pop), before + 4);
        assert_eq!(Arc::strong_count(&sweep), sweep_before + 4);
        drop(sims);
        assert_eq!(Arc::strong_count(&world.dist.pop), before);
    }

    #[test]
    fn surrogate_monotone_in_transmissibility() {
        let (dist, cfg) = setup();
        let world = CowWorld::build(&dist, flu_model());
        let graph = surrogate::ContactGraph::build(&world.dist.pop);
        assert!(graph.n_edges() > 0);
        let rs = [0.0001, 0.0004, 0.0012, 0.003, 0.008];
        let spec = EnsembleSpec::grid(&cfg, &rs, 4);
        let scores = surrogate::screen(&graph, &world, &spec);
        for w in scores.windows(2) {
            assert!(
                w[0].mean_attack <= w[1].mean_attack,
                "surrogate not monotone: {w:?}"
            );
        }
    }

    #[test]
    fn surrogate_expected_infectivity_days_flu() {
        // flu: incubating ι=0.25 for 1 day, then symptomatic ι=1.0 or
        // asymptomatic ι=0.5 for E[uniform(3,6)]=4.5 days.
        let d = surrogate::expected_infectivity_days(&flu_model());
        assert!(d > 2.5 && d < 5.5, "d_inf {d}");
    }
}
