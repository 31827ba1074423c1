//! The world cache: set-up paid once per world, not once per job.
//!
//! A job's world — the synthetic population and its partition — is fully
//! determined by a handful of spec fields ([`WorldSpec`]), and building it
//! (`synthpop` + `graph-part`) costs several simulated days. The paper
//! never pays that inside a run: METIS partitions offline and the
//! simulator loads a ready data distribution. The pool does the same
//! across jobs: every lease takes its world from one [`WorldCache`], so a
//! repeated spec starts at day 0 instead of at the partitioner (DESIGN.md
//! §12 "World cache").
//!
//! * **Single-flight.** The map holds one `OnceLock` per spec and its lock
//!   is never held while a world is built, so two leases for one cold spec
//!   build it once: the second waits on the cell.
//! * **Bounded.** A kept world is charged
//!   [`DataDistribution::heap_bytes`] against a byte budget; the least
//!   recently used worlds are evicted first, ordered by a use counter
//!   rather than a clock (simlint R2). A world larger than the whole budget
//!   is handed to its lease and not kept.
//! * **Hash-neutral by construction.** A cached world is the same
//!   `DataDistribution` a fresh build produces, and the same distribution
//!   gives the same curve.

use crate::job::JobSpec;
use episim_core::{DataDistribution, Strategy};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use synthpop::{Population, PopulationConfig};

/// The server's world budget: about 140 worlds of 2k people (≈ 460 KB
/// each, the sweep layout included), or one of the largest a spec may
/// ask for (`MAX_POP_SIZE` people, ≈ 46 MB).
pub(crate) const WORLD_CACHE_BUDGET: usize = 64 << 20;

/// Everything a world depends on, and nothing else: the cache key. DSL
/// text, `r`, days, engine, PEs, priority and throttle are not part of it,
/// so jobs that differ only in those share one world.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct WorldSpec {
    /// Population code (the job's name).
    pub name: String,
    /// Persons to generate.
    pub pop_size: u32,
    /// Population generator seed.
    pub pop_seed: u64,
    /// Distribution strategy.
    pub strategy: Strategy,
    /// Partitions.
    pub n_partitions: u32,
    /// Partition seed: the job's effective simulation seed.
    pub seed: u64,
}

impl WorldSpec {
    /// The world a job runs on, given its effective simulation seed.
    pub fn of(spec: &JobSpec, seed: u64) -> WorldSpec {
        WorldSpec {
            name: spec.name.clone(),
            pop_size: spec.hints.pop_size,
            pop_seed: spec.hints.pop_seed,
            strategy: Strategy::GraphPartition,
            n_partitions: spec.hints.n_partitions,
            seed,
        }
    }

    /// Build the world. Deterministic in the spec: the same fields always
    /// produce the same population and distribution, which is what makes
    /// served curve hashes comparable to direct runs of the same job.
    pub fn build(&self) -> DataDistribution {
        let pop = Population::generate(&PopulationConfig::small(
            &self.name,
            self.pop_size,
            self.pop_seed,
        ));
        DataDistribution::build(&pop, self.strategy, self.n_partitions, self.seed)
    }
}

/// What the cache has done since the server started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorldCacheStats {
    /// Lookups that found their spec's world built or being built.
    pub hits: u64,
    /// Lookups that started a build.
    pub misses: u64,
    /// Kept worlds dropped to get back under the budget.
    pub evictions: u64,
    /// Bytes of the worlds kept.
    pub resident_bytes: usize,
    /// Worlds kept.
    pub entries: usize,
}

type Cell = Arc<OnceLock<Arc<DataDistribution>>>;

struct Entry {
    cell: Cell,
    /// Bytes charged once built and kept; `None` while the build is in
    /// flight, which also keeps the entry out of eviction.
    bytes: Option<usize>,
    /// Value of the use counter at the last lookup.
    last_use: u64,
}

struct Worlds {
    entries: BTreeMap<WorldSpec, Entry>,
    uses: u64,
    stats: WorldCacheStats,
}

/// A bounded, single-flight map from [`WorldSpec`] to its built world.
pub(crate) struct WorldCache {
    budget: usize,
    worlds: Mutex<Worlds>,
}

impl WorldCache {
    /// An empty cache that keeps at most `budget` bytes of worlds.
    pub fn new(budget: usize) -> WorldCache {
        WorldCache {
            budget,
            worlds: Mutex::new(Worlds {
                entries: BTreeMap::new(),
                uses: 0,
                stats: WorldCacheStats::default(),
            }),
        }
    }

    fn lock_worlds(&self) -> MutexGuard<'_, Worlds> {
        match self.worlds.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    /// Counters and occupancy.
    pub fn stats(&self) -> WorldCacheStats {
        self.lock_worlds().stats
    }

    /// The world for `spec`: the kept one, the one another lease is
    /// building (waiting for it), or a new build.
    pub fn get(&self, spec: &WorldSpec) -> Arc<DataDistribution> {
        // The sweep layout is built with the world, so its bytes are
        // charged with it.
        self.get_or_build(spec, |spec| {
            let world = spec.build();
            world.sweep_layout();
            world
        })
    }

    fn get_or_build(
        &self,
        spec: &WorldSpec,
        build: impl FnOnce(&WorldSpec) -> DataDistribution,
    ) -> Arc<DataDistribution> {
        let cell = {
            let mut guard = self.lock_worlds();
            let w = &mut *guard;
            w.uses += 1;
            let now = w.uses;
            match w.entries.get_mut(spec) {
                Some(e) => {
                    w.stats.hits += 1;
                    e.last_use = now;
                    Arc::clone(&e.cell)
                }
                None => {
                    w.stats.misses += 1;
                    let cell = Cell::default();
                    w.entries.insert(
                        spec.clone(),
                        Entry {
                            cell: Arc::clone(&cell),
                            bytes: None,
                            last_use: now,
                        },
                    );
                    cell
                }
            }
        };
        // Built outside the lock; whoever reaches the cell first builds,
        // everyone else for this spec blocks on the cell until it is set.
        let mut built = false;
        let world = catch_unwind(AssertUnwindSafe(|| {
            Arc::clone(cell.get_or_init(|| {
                built = true;
                Arc::new(build(spec))
            }))
        }));
        match world {
            Ok(world) => {
                if built {
                    self.admit(spec, &cell, world.heap_bytes());
                }
                world
            }
            Err(panic) => {
                // Nothing is cached for a build that panicked; the lease
                // fails with the panic. (A lease that was waiting on the
                // cell may retry the build and, if it was quick enough,
                // have admitted its world already: that one stays.)
                let mut w = self.lock_worlds();
                if w.entries
                    .get(spec)
                    .is_some_and(|e| Arc::ptr_eq(&e.cell, &cell) && e.bytes.is_none())
                {
                    w.entries.remove(spec);
                }
                drop(w);
                resume_unwind(panic)
            }
        }
    }

    /// Charge a world just built into `cell` and evict least recently used
    /// worlds until the cache is back under budget. A world larger than
    /// the whole budget leaves the map: its lease has it, the cache does
    /// not keep it.
    fn admit(&self, spec: &WorldSpec, cell: &Cell, bytes: usize) {
        let mut guard = self.lock_worlds();
        let w = &mut *guard;
        // Absent only when a panicked build of the same cell removed it.
        let Some(entry) = w
            .entries
            .get_mut(spec)
            .filter(|e| Arc::ptr_eq(&e.cell, cell))
        else {
            return;
        };
        if bytes > self.budget {
            w.entries.remove(spec);
            return;
        }
        entry.bytes = Some(bytes);
        w.stats.resident_bytes += bytes;
        w.stats.entries += 1;
        while w.stats.resident_bytes > self.budget {
            let Some((_, victim, bytes)) = w
                .entries
                .iter()
                .filter_map(|(spec, e)| Some((e.last_use, spec, e.bytes?)))
                .min()
            else {
                break;
            };
            let victim = victim.clone();
            w.entries.remove(&victim);
            w.stats.resident_bytes -= bytes;
            w.stats.entries -= 1;
            w.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timer::Deadline;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn world(name: &str, pop_size: u32, n_partitions: u32) -> WorldSpec {
        WorldSpec {
            name: name.to_string(),
            pop_size,
            pop_seed: 5,
            strategy: Strategy::GraphPartition,
            n_partitions,
            seed: 42,
        }
    }

    /// Eight leases ask for one cold spec at once: the world is built once
    /// and all eight share it. The builder holds its build open until every
    /// thread has looked the spec up, so seven of them really do wait on
    /// the cell rather than arriving after it was set.
    #[test]
    fn eight_leases_for_one_cold_spec_build_it_once() {
        const LEASES: usize = 8;
        let cache = WorldCache::new(WORLD_CACHE_BUDGET);
        let spec = world("flight", 300, 2);
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(LEASES);
        let looked_up = || {
            let st = cache.stats();
            st.hits + st.misses
        };
        let worlds: Vec<Arc<DataDistribution>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..LEASES)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.get_or_build(&spec, |s| {
                            builds.fetch_add(1, Ordering::SeqCst);
                            let deadline = Deadline::after(Duration::from_secs(60));
                            while looked_up() < LEASES as u64 {
                                assert!(!deadline.expired(), "not every lease looked up");
                                std::thread::yield_now();
                            }
                            s.build()
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lease thread"))
                .collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one build for one spec");
        assert!(worlds.iter().all(|w| Arc::ptr_eq(w, &worlds[0])));
        let st = cache.stats();
        assert_eq!((st.misses, st.hits), (1, LEASES as u64 - 1));
        assert_eq!(st.entries, 1);
        assert_eq!(st.resident_bytes, worlds[0].heap_bytes());
    }

    /// What the cache charges for `spec`'s world.
    fn charged(spec: &WorldSpec) -> usize {
        let built = spec.build();
        built.sweep_layout();
        built.heap_bytes()
    }

    /// A world is charged its population's arrays; per person its
    /// partition, local slot and entry in its partition's list; per
    /// location those three and its original id; two offset arrays of
    /// `k + 1`; and, once built, the sweep layout.
    #[test]
    fn the_charge_covers_the_index_maps_and_the_sweep_layout() {
        use std::mem::size_of_val;
        let spec = world("maps", 300, 3);
        let w = spec.build();
        let pop = &w.pop;
        let arrays = pop.code.len()
            + size_of_val(pop.people.as_slice())
            + size_of_val(pop.locations.as_slice())
            + size_of_val(pop.visits.as_slice())
            + size_of_val(pop.person_offsets.as_slice());
        let (people, locations) = (pop.n_people() as usize, pop.n_locations() as usize);
        let maps = 4 * (3 * people + 4 * locations + 2 * (3 + 1));
        assert_eq!(w.heap_bytes(), arrays + maps);
        assert_eq!(
            charged(&spec),
            arrays + maps + w.sweep_layout().heap_bytes()
        );
    }

    /// With room for one and a half small worlds, a second small world
    /// evicts the least recently used one, and a world larger than the
    /// whole budget is returned without being kept or evicting anything.
    #[test]
    fn budget_evicts_least_recently_used_and_skips_oversized_worlds() {
        // Same population, different partition counts: about equal sizes.
        let (a, b) = (world("small", 200, 2), world("small", 200, 4));
        let (bytes_a, bytes_b) = (charged(&a), charged(&b));
        let budget = bytes_a.max(bytes_b) * 3 / 2;
        assert!(bytes_a + bytes_b > budget);
        let cache = WorldCache::new(budget);

        let first_a = cache.get(&a);
        assert!(Arc::ptr_eq(&cache.get(&a), &first_a), "a is kept");
        cache.get(&b);
        let st = cache.stats();
        assert_eq!((st.misses, st.hits, st.evictions), (2, 1, 1));
        assert_eq!((st.entries, st.resident_bytes), (1, bytes_b));

        let big = world("big", 600, 2);
        let oversized = cache.get(&big);
        assert!(oversized.heap_bytes() > budget);
        let st = cache.stats();
        assert_eq!(st.evictions, 1, "an oversized world evicts nothing");
        assert_eq!((st.entries, st.resident_bytes), (1, bytes_b));

        cache.get(&b);
        assert_eq!(cache.stats().hits, 2, "b survived both");
        cache.get(&big);
        assert_eq!(cache.stats().misses, 4, "the oversized world was not kept");
        cache.get(&a);
        assert_eq!(cache.stats().misses, 5, "a was the one evicted");
    }

    /// A build that panics caches nothing: the panic reaches the lease,
    /// and the next lookup builds afresh.
    #[test]
    fn a_panicking_build_caches_nothing() {
        let cache = WorldCache::new(WORLD_CACHE_BUDGET);
        let spec = world("doomed", 100, 2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_build(&spec, |_| panic!("generator bug"))
        }));
        assert!(outcome.is_err());
        assert_eq!(cache.stats().entries, 0);
        let w = cache.get(&spec);
        let st = cache.stats();
        assert_eq!((st.misses, st.hits, st.entries), (2, 0, 1));
        assert_eq!(st.resident_bytes, w.heap_bytes());
        assert_eq!(st.resident_bytes, charged(&spec));
        assert!(
            w.heap_bytes() > spec.build().heap_bytes(),
            "the charge covers the sweep layout"
        );
    }
}
