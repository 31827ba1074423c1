//! Live heap bytes per person that `Simulator::new` adds to a built world:
//! the PersonManagers' person state and bookkeeping, the LocationManagers'
//! caches and the runtime, on the ensemble sweep's world shape (10k
//! people, GP k = 4, seed 42) with the world's sweep layout built first.
//!
//! The counter is process-wide, so this binary holds exactly one test and
//! no other test can allocate while it counts.

use episimdemics::chare_rt::RuntimeConfig;
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::simulator::{SimConfig, Simulator};
use episimdemics::ptts::flu_model;
use episimdemics::synthpop::{Population, PopulationConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes: an allocation adds its size
/// and a deallocation subtracts it. The trait's default `alloc_zeroed` and
/// `realloc` go through these two, so they count too.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter update, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `alloc` contract is passed to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: the caller's `dealloc` contract is passed to `System` as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PEOPLE: u32 = 10_000;
/// Live bytes per person `Simulator::new` may hold. It read 106.0
/// (1,060,081 B) when every person slot still carried the oracle's pending
/// infection and each PersonManager kept a 12-byte infected-today entry
/// per person; with each person fact stored once it reads 84.0 (839,985 B).
/// Each later change that shrinks the per-person engine state lowers this
/// bound.
const MAX_BYTES_PER_PERSON: f64 = 85.0;

#[test]
fn a_simulator_holds_a_bounded_number_of_bytes_per_person() {
    let pop = Population::generate(&PopulationConfig::small("EPB", PEOPLE, 42));
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 42);
    dist.sweep_layout();
    let (ptts, cfg) = (flu_model(), SimConfig::default());

    let before = LIVE.load(Ordering::Relaxed);
    let sim = Simulator::new(&dist, ptts, cfg, RuntimeConfig::sequential(1));
    let live = LIVE.load(Ordering::Relaxed).wrapping_sub(before);
    drop(sim);

    let per_person = live as f64 / f64::from(PEOPLE);
    assert!(
        per_person <= MAX_BYTES_PER_PERSON,
        "Simulator::new holds {live} live bytes, {per_person:.1} per person \
         (bound {MAX_BYTES_PER_PERSON})"
    );
    eprintln!("Simulator::new: {live} live bytes, {per_person:.1} per person");
}
