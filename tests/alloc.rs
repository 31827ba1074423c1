//! Allocations per simulated day. After day 0 has sized the buffers, a day
//! allocates a fixed handful of times plus a bounded number per message it
//! sends, so a quiet day costs the same number of allocations at any
//! population. A per-visit, per-person or per-group allocation on the day
//! loop breaks the bound.
//!
//! The counter is process-wide, so this binary holds exactly one test and
//! no other test can allocate while it counts.

use episimdemics::chare_rt::RuntimeConfig;
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::simulator::{Carry, SimConfig, Simulator};
use episimdemics::ptts::flu_model;
use episimdemics::synthpop::{Population, PopulationConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation. The trait's default
/// `alloc_zeroed` and `realloc` go through `alloc`, so they count once each.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter increment, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `alloc` contract is passed to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: the caller's `dealloc` contract is passed to `System` as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DAYS: u32 = 40;
/// Allocations any day may make, whatever it sends.
const PER_DAY: u64 = 8;
/// Allocations each sent message may add. A lane's next buffer is sized
/// from the batch it last sent, so a sent batch costs its buffer and the
/// runtime's envelope; the worst day (the first after warm-up) reads 4.
const PER_MESSAGE: u64 = 5;

/// One world's days 1.. as `(allocations, messages sent)`, with day 0 as
/// warm-up, plus the run's cumulative infections.
fn day_counts(people: u32, k: u32, r: f64) -> (Vec<(u64, u64)>, u64) {
    let pop = Population::generate(&PopulationConfig::small("A", people, 5));
    let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, k, 5);
    let cfg = SimConfig {
        days: DAYS,
        r,
        seed: 5,
        stop_when_extinct: false,
        ..SimConfig::default()
    };
    let mut carry = Carry::new(cfg.interventions.clone(), cfg.initial_infections.into());
    let mut sim = Simulator::new(&dist, flu_model(), cfg, RuntimeConfig::sequential(2));
    let mut days = Vec::with_capacity(DAYS as usize);
    for day in 0..DAYS {
        let before = ALLOCS.load(Ordering::Relaxed);
        let (_, perf, _) = sim.run_days(day, day + 1, &mut carry);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let sent = perf[0].person_phase.totals().sent_total()
            + perf[0].location_phase.totals().sent_total();
        if day > 0 {
            days.push((allocs, sent));
        }
    }
    (days, carry.cumulative)
}

#[test]
fn a_day_allocates_a_constant_plus_a_bounded_amount_per_message() {
    let takeoff = day_counts(3_000, 4, 4e-4);
    let quiet = day_counts(3_000, 4, 1e-6);
    let quiet_large = day_counts(12_000, 8, 1e-6);
    assert!(
        takeoff.1 > 1_500,
        "the r = 4e-4 world must take off: {} of 3000 infected",
        takeoff.1
    );

    for (name, (days, _)) in [
        ("3k takeoff", &takeoff),
        ("3k quiet", &quiet),
        ("12k quiet", &quiet_large),
    ] {
        for (day, &(allocs, sent)) in (1..).zip(days) {
            assert!(
                allocs <= PER_DAY + PER_MESSAGE * sent,
                "{name} day {day}: {allocs} allocations for {sent} messages"
            );
        }
    }

    let silent = |days: &[(u64, u64)]| -> Vec<u64> {
        days.iter()
            .filter(|&&(_, sent)| sent == 0)
            .map(|&(allocs, _)| allocs)
            .collect()
    };
    let (small, large) = (silent(&quiet.0), silent(&quiet_large.0));
    assert!(
        !small.is_empty() && !large.is_empty(),
        "both quiet worlds must have silent days"
    );
    assert!(
        small.iter().chain(&large).all(|&a| a == small[0]),
        "a silent day must allocate the same at 3k and 12k: {small:?} vs {large:?}"
    );
}
