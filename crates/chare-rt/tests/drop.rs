//! Dropping a threaded `Runtime` without `into_chares` must stop and join
//! its PE threads and free their chares, PE 0's included.
//!
//! This file holds exactly one test so the process's thread count is its
//! own: `/proc/self/task` would be noisy next to tests that spawn threads.
#![cfg(target_os = "linux")]

use chare_rt::{Chare, ChareId, Ctx, Message, Runtime, RuntimeConfig};
use std::sync::Arc;

#[derive(Debug)]
struct Ping;
impl Message for Ping {}

/// Holds a share of `probe`, so the probe's strong count says how many of
/// these chares are still alive somewhere.
struct Holder {
    _probe: Arc<()>,
}

impl Chare<Ping> for Holder {
    fn receive(&mut self, _msg: Ping, ctx: &mut Ctx<'_, Ping>) {
        ctx.contribute(0, 1);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// `join` returns when the kernel clears the thread's tid, a moment before
/// its `/proc` entry goes; give that a bounded wait (about 5 s). A leaked
/// thread never goes, so the leak still fails.
fn threads_settle_to(expected: usize) -> bool {
    for _ in 0..5000 {
        if os_threads() == expected {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    false
}

#[test]
fn dropped_threaded_runtime_joins_its_pe_threads() {
    const N_PES: u32 = 2;
    let probe = Arc::new(());
    let baseline = os_threads();
    for round in 0..5 {
        let mut rt: Runtime<Ping> = Runtime::new(RuntimeConfig::threaded(N_PES));
        for i in 0..4u32 {
            let holder = Holder {
                _probe: probe.clone(),
            };
            rt.add_chare(ChareId(i), i % N_PES, Box::new(holder));
        }
        let stats = rt.run_phase((0..4).map(|i| (ChareId(i), Ping)).collect());
        assert_eq!(stats.reduction(0), 4, "round {round}");
        assert_eq!(Arc::strong_count(&probe), 5);
        // PE 0 runs on the caller's thread: one spawned thread per other PE.
        assert_eq!(os_threads(), baseline + N_PES as usize - 1);
        drop(rt);
        assert_eq!(
            Arc::strong_count(&probe),
            1,
            "round {round}: chares outlived their runtime"
        );
        assert!(
            threads_settle_to(baseline),
            "round {round}: PE threads outlived their runtime ({} tasks, baseline {baseline})",
            os_threads()
        );
    }
    // A runtime that never ran a phase has no threads to stop.
    let mut idle: Runtime<Ping> = Runtime::new(RuntimeConfig::threaded(N_PES));
    idle.add_chare(
        ChareId(0),
        0,
        Box::new(Holder {
            _probe: probe.clone(),
        }),
    );
    drop(idle);
    assert_eq!(Arc::strong_count(&probe), 1);
}
