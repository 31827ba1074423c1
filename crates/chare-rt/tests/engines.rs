//! Property test: the sequential, threaded and DST engines — under any SMP
//! topology and PE count — produce identical application results for
//! randomized message storms.

use chare_rt::{
    Chare, ChareId, Ctx, ExecMode, FaultPlan, Message, Runtime, RuntimeConfig, SmpConfig,
};
use proptest::prelude::*;

#[derive(Debug)]
struct Storm {
    hops: u32,
    value: u64,
}
impl Message for Storm {}

/// A chare that mixes its state with incoming values and fans out to
/// pseudo-random (but deterministic) targets.
struct Mixer {
    id: u64,
    n_chares: u32,
    acc: u64,
}

fn mix(x: u64) -> u64 {
    // SplitMix64 finalizer: deterministic target selection.
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Chare<Storm> for Mixer {
    fn receive(&mut self, msg: Storm, ctx: &mut Ctx<'_, Storm>) {
        let h = mix(msg.value ^ self.id);
        self.acc = self.acc.wrapping_add(h);
        ctx.contribute(0, h & 0xFFFF);
        ctx.contribute(1, 1);
        if msg.hops > 0 {
            // Fan out to one or two deterministic targets.
            let t1 = (h % self.n_chares as u64) as u32;
            ctx.send(
                ChareId(t1),
                Storm {
                    hops: msg.hops - 1,
                    value: h,
                },
            );
            if h & 1 == 1 {
                let t2 = ((h >> 32) % self.n_chares as u64) as u32;
                ctx.send(
                    ChareId(t2),
                    Storm {
                        hops: msg.hops - 1,
                        value: h ^ 0xABCD,
                    },
                );
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

fn run_storm(cfg: RuntimeConfig, n_chares: u32, hops: u32, seeds: &[u64]) -> (u64, u64) {
    let mut rt = Runtime::new(cfg);
    for i in 0..n_chares {
        rt.add_chare(
            ChareId(i),
            i % cfg.n_pes,
            Box::new(Mixer {
                id: i as u64,
                n_chares,
                acc: 0,
            }),
        );
    }
    let injections = seeds
        .iter()
        .map(|&s| {
            (
                ChareId((s % n_chares as u64) as u32),
                Storm { hops, value: s },
            )
        })
        .collect();
    let stats = rt.run_phase(injections);
    (stats.reduction(0), stats.reduction(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_engine_configs_agree(
        n_chares in 2u32..40,
        hops in 0u32..8,
        pes in 1u32..6,
        pes_per_process in 1u32..4,
        seed in 0u64..1000,
    ) {
        let seeds: Vec<u64> = (0..4).map(|i| mix(seed + i)).collect();
        let make = |mode: ExecMode, n_pes: u32| RuntimeConfig {
            n_pes,
            mode,
            smp: SmpConfig { pes_per_process },
            aggregation: Default::default(),
            faults: FaultPlan::none(0),
            watchdog_secs: 30,
            net: Default::default(),
        };
        // Reference: one sequential PE.
        let reference = run_storm(make(ExecMode::Sequential, 1), n_chares, hops, &seeds);
        prop_assert!(reference.1 >= seeds.len() as u64);
        // Sequential at the sampled width.
        let seq = run_storm(make(ExecMode::Sequential, pes), n_chares, hops, &seeds);
        prop_assert_eq!(seq, reference);
        // Threaded at a modest width (thread spawn cost bounds the sweep).
        let thr = run_storm(make(ExecMode::Threads, pes.min(3)), n_chares, hops, &seeds);
        prop_assert_eq!(thr, reference);
        // The DST engine under a chaotic-but-benign fault plan must agree
        // too: delivery timing is not allowed to change application results.
        let mut dst = make(ExecMode::VirtualTime, pes);
        dst.faults = FaultPlan::chaos(seed);
        let vt = run_storm(dst, n_chares, hops, &seeds);
        prop_assert_eq!(vt, reference);
    }
}
