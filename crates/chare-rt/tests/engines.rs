//! Property test: the sequential, threaded, DST and single-process net
//! engines — under any SMP topology and PE count — produce identical
//! application results for randomized message storms, and at equal width
//! and topology identical per-PE message counters.

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

/// The per-PE counters every engine must agree on at equal width and
/// `SmpConfig`: `[sent_self, sent_intra, sent_remote, network_packets,
/// remote_bytes, processed]`. Busy time and fault counters may differ.
type Counts = Vec<[u64; 6]>;

fn run_storm(cfg: RuntimeConfig, n_chares: u32, hops: u32, seeds: &[u64]) -> ((u64, u64), Counts) {
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
    let counts = stats
        .per_pe
        .iter()
        .map(|p| {
            [
                p.sent_self,
                p.sent_intra,
                p.sent_remote,
                p.network_packets,
                p.remote_bytes,
                p.processed,
            ]
        })
        .collect();
    ((stats.reduction(0), stats.reduction(1)), counts)
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
        let (reference, _) = run_storm(make(ExecMode::Sequential, 1), n_chares, hops, &seeds);
        prop_assert!(reference.1 >= seeds.len() as u64);
        // Sequential at the sampled width.
        let seq = run_storm(make(ExecMode::Sequential, pes), n_chares, hops, &seeds);
        prop_assert_eq!(seq.0, reference);
        // Threaded at a modest width (thread spawn cost bounds the sweep),
        // counter for counter against sequential at that width.
        let thr_pes = pes.min(3);
        let thr = run_storm(make(ExecMode::Threads, thr_pes), n_chares, hops, &seeds);
        prop_assert_eq!(thr.0, reference);
        let seq_thr = run_storm(make(ExecMode::Sequential, thr_pes), n_chares, hops, &seeds);
        prop_assert_eq!(thr.1, seq_thr.1);
        // The DST engine under a chaotic-but-benign fault plan must agree
        // too: delivery timing is not allowed to change application
        // results, nor which PE sent and processed what.
        let mut dst = make(ExecMode::VirtualTime, pes);
        dst.faults = FaultPlan::chaos(seed);
        let vt = run_storm(dst, n_chares, hops, &seeds);
        prop_assert_eq!(vt.0, reference);
        prop_assert_eq!(&vt.1, &seq.1);
        // A one-process net runtime holds every PE in one process, so it
        // matches sequential with `pes_per_process = n_pes`.
        let mut one_proc = make(ExecMode::Sequential, pes);
        one_proc.smp.pes_per_process = pes;
        let seq_one = run_storm(one_proc, n_chares, hops, &seeds);
        let mut net = make(ExecMode::Net, pes);
        net.net.n_procs = 1;
        let net = run_storm(net, n_chares, hops, &seeds);
        prop_assert_eq!(net.0, reference);
        prop_assert_eq!(net.1, seq_one.1);
    }
}
