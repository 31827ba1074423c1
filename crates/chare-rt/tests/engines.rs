//! Property test: the sequential, threaded, DST and single-process net
//! engines — under any SMP topology and PE count — produce identical
//! application results for randomized message storms, one-stage and
//! staged, and at equal width and topology identical per-PE message
//! counters, stage by stage.

use chare_rt::{
    Chare, ChareId, Ctx, ExecMode, FaultPlan, Message, Runtime, RuntimeConfig, SmpConfig,
};
use proptest::prelude::*;

#[derive(Debug)]
struct Storm {
    hops: u32,
    value: u64,
    /// Contribute what the chare has accumulated instead of mixing: a
    /// report run before the stages ahead of it are complete misses some
    /// of their values.
    report: bool,
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
        if msg.report {
            ctx.contribute(2, self.acc & 0xFFFF_FFFF);
            return;
        }
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
                    report: false,
                },
            );
            if h & 1 == 1 {
                let t2 = ((h >> 32) % self.n_chares as u64) as u32;
                ctx.send(
                    ChareId(t2),
                    Storm {
                        hops: msg.hops - 1,
                        value: h ^ 0xABCD,
                        report: false,
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
/// One stage's reductions (slots 0–2) and per-PE counters.
type StageOutcome = ([u64; 3], Counts);
/// A phase's injections, stage by stage.
type Stages = Vec<Vec<(ChareId, Storm)>>;

/// Storms of `hops` hops from `seeds`.
fn storms(n_chares: u32, hops: u32, seeds: &[u64]) -> Vec<(ChareId, Storm)> {
    let storm = |&value: &u64| {
        let to = ChareId((value % n_chares as u64) as u32);
        let report = false;
        (
            to,
            Storm {
                hops,
                value,
                report,
            },
        )
    };
    seeds.iter().map(storm).collect()
}

/// A report from every chare.
fn reports(n_chares: u32) -> Vec<(ChareId, Storm)> {
    let report = |i| {
        let (hops, value, report) = (0, 0, true);
        (
            ChareId(i),
            Storm {
                hops,
                value,
                report,
            },
        )
    };
    (0..n_chares).map(report).collect()
}

fn run_storm(cfg: RuntimeConfig, n_chares: u32, stages: Stages) -> Vec<StageOutcome> {
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
    let outcome = |stats: chare_rt::PhaseStats| {
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
        ([0, 1, 2].map(|slot| stats.reduction(slot)), counts)
    };
    rt.run_stages(stages).into_iter().map(outcome).collect()
}

/// Every engine runs the phase `stages()` builds and agrees with one
/// sequential PE on each stage's reductions; at equal width and topology
/// the engines agree on each stage's per-PE counters too.
fn engines_agree(
    n_chares: u32,
    pes: u32,
    pes_per_process: u32,
    seed: u64,
    stages: impl Fn() -> Stages,
) {
    let make = |mode: ExecMode, n_pes: u32| RuntimeConfig {
        n_pes,
        mode,
        smp: SmpConfig { pes_per_process },
        aggregation: Default::default(),
        faults: FaultPlan::none(0),
        watchdog_secs: 30,
        net: Default::default(),
    };
    let reductions = |run: &[StageOutcome]| run.iter().map(|s| s.0).collect::<Vec<_>>();
    let counts = |run: &[StageOutcome]| run.iter().map(|s| s.1.clone()).collect::<Vec<_>>();
    // Reference: one sequential PE.
    let reference = reductions(&run_storm(
        make(ExecMode::Sequential, 1),
        n_chares,
        stages(),
    ));
    // Every storm injection runs in its own stage: each stage's storm
    // count (slot 1) is at least its storm injections.
    for (stage, injections) in reference.iter().zip(stages()) {
        let storms = injections.iter().filter(|(_, m)| !m.report).count();
        prop_assert!(stage[1] >= storms as u64, "{:?}", reference);
    }
    // Sequential at the sampled width.
    let seq = run_storm(make(ExecMode::Sequential, pes), n_chares, stages());
    prop_assert_eq!(&reductions(&seq), &reference);
    // Threaded at a modest width (thread spawn cost bounds the sweep),
    // counter for counter against sequential at that width.
    let thr_pes = pes.min(3);
    let thr = run_storm(make(ExecMode::Threads, thr_pes), n_chares, stages());
    prop_assert_eq!(&reductions(&thr), &reference);
    let seq_thr = run_storm(make(ExecMode::Sequential, thr_pes), n_chares, stages());
    prop_assert_eq!(counts(&thr), counts(&seq_thr));
    // The DST engine under every benign fault plan must agree too:
    // delivery timing is not allowed to change application results, nor
    // which PE sent and processed what.
    for plan in FaultPlan::GRID {
        let mut dst = make(ExecMode::VirtualTime, pes);
        dst.faults = plan.with_seed(seed);
        let vt = run_storm(dst, n_chares, stages());
        prop_assert_eq!(&reductions(&vt), &reference, "{:?}", plan);
        prop_assert_eq!(counts(&vt), counts(&seq), "{:?}", plan);
    }
    // A one-process net runtime holds every PE in one process, so it
    // matches sequential with `pes_per_process = n_pes`.
    let mut one_proc = make(ExecMode::Sequential, pes);
    one_proc.smp.pes_per_process = pes;
    let seq_one = run_storm(one_proc, n_chares, stages());
    let mut net = make(ExecMode::Net, pes);
    net.net.n_procs = 1;
    let net = run_storm(net, n_chares, stages());
    prop_assert_eq!(&reductions(&net), &reference);
    prop_assert_eq!(counts(&net), counts(&seq_one));
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
        engines_agree(n_chares, pes, pes_per_process, seed, || {
            vec![storms(n_chares, hops, &seeds)]
        });
    }

    /// A storm, an empty stage, a report from every chare (which sees the
    /// whole first storm only if its stage waited for it), and a second
    /// storm (which must not reach a chare before its report).
    #[test]
    fn staged_storms_agree_across_engines(
        n_chares in 2u32..40,
        hops in 0u32..8,
        pes in 1u32..6,
        pes_per_process in 1u32..4,
        seed in 0u64..1000,
    ) {
        let seeds: Vec<u64> = (0..8).map(|i| mix(seed + i)).collect();
        engines_agree(n_chares, pes, pes_per_process, seed, || {
            vec![
                storms(n_chares, hops, &seeds[..4]),
                vec![],
                reports(n_chares),
                storms(n_chares, hops, &seeds[4..]),
            ]
        });
    }
}
