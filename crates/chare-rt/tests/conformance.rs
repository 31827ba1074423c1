//! Cross-engine conformance: the sequential, threaded, and virtual-time
//! DST engines must produce identical application results for the same
//! workload under every benign fault plan — and the deliberately lossy
//! plan (the negative control) must be caught, not absorbed.

use chare_rt::{
    Chare, ChareId, Ctx, ExecMode, FaultPlan, Message, PeStats, Runtime, RuntimeConfig, SmpConfig,
};

#[derive(Debug)]
struct Storm {
    hops: u32,
    value: u64,
}
impl Message for Storm {}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Mixes incoming values into per-chare state and fans out to
/// pseudo-random (deterministic) targets — a storm whose result is a
/// fingerprint of exactly which messages were delivered.
struct Mixer {
    id: u64,
    n_chares: u32,
    acc: u64,
}

impl Chare<Storm> for Mixer {
    fn receive(&mut self, msg: Storm, ctx: &mut Ctx<'_, Storm>) {
        let h = mix(msg.value ^ self.id);
        self.acc = self.acc.wrapping_add(h);
        ctx.contribute(0, h & 0xFFFF);
        ctx.contribute(1, 1);
        if msg.hops > 0 {
            ctx.send(
                ChareId((h % self.n_chares as u64) as u32),
                Storm {
                    hops: msg.hops - 1,
                    value: h,
                },
            );
            if h & 1 == 1 {
                ctx.send(
                    ChareId(((h >> 32) % self.n_chares as u64) as u32),
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

const N_CHARES: u32 = 24;
const HOPS: u32 = 6;

/// Run the storm and return (result fingerprint, messages processed,
/// messages lost).
fn run_storm(cfg: RuntimeConfig, app_seed: u64) -> (u64, u64, u64) {
    let (fp, totals) = run_storm_totals(cfg, app_seed);
    (fp, totals.processed, totals.lost)
}

/// Run the storm and return its result fingerprint and the counters summed
/// over PEs.
fn run_storm_totals(cfg: RuntimeConfig, app_seed: u64) -> (u64, PeStats) {
    let mut rt = Runtime::new(cfg);
    for i in 0..N_CHARES {
        rt.add_chare(
            ChareId(i),
            i % cfg.n_pes,
            Box::new(Mixer {
                id: i as u64,
                n_chares: N_CHARES,
                acc: 0,
            }),
        );
    }
    let injections = (0..3)
        .map(|i| {
            let s = mix(app_seed.wrapping_add(i));
            (
                ChareId((s % N_CHARES as u64) as u32),
                Storm {
                    hops: HOPS,
                    value: s,
                },
            )
        })
        .collect();
    let stats = rt.run_phase(injections);
    let totals = stats.totals();
    // Fold chare state into the fingerprint too: results must agree not
    // just in the reductions but in every chare's final accumulator.
    let mut fp = stats.reduction(0) ^ stats.reduction(1).rotate_left(17);
    for (id, chare) in rt.into_chares() {
        let m = chare.into_any().downcast::<Mixer>().unwrap();
        fp = mix(fp ^ mix(id.0 as u64) ^ m.acc);
    }
    (fp, totals)
}

fn base(mode: ExecMode, n_pes: u32) -> RuntimeConfig {
    RuntimeConfig {
        mode,
        smp: SmpConfig { pes_per_process: 2 },
        watchdog_secs: 60,
        ..RuntimeConfig::sequential(n_pes)
    }
}

/// The tentpole grid: 8 application seeds × every benign fault plan (each
/// re-seeded per cell), across all three engines. One fingerprint per
/// seed, no exceptions.
#[test]
fn conformance_grid_all_engines_all_benign_plans() {
    for app_seed in 0..8u64 {
        let (fp, processed, lost) = run_storm(base(ExecMode::Sequential, 4), app_seed);
        assert_eq!(lost, 0);
        let thr = run_storm(base(ExecMode::Threads, 3), app_seed);
        assert_eq!(thr.0, fp, "threaded diverged (seed {app_seed})");
        assert_eq!(thr.1, processed);
        for (pi, plan) in FaultPlan::GRID.iter().enumerate() {
            for fault_seed in [app_seed * 31 + 1, app_seed * 31 + 2] {
                let mut cfg = base(ExecMode::VirtualTime, 4);
                cfg.faults = plan.with_seed(fault_seed);
                let vt = run_storm(cfg, app_seed);
                assert_eq!(
                    vt.0, fp,
                    "DST diverged: plan {pi} {plan:?}, app seed {app_seed}, fault seed {fault_seed}"
                );
                assert_eq!(vt.1, processed, "plan {pi} changed the message count");
                assert_eq!(vt.2, 0, "benign plan {pi} lost messages");
            }
        }
    }
}

/// Negative control: a transport that drops without redelivery must be
/// *caught* — results diverge and the loss is reported. A conformance
/// suite that passes under this plan is not testing anything.
#[test]
fn negative_control_lossy_plan_is_caught() {
    let (fp, processed, _) = run_storm(base(ExecMode::Sequential, 4), 0);
    let mut cfg = base(ExecMode::VirtualTime, 4);
    cfg.faults = FaultPlan::lossy(1);
    let (lossy_fp, lossy_processed, lost) = run_storm(cfg, 0);
    assert!(lost > 0, "lossy plan must report lost messages");
    assert_ne!(lossy_fp, fp, "lossy plan must change the fingerprint");
    assert!(lossy_processed < processed);

    // Partial loss is caught too, not just total blackout.
    let mut partial = FaultPlan::lossy(3);
    partial.drop_permille = 250;
    let mut cfg = base(ExecMode::VirtualTime, 4);
    cfg.faults = partial;
    let (pfp, _, plost) = run_storm(cfg, 0);
    assert!(plost > 0);
    assert_ne!(pfp, fp);
}

/// Bounded liveness under stalls: long injected stall windows may slow
/// virtual time but completion detection must still fire every phase (the
/// engine asserts CD fires at quiescence and never early; this drives it
/// through many stalled phases back-to-back).
#[test]
fn completion_detection_survives_heavy_stalls() {
    let mut plan = FaultPlan::stalls(17);
    plan.stall_permille = 400;
    plan.stall_ticks = 20_000;
    let mut cfg = base(ExecMode::VirtualTime, 6);
    cfg.faults = plan;
    let mut rt: Runtime<Storm> = Runtime::new(cfg);
    for i in 0..N_CHARES {
        rt.add_chare(
            ChareId(i),
            i % 6,
            Box::new(Mixer {
                id: i as u64,
                n_chares: N_CHARES,
                acc: 0,
            }),
        );
    }
    let mut last = None;
    for phase in 0..5u64 {
        let stats = rt.run_phase(vec![(
            ChareId((phase % N_CHARES as u64) as u32),
            Storm {
                hops: HOPS,
                value: mix(phase),
            },
        )]);
        assert!(stats.totals().processed > 0, "phase {phase} did no work");
        assert_eq!(stats.totals().lost, 0);
        last = Some(stats.totals().processed);
    }
    assert!(last.is_some());
}

/// The threaded engine's watchdog must be inert on healthy runs: phases
/// complete well inside the deadline with the watchdog armed.
#[test]
fn threaded_watchdog_inert_on_healthy_phases() {
    let mut cfg = base(ExecMode::Threads, 3);
    cfg.watchdog_secs = 30;
    let healthy = run_storm(cfg, 5);
    let reference = run_storm(base(ExecMode::Sequential, 3), 5);
    assert_eq!(healthy.0, reference.0);
}

/// Every PE its own process: every cross-PE message takes the network
/// path, and the DST engine under chaos must still agree with sequential.
#[test]
fn dst_agrees_with_sequential_when_every_pe_is_a_process() {
    let reference = run_storm(base(ExecMode::Sequential, 4), 2).0;
    let mut cfg = base(ExecMode::VirtualTime, 4);
    cfg.smp.pes_per_process = 1;
    cfg.faults = FaultPlan::chaos(13);
    let (got, totals) = run_storm_totals(cfg, 2);
    assert_eq!(got, reference);
    assert_eq!(totals.network_packets, totals.sent_remote);
}
