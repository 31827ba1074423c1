//! The measurements every workload makes on its own world outside the
//! timed loop: the sequential oracle (hash reference and compute floor),
//! and — in the traced pass — the chare-rt sequential engine, the
//! checkpoint round trip, and direct replays of the person phase and the
//! location kernel on the mid-run state.

use crate::common::{drive, fresh_carry, PerfAcc, Report, World};
use crate::measure::{median, ratio, Temp};
use crate::trace::Tracer;
use chare_rt::RuntimeConfig;
use episim_core::checkpoint::{self, Checkpoint};
use episim_core::kernel::{simulate_location_day, InfectivityClasses, KernelScratch};
use episim_core::messages::{DayEffects, VisitMsg};
use episim_core::output::curve_hash;
use episim_core::person::{person_day, PersonSlot};
use episim_core::{SimConfig, Simulator};
use ptts::flu_model;
use std::hint::black_box;

/// `core::seq::run_sequential` on the world: the curve every engine must
/// reproduce bit for bit, and the cost of the bare computation.
pub struct Oracle {
    pub hash: u64,
    pub s_per_day: f64,
}

pub fn oracle(tr: &mut Tracer, world: &World, cfg: &SimConfig) -> Oracle {
    let (curve, wall) = tr.span("oracle.check", |_| {
        episim_core::seq::run_sequential(&world.pop, &flu_model(), cfg)
    });
    Oracle {
        hash: curve.hash(),
        s_per_day: wall / cfg.days as f64,
    }
}

/// Per-layer numbers of the traced pass that do not depend on which
/// engine the workload runs.
pub struct Layers {
    /// `Simulator::new` on the sequential engine.
    pub world_build_s: f64,
    /// `RuntimeConfig::sequential(1)` over the whole run, per day.
    pub seq_s_per_day: f64,
    pub seq_acc: PerfAcc,
    pub person_ns_per_visit: f64,
    pub kernel_ns_per_event: f64,
    pub events_per_day: f64,
    pub infects_per_day: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub bytes_per_person: f64,
}

const REPLAY_REPS: usize = 5;

/// Run the world on the sequential engine with a checkpoint round trip
/// at mid-run (dismantle → capture → save → load → resume_from), then
/// replay the mid-run day through `person_day` and the kernel directly.
/// The stitched curve must hash equal to the oracle's.
pub fn layers(
    tr: &mut Tracer,
    world: &World,
    cfg: &SimConfig,
    oracle_hash: u64,
    report: &mut Report,
) -> Layers {
    let rt = RuntimeConfig::sequential(1);
    let mid = cfg.days / 2;
    let mut acc = PerfAcc::default();

    let (mut sim, world_build_s) = tr.span("core.world_build", |_| {
        Simulator::new(&world.dist, flu_model(), cfg.clone(), rt)
    });
    let mut carry = fresh_carry(cfg, &world.pop);
    let seeds = cfg.initial_infections.min(world.pop.n_people()) as u64;
    let first = drive(
        tr,
        "chare_rt.seq_day",
        &mut sim,
        &mut carry,
        0,
        mid,
        &mut acc,
    );

    let file = Temp::new("checkpoint");
    let ((mid_states, save_s, load_s, bytes, resumed), _) = tr.span("checkpoint.roundtrip", |tr| {
        let ((states, _features), _) = tr.span("core.dismantle", |_| sim.dismantle());
        let mid_states = states.clone();
        let (ckpt, _) = tr.span("checkpoint.capture", |_| {
            checkpoint::capture(mid, seeds, &carry, states)
        });
        let (saved, save_s) = tr.span("checkpoint.save", |_| ckpt.save(file.path()));
        saved.expect("checkpoint save under benchmark/out");
        let bytes = std::fs::metadata(file.path()).map_or(0, |m| m.len());
        let (loaded, load_s) = tr.span("checkpoint.load", |_| Checkpoint::load(file.path()));
        report.gate(loaded.is_ok_and(|c| c == ckpt), || {
            "checkpoint did not load back equal to what was saved".to_string()
        });
        let (resumed, _) = tr.span("checkpoint.resume_from", |_| {
            Simulator::resume_from(file.path(), &world.dist, flu_model(), cfg.clone(), rt)
        });
        (mid_states, save_s, load_s, bytes, resumed)
    });
    let mut resumed = resumed.expect("resume from the checkpoint just written");
    let second = drive(
        tr,
        "chare_rt.seq_day",
        &mut resumed.sim,
        &mut resumed.carry,
        resumed.next_day,
        cfg.days,
        &mut acc,
    );
    let stitched: Vec<_> = first.stats.iter().chain(&second.stats).copied().collect();
    report.gate(curve_hash(&stitched) == oracle_hash, || {
        "sequential-engine run resumed from a mid-run checkpoint does not hash equal to the oracle"
            .to_string()
    });
    let seq_wall: f64 = first.walls.iter().chain(&second.walls).sum();

    let (replay, _) = tr.span("replay", |tr| replay_day(tr, world, cfg, mid, &mid_states));
    Layers {
        world_build_s,
        seq_s_per_day: seq_wall / cfg.days as f64,
        seq_acc: acc,
        person_ns_per_visit: replay.person_ns_per_visit,
        kernel_ns_per_event: replay.kernel_ns_per_event,
        events_per_day: replay.events,
        infects_per_day: replay.infects,
        save_s,
        load_s,
        bytes_per_person: ratio(bytes as f64, world.pop.n_people() as f64),
    }
}

impl Layers {
    /// Set the per-layer metrics every workload derives the same way.
    /// `s_per_day` is the workload's own; `acc` is the `DayPerf` of the
    /// workload's engine runs, or of the sequential-engine run here when
    /// the workload never drives an engine itself.
    pub fn report(
        &self,
        report: &mut Report,
        world: &World,
        oracle: &Oracle,
        s_per_day: f64,
        acc: Option<&PerfAcc>,
    ) {
        let acc = acc.unwrap_or(&self.seq_acc);
        report.set(
            "graph_part.remote_visit_fraction",
            world.dist.remote_visit_fraction(),
        );
        report.set("graph_part.load_imbalance", world.load_imbalance());
        report.set("person.ns_per_visit", self.person_ns_per_visit);
        report.set("kernel.ns_per_event", self.kernel_ns_per_event);
        report.set("kernel.events_per_day", self.events_per_day);
        report.set("kernel.infects_per_day", self.infects_per_day);
        report.set("chare_rt.overhead_x", s_per_day / oracle.s_per_day);
        report.set("chare_rt.sync_share", acc.sync_share());
        report.set(
            "chare_rt.seq_over_oracle",
            self.seq_s_per_day / oracle.s_per_day,
        );
        report.set("chare_rt.location_busy_share", acc.location_busy_share());
        report.set("checkpoint.save_s", self.save_s);
        report.set("checkpoint.load_s", self.load_s);
        report.set("checkpoint.bytes_per_person", self.bytes_per_person);
    }
}

struct Replay {
    person_ns_per_visit: f64,
    kernel_ns_per_event: f64,
    events: f64,
    infects: f64,
}

/// Day `day` of the run, from the states the engine held that morning,
/// through the two compute layers with no runtime in between.
fn replay_day(
    tr: &mut Tracer,
    world: &World,
    cfg: &SimConfig,
    day: u32,
    states: &[PersonSlot],
) -> Replay {
    let pop = &*world.dist.pop;
    let ptts = flu_model();
    let effects = DayEffects::none();
    let symptomatic = ptts.state_by_name("symptomatic");
    let classes = InfectivityClasses::new(&ptts);
    let mut scratch = KernelScratch::new();
    let mut infects = Vec::new();
    let mut visits: Vec<VisitMsg> = Vec::with_capacity(pop.n_visits() as usize);
    let (mut person_ns, mut kernel_ns) = (Vec::new(), Vec::new());
    let (mut events, mut n_infects) = (0u64, 0usize);

    for _ in 0..REPLAY_REPS {
        let mut slots = states.to_vec();
        visits.clear();
        let (_, person_s) = tr.span("person.replay", |_| {
            for slot in slots.iter_mut() {
                person_day(
                    slot,
                    pop,
                    &ptts,
                    &effects,
                    symptomatic,
                    Some(&world.dist.orig_of_location),
                    cfg.seed,
                    day,
                    &mut visits,
                );
            }
            black_box(&visits);
        });
        person_ns.push(ratio(person_s * 1e9, visits.len() as f64));

        let mut by_location: Vec<Vec<VisitMsg>> = vec![Vec::new(); pop.n_locations() as usize];
        for v in &visits {
            by_location[v.location as usize].push(*v);
        }
        infects.clear();
        events = 0;
        let (_, kernel_s) = tr.span("kernel.replay", |_| {
            for bucket in by_location.iter_mut() {
                let f = simulate_location_day(
                    bucket,
                    &ptts,
                    &classes,
                    cfg.r,
                    cfg.seed,
                    day,
                    &mut scratch,
                    &mut infects,
                );
                events += f.events;
            }
            black_box(&infects);
        });
        n_infects = infects.len();
        kernel_ns.push(ratio(kernel_s * 1e9, events as f64));
    }
    Replay {
        person_ns_per_visit: median(&person_ns),
        kernel_ns_per_event: median(&kernel_ns),
        events: events as f64,
        infects: n_infects as f64,
    }
}
