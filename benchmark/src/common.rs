//! What every workload shares: the run's arguments, its report, the
//! time-boxed loop that runs each iteration in a process of its own,
//! world construction, and the day-by-day driver that turns `DayPerf`
//! into per-layer shares.

use crate::measure::ratio;
use crate::trace::Tracer;
use episim_core::simulator::{Carry, DayPerf};
use episim_core::{DataDistribution, DayStats, SimConfig, Simulator, Strategy};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;
use synthpop::{Population, PopulationConfig};

/// One benchmark run's arguments.
#[derive(Clone)]
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Population / 20, 10 days, no attack-rate gates: the smoke test.
    pub quick: bool,
}

impl Run {
    /// The simulation seed, derived from (not equal to) the population seed.
    pub fn sim_seed(&self) -> u64 {
        self.seed.wrapping_add(0x5EED)
    }

    /// The seed of the `i`-th iteration's process.
    pub fn iteration_seed(&self, i: usize) -> u64 {
        self.seed.wrapping_mul(1000).wrapping_add(i as u64)
    }

    /// This program again with this run's arguments: stdout piped back,
    /// stderr shared.
    pub fn command(&self) -> Command {
        let mut cmd = Command::new(std::env::current_exe().expect("path of this program"));
        cmd.args(["--workload", self.workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if self.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if self.quick {
            cmd.arg("--quick");
        }
        cmd
    }

    pub fn people(&self, full: u32) -> u32 {
        if self.quick {
            full / 20
        } else {
            full
        }
    }

    pub fn days(&self, full: u32) -> u32 {
        if self.quick {
            10
        } else {
            full
        }
    }
}

/// What a run found: metric values by name, operations attempted and
/// failed, and whether every correctness gate held.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite");
        self.metrics.insert(name, value);
    }

    /// The layers this workload never executes count zero work.
    pub fn zero(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    /// A correctness gate: a failed one is reported and fails the run.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("epibench: CHECK FAILED: {}", what());
            self.correct = false;
        }
    }
}

/// A generated population and its data distribution. `pop` is the
/// population as generated (what the oracle runs on); `dist.pop` is the
/// possibly splitLoc-rewritten copy the engines run on.
pub struct World {
    pub pop: Population,
    pub dist: DataDistribution,
    pub generate_s: f64,
    pub partition_s: f64,
}

impl World {
    /// The first two set-up layers, each under its own span.
    pub fn build(
        tr: &mut Tracer,
        code: &str,
        people: u32,
        strategy: Strategy,
        k: u32,
        pop_seed: u64,
        part_seed: u64,
    ) -> World {
        let (pop, generate_s) = tr.span("synthpop.generate", |_| {
            Population::generate(&PopulationConfig::small(code, people, pop_seed))
        });
        let (dist, partition_s) = tr.span("graph_part.build", |_| {
            DataDistribution::build(&pop, strategy, k, part_seed)
        });
        World {
            pop,
            dist,
            generate_s,
            partition_s,
        }
    }

    /// Max over mean of the per-partition location-phase loads.
    pub fn load_imbalance(&self) -> f64 {
        let loads = self.dist.location_loads();
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
        ratio(max, mean)
    }
}

/// `DayPerf` and day walls summed over every day driven: busy time per
/// phase for the runtime-layer shares, and the `PeStats` counters the
/// `net.*` metrics read.
#[derive(Default, Clone, Copy)]
pub struct PerfAcc {
    pub person_busy_ns: u64,
    pub location_busy_ns: u64,
    pub apply_busy_ns: u64,
    /// Sum over days and phases of the busiest PE's busy time.
    pub critical_busy_ns: u64,
    pub wall_ns: u64,
    pub days: u64,
    pub sent_remote: u64,
    pub network_packets: u64,
    pub wire_bytes_sent: u64,
    pub remote_bytes: u64,
    pub shm_parks: u64,
    pub flush_idle: u64,
    pub flushes: u64,
}

impl PerfAcc {
    fn fields(&mut self) -> [&mut u64; 13] {
        [
            &mut self.person_busy_ns,
            &mut self.location_busy_ns,
            &mut self.apply_busy_ns,
            &mut self.critical_busy_ns,
            &mut self.wall_ns,
            &mut self.days,
            &mut self.sent_remote,
            &mut self.network_packets,
            &mut self.wire_bytes_sent,
            &mut self.remote_bytes,
            &mut self.shm_parks,
            &mut self.flush_idle,
            &mut self.flushes,
        ]
    }

    fn add_day(&mut self, perf: &DayPerf, wall_s: f64) {
        for (phase, busy) in [
            (&perf.person_phase, &mut self.person_busy_ns),
            (&perf.location_phase, &mut self.location_busy_ns),
            (&perf.apply_phase, &mut self.apply_busy_ns),
        ] {
            let t = phase.totals();
            *busy += t.busy_ns;
            self.critical_busy_ns += phase.max_busy_ns();
            self.sent_remote += t.sent_remote;
            self.network_packets += t.network_packets;
            self.wire_bytes_sent += t.wire_bytes_sent;
            self.remote_bytes += t.remote_bytes;
            self.shm_parks += t.shm_parks;
            self.flush_idle += t.wire_flush_idle;
            self.flushes += t.wire_flush_idle + t.wire_flush_batch + t.wire_flush_eager;
        }
        self.wall_ns += (wall_s * 1e9) as u64;
        self.days += 1;
    }

    pub fn merge(&mut self, mut other: PerfAcc) {
        for (mine, theirs) in self.fields().into_iter().zip(other.fields()) {
            *mine += *theirs;
        }
    }

    /// Location-phase share of all busy time.
    pub fn location_busy_share(&self) -> f64 {
        ratio(
            self.location_busy_ns as f64,
            (self.person_busy_ns + self.location_busy_ns + self.apply_busy_ns) as f64,
        )
    }

    /// Share of day wall not covered by the busiest PE of each phase:
    /// message path, completion detection and phase fencing.
    pub fn sync_share(&self) -> f64 {
        if self.wall_ns > 0 {
            1.0 - self.critical_busy_ns as f64 / self.wall_ns as f64
        } else {
            0.0
        }
    }
}

/// One driven stretch of days: the curve and each day's wall.
pub struct DayRun {
    pub stats: Vec<DayStats>,
    pub walls: Vec<f64>,
}

/// Drive `sim` one `run_days(d, d+1)` call at a time over `from..to`,
/// each under a span named `span`.
pub fn drive(
    tr: &mut Tracer,
    span: &'static str,
    sim: &mut Simulator,
    carry: &mut Carry,
    from: u32,
    to: u32,
    acc: &mut PerfAcc,
) -> DayRun {
    let mut out = DayRun {
        stats: Vec::with_capacity((to - from) as usize),
        walls: Vec::with_capacity((to - from) as usize),
    };
    for day in from..to {
        let ((stats, perf, _extinct), wall) = tr.span(span, |_| sim.run_days(day, day + 1, carry));
        acc.add_day(&perf[0], wall);
        out.stats.extend(stats);
        out.walls.push(wall);
    }
    out
}

/// Initial infections every direct run starts from.
pub const INITIAL_INFECTIONS: u32 = 10;

/// A fixed-length run: never cut short by extinction, so the operation
/// count is the same for every seed.
pub fn sim_config(days: u32, r: f64, seed: u64) -> SimConfig {
    SimConfig {
        days,
        r,
        seed,
        initial_infections: INITIAL_INFECTIONS,
        stop_when_extinct: false,
        ..SimConfig::default()
    }
}

pub fn fresh_carry(cfg: &SimConfig, pop: &Population) -> Carry {
    Carry::new(
        cfg.interventions.clone(),
        cfg.initial_infections.min(pop.n_people()) as u64,
    )
}

/// Final attack rate of a curve given as day statistics.
pub fn attack_rate(stats: &[DayStats], people: u32) -> f64 {
    ratio(
        stats.last().map_or(0, |d| d.cumulative) as f64,
        people as f64,
    )
}

/// What one iteration measured: one set-up and one whole piece of work
/// (a full epidemic, a full sweep) in a process of its own.
#[derive(Default)]
pub struct Samples {
    pub generate_s: f64,
    pub partition_s: f64,
    /// `Simulator::new` / `CowWorld::build`, once per run started.
    pub world_build_s: Vec<f64>,
    /// Start of a run on the built world → its first result, per run started.
    pub first_point_ms: Vec<f64>,
    /// Days 1.. of the full run, or the one sweep.
    pub walls: Vec<f64>,
    /// Curve hash of the full run; for a sweep, of the member the engine
    /// cross-check uses.
    pub hash: u64,
    /// What `hash` must equal: the oracle's curve hash on the same
    /// world and config (engines), a sequential-engine run of the
    /// cross-checked member (sweep). Computed after the measurements.
    pub check_hash: u64,
    /// The oracle's wall per simulated day on this iteration's world.
    pub oracle_s_per_day: f64,
    /// Final attack rate (engines), or at the lowest and highest r (sweep).
    pub attack: Vec<f64>,
    /// `VmHWM` of the iteration's process when its work was done.
    pub rss_mb: f64,
    /// Child processes still alive then (net workers must all be reaped).
    pub orphans: usize,
    pub perf: PerfAcc,
    /// Whether the iteration kept span records.
    pub recorded: bool,
}

/// `peak_rss_mb` of a run: the smallest peak any of its iterations
/// needed. Which side of an allocator threshold a population falls on
/// makes the peaks bimodal (README.md), so their median jumps between
/// the modes from run to run; their minimum is the memory one set-up
/// plus one piece of work needs, and repeats to about a percent.
pub fn peak_rss_mb(its: &[Samples]) -> f64 {
    let peaks: Vec<f64> = its.iter().map(|s| s.rss_mb).collect();
    let min = peaks.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "epibench: peak RSS over {} iterations: min {min:.1} MB, median {:.1} MB, max {:.1} MB",
        peaks.len(),
        crate::measure::median(&peaks),
        peaks.iter().copied().fold(0.0, f64::max)
    );
    min
}

impl Samples {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.partition_s + self.world_build_s[0]
    }

    /// One line for the parent process; floats print with all their digits.
    pub fn to_line(&self) -> String {
        let list = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        let mut perf = self.perf;
        let perf = perf.fields().map(|f| f.to_string()).join(",");
        format!(
            "samples generate_s={} partition_s={} world_build_s={} first_point_ms={} walls={} \
             hash={} check_hash={} oracle_s_per_day={} attack={} rss_mb={} orphans={} perf={perf}",
            self.generate_s,
            self.partition_s,
            list(&self.world_build_s),
            list(&self.first_point_ms),
            list(&self.walls),
            self.hash,
            self.check_hash,
            self.oracle_s_per_day,
            list(&self.attack),
            self.rss_mb,
            self.orphans,
        )
    }

    fn from_line(line: &str) -> Option<Samples> {
        let mut s = Samples::default();
        let list = |v: &str| {
            v.split(',')
                .map(str::parse)
                .collect::<Result<Vec<f64>, _>>()
                .ok()
        };
        for field in line.strip_prefix("samples ")?.split_whitespace() {
            let (key, v) = field.split_once('=')?;
            match key {
                "generate_s" => s.generate_s = v.parse().ok()?,
                "partition_s" => s.partition_s = v.parse().ok()?,
                "world_build_s" => s.world_build_s = list(v)?,
                "first_point_ms" => s.first_point_ms = list(v)?,
                "walls" => s.walls = list(v)?,
                "hash" => s.hash = v.parse().ok()?,
                "check_hash" => s.check_hash = v.parse().ok()?,
                "oracle_s_per_day" => s.oracle_s_per_day = v.parse().ok()?,
                "attack" => s.attack = list(v)?,
                "rss_mb" => s.rss_mb = v.parse().ok()?,
                "orphans" => s.orphans = v.parse().ok()?,
                "perf" => {
                    for (field, n) in s.perf.fields().into_iter().zip(v.split(',')) {
                        *field = n.parse().ok()?;
                    }
                }
                _ => return None,
            }
        }
        Some(s)
    }
}

/// Run iterations until `run.seconds` have passed — a new one starts only
/// if at least half of it still fits — and at least three times. Each is
/// this program started again with `--iteration`: a fresh process, as a
/// user's run is, so `VmHWM` is one set-up plus one piece of work and
/// nothing an earlier iteration left behind (the threaded engine keeps
/// ≈13 MB per `Simulator` it ever built) is measured twice.
///
/// Iteration `i` gets its own seed, `1000 * seed + i`: what depends on
/// the generated population rather than on the program (which side of an
/// allocator threshold a buffer falls, how the partitioner's cut came
/// out) then varies inside a run and its median, not between runs.
///
/// In the traced pass every second iteration records no spans; the two
/// groups' timings give `trace.overhead`.
pub fn iterations(tr: &mut Tracer, span: &'static str, run: &Run) -> Vec<Samples> {
    const MIN_ITERATIONS: usize = 3;
    let start = Instant::now();
    let mut last_s = 0.0;
    let mut out: Vec<Samples> = Vec::new();
    while out.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() + last_s / 2.0 < run.seconds {
        let recorded = run.trace && out.len().is_multiple_of(2);
        let mut cmd = Run {
            seed: run.iteration_seed(out.len()),
            trace: recorded,
            ..run.clone()
        }
        .command();
        cmd.arg("--iteration");
        let (samples, iter_s) = tr.span(span, |tr| {
            let began = Instant::now();
            let output = cmd.output().expect("start an iteration process");
            assert!(
                output.status.success(),
                "iteration process failed: {}",
                output.status
            );
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines();
            let samples = lines.next().and_then(Samples::from_line);
            tr.adopt(lines, began);
            samples.expect("an iteration prints its samples first")
        });
        out.push(Samples {
            recorded,
            ..samples
        });
        last_s = iter_s;
    }
    out
}
