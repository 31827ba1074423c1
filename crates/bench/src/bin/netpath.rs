//! Net-engine message-path microbenchmark: per-message cost of the
//! intra-process path (in-memory queues, zero serialization) versus the
//! inter-process path over **both** data planes — loopback TCP (batch
//! serialization + comm thread + socket) and the shared-memory ring
//! transport (compute-thread-to-compute-thread SPSC rings + futex
//! doorbells). Writes a machine-readable `BENCH_netpath.json` (schema
//! "netpath-v3", documented in EXPERIMENTS.md).
//!
//! SPMD note: the inter-process runs re-execute this very binary as their
//! worker processes. Earlier net-runtime constructions replay standalone
//! inside the workers, and each worker exits inside its target run's
//! teardown — only the root reaches the report. Transports are selected
//! through `RuntimeConfig` (never the `ChareNetTransport` env override,
//! which is scrubbed at startup) so root and replayed workers can't
//! disagree.
//!
//! Environment knobs (all optional):
//!   NETPATH_HOPS     hops per injected message       (default 400)
//!   NETPATH_INJECT   messages injected per phase     (default 8)
//!   NETPATH_PHASES   timed phases per configuration  (default 3)
//!   NETPATH_OUT      output JSON path                (default BENCH_netpath.json)
//!   NETPATH_COMPARE  baseline JSON; exit 2 if any headline ns/msg
//!                    regresses by more than 20% against it

use bytes::{Buf, BufMut, BytesMut};
use chare_rt::{worker_target, Chare, ChareId, Ctx, Message, NetTransport, Runtime, RuntimeConfig};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Hop {
    remaining: u32,
    payload: u64,
}

impl Message for Hop {
    fn wire_encode(&self, out: &mut BytesMut) {
        out.put_u32_le(self.remaining);
        out.put_u64_le(self.payload);
    }

    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        if buf.remaining() < 12 {
            return None;
        }
        Some(Hop {
            remaining: buf.get_u32_le(),
            payload: buf.get_u64_le(),
        })
    }
}

struct Acc {
    next: ChareId,
    sum: u64,
}

impl Chare<Hop> for Acc {
    fn receive(&mut self, msg: Hop, ctx: &mut Ctx<'_, Hop>) {
        self.sum += msg.payload;
        ctx.contribute(0, 1);
        if msg.remaining > 0 {
            ctx.send(
                self.next,
                Hop {
                    remaining: msg.remaining - 1,
                    payload: msg.payload.wrapping_add(1),
                },
            );
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

const N_CHARES: u32 = 8;

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[derive(Clone, Copy, Default)]
struct RunResult {
    wall_s: f64,
    processed: u64,
    ns_per_msg: f64,
    remote_msgs: u64,
    network_packets: u64,
    wire_frames_sent: u64,
    wire_bytes_sent: u64,
    shm_frames_sent: u64,
    shm_parks: u64,
}

impl RunResult {
    /// Messages per emitted BATCH frame, over both planes.
    fn msgs_per_frame(&self) -> f64 {
        if self.network_packets > 0 {
            self.remote_msgs as f64 / self.network_packets as f64
        } else {
            0.0
        }
    }
}

/// Run `phases` timed phases of ring traffic on 2 PEs. Chares are placed
/// alternating PE 0 / PE 1, so with one process every hop is an
/// intra-process cross-PE send, and with two single-PE processes every hop
/// crosses the process boundary — the configurations differ *only* in the
/// path a message takes.
fn run_ring(cfg: RuntimeConfig, phases: u32, inject: u32, hops: u32) -> RunResult {
    let mut rt: Runtime<Hop> = Runtime::new(cfg);
    for i in 0..N_CHARES {
        rt.add_chare(
            ChareId(i),
            i % 2,
            Box::new(Acc {
                next: ChareId((i + 1) % N_CHARES),
                sum: 0,
            }),
        );
    }
    let injections = |phase: u32| -> Vec<(ChareId, Hop)> {
        (0..inject)
            .map(|m| {
                (
                    ChareId((phase + m) % N_CHARES),
                    Hop {
                        remaining: hops,
                        payload: u64::from(m) + 1,
                    },
                )
            })
            .collect()
    };
    // One warmup phase: pays socket buffer growth and allocator warm-up.
    rt.run_phase(injections(0));
    let mut out = RunResult::default();
    let t0 = Instant::now();
    for phase in 1..=phases {
        let stats = rt.run_phase(injections(phase));
        let t = stats.totals();
        out.processed += t.processed;
        out.remote_msgs += t.sent_remote;
        out.network_packets += t.network_packets;
        out.wire_frames_sent += t.wire_frames_sent;
        out.wire_bytes_sent += t.wire_bytes_sent;
        out.shm_frames_sent += t.shm_frames_sent;
        out.shm_parks += t.shm_parks;
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.ns_per_msg = if out.processed > 0 {
        out.wall_s * 1e9 / out.processed as f64
    } else {
        0.0
    };
    out
}

fn inter_cfg(transport: NetTransport) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::net(2, 2);
    cfg.net.transport = transport;
    cfg
}

fn run_json(label: &str, r: &RunResult) -> String {
    format!(
        "{{\"transport\": \"{label}\", \"wall_s\": {:.6}, \"messages\": {}, \
         \"ns_per_msg\": {:.1}, \"remote_msgs\": {}, \"msgs_per_frame\": {:.1}, \
         \"wire_frames_sent\": {}, \"wire_bytes_sent\": {}, \"shm_frames_sent\": {}, \
         \"parks\": {}}}",
        r.wall_s,
        r.processed,
        r.ns_per_msg,
        r.remote_msgs,
        r.msgs_per_frame(),
        r.wire_frames_sent,
        r.wire_bytes_sent,
        r.shm_frames_sent,
        r.shm_parks,
    )
}

/// Pull `"key": <number>` out of a flat JSON string (the baselines this
/// binary writes itself — no nesting ambiguity for the summary keys).
fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    // Scrub the transport override so every run's transport comes from its
    // RuntimeConfig and replayed workers can't diverge from the root.
    std::env::remove_var("ChareNetTransport");

    let hops: u32 = env_or("NETPATH_HOPS", 400);
    let inject: u32 = env_or("NETPATH_INJECT", 8);
    let phases: u32 = env_or("NETPATH_PHASES", 3);
    let out_path: String = env_or("NETPATH_OUT", "BENCH_netpath.json".to_string());
    let is_root = worker_target().is_none();

    if is_root {
        eprintln!(
            "netpath: ring of {N_CHARES} chares on 2 PEs, {inject} injections × {hops} hops × {phases} phases"
        );
    }

    // Intra-process: the standalone net engine, in-memory queues only.
    let intra = run_ring(RuntimeConfig::net(2, 1), phases, inject, hops);
    // Inter-process, per data plane.
    let inter_tcp = run_ring(inter_cfg(NetTransport::Tcp), phases, inject, hops);
    let inter_shm = run_ring(inter_cfg(NetTransport::Shm), phases, inject, hops);

    // Workers exited inside their runs; only the root reports.
    if !is_root {
        return;
    }

    let ratio = |num: &RunResult, den: &RunResult| {
        if den.ns_per_msg > 0.0 {
            num.ns_per_msg / den.ns_per_msg
        } else {
            0.0
        }
    };
    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"netpath-v3\",\n");
    let _ = writeln!(
        j,
        "  \"config\": {{\"chares\": {N_CHARES}, \"pes\": 2, \"hops\": {hops}, \"inject\": {inject}, \"phases\": {phases}}},"
    );
    let _ = writeln!(
        j,
        "  \"summary\": {{\"intra_ns\": {:.1}, \"inter_tcp_ns\": {:.1}, \"inter_shm_ns\": {:.1}}},",
        intra.ns_per_msg, inter_tcp.ns_per_msg, inter_shm.ns_per_msg
    );
    let _ = writeln!(j, "  \"intra_process\": {},", run_json("local", &intra));
    let _ = writeln!(j, "  \"inter_tcp\": {},", run_json("tcp", &inter_tcp));
    let _ = writeln!(j, "  \"inter_shm\": {},", run_json("shm", &inter_shm));
    let _ = writeln!(
        j,
        "  \"tcp_over_intra\": {:.2},\n  \"shm_over_intra\": {:.2},\n  \"tcp_over_shm\": {:.2}\n}}",
        ratio(&inter_tcp, &intra),
        ratio(&inter_shm, &intra),
        ratio(&inter_tcp, &inter_shm)
    );
    std::fs::write(&out_path, &j).expect("write output json");

    println!(
        "netpath: intra {:.0} ns/msg | tcp {:.0} ns/msg ({:.1}x) | shm {:.0} ns/msg ({:.1}x, {} parks)",
        intra.ns_per_msg,
        inter_tcp.ns_per_msg,
        ratio(&inter_tcp, &intra),
        inter_shm.ns_per_msg,
        ratio(&inter_shm, &intra),
        inter_shm.shm_parks
    );
    println!("netpath: wrote {out_path}");

    // Optional regression gate against a committed baseline.
    if let Ok(base_path) = std::env::var("NETPATH_COMPARE") {
        let base = std::fs::read_to_string(&base_path).expect("read baseline json");
        let mut failed = false;
        for (key, new_ns) in [
            ("intra_ns", intra.ns_per_msg),
            ("inter_tcp_ns", inter_tcp.ns_per_msg),
            ("inter_shm_ns", inter_shm.ns_per_msg),
        ] {
            let Some(old_ns) = extract_f64(&base, key) else {
                eprintln!("netpath: baseline {base_path} lacks \"{key}\" — skipping");
                continue;
            };
            let limit = old_ns * 1.2;
            let verdict = if new_ns > limit { "REGRESSED" } else { "ok" };
            println!(
                "netpath: compare {key}: {new_ns:.0} ns/msg vs baseline {old_ns:.0} (limit {limit:.0}) {verdict}"
            );
            failed |= new_ns > limit;
        }
        if failed {
            eprintln!("netpath: ns/msg regression >20% against {base_path}");
            std::process::exit(2);
        }
    }
}
