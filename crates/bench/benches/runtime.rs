//! Benchmarks of the chare runtime in isolation: threaded message
//! throughput and phase/completion-detection overhead.

use chare_rt::{Chare, ChareId, Ctx, Message, Runtime, RuntimeConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

#[derive(Debug)]
struct Burst(#[allow(dead_code)] u32);
impl Message for Burst {}

/// Sprays `n` messages at a remote sink when poked.
struct Sprayer {
    target: ChareId,
    n: u32,
}
impl Chare<Burst> for Sprayer {
    fn receive(&mut self, _m: Burst, ctx: &mut Ctx<'_, Burst>) {
        for _ in 0..self.n {
            ctx.send(self.target, Burst(0));
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}
struct Sink;
impl Chare<Burst> for Sink {
    fn receive(&mut self, _m: Burst, ctx: &mut Ctx<'_, Burst>) {
        ctx.contribute(0, 1);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

fn bench_phase_overhead(c: &mut Criterion) {
    // An empty phase is pure completion-detection + scheduling overhead.
    let mut group = c.benchmark_group("phase_overhead");
    group.sample_size(20);
    for &pes in &[1u32, 8, 64] {
        group.bench_with_input(BenchmarkId::new("seq_pes", pes), &pes, |b, &pes| {
            let mut rt: Runtime<Burst> = Runtime::new(RuntimeConfig::sequential(pes));
            rt.add_chare(ChareId(0), 0, Box::new(Sink));
            b.iter(|| black_box(rt.run_phase(vec![]).totals().processed));
        });
    }
    group.finish();
}

fn bench_threaded_ping(c: &mut Criterion) {
    let mut group = c.benchmark_group("threaded_phase");
    group.sample_size(10);
    group.bench_function("spray_2threads_10k", |b| {
        let mut cfg = RuntimeConfig::threaded(2);
        cfg.smp.pes_per_process = 1;
        let mut rt = Runtime::new(cfg);
        rt.add_chare(
            ChareId(0),
            0,
            Box::new(Sprayer {
                target: ChareId(1),
                n: 10_000,
            }),
        );
        rt.add_chare(ChareId(1), 1, Box::new(Sink));
        b.iter(|| black_box(rt.run_phase(vec![(ChareId(0), Burst(1))]).reduction(0)));
    });
    group.finish();
}

criterion_group!(benches, bench_phase_overhead, bench_threaded_ping);
criterion_main!(benches);
