//! Engine benchmark across shard counts on identical workloads.
//!
//! Every shard count produces bit-identical results (property-tested);
//! this bench shows what the lockstep parallelism buys (or costs — for small
//! graphs the per-round barriers dominate, which is itself a finding
//! worth publishing alongside the equivalence guarantee).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dima_core::{color_edges, ColoringConfig, Engine};
use dima_graph::gen::GraphFamily;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_seq_vs_par");
    group.sample_size(10);
    let mut rng = SmallRng::seed_from_u64(46);
    let g = GraphFamily::ErdosRenyiAvgDegree { n: 2000, avg_degree: 16.0 }
        .sample(&mut rng)
        .expect("valid family");
    for (label, engine) in [
        ("sequential", Engine::Sequential),
        ("parallel_2", Engine::Parallel { threads: 2 }),
        ("parallel_4", Engine::Parallel { threads: 4 }),
        ("parallel_8", Engine::Parallel { threads: 8 }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &engine, |b, &engine| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let cfg = ColoringConfig { engine, ..ColoringConfig::seeded(seed) };
                let r = color_edges(&g, &cfg).unwrap();
                black_box(r.colors_used)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
