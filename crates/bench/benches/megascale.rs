//! Microbenchmarks of one megascale contact cycle at `n = 10⁴` on the
//! fast path (active-set scan, counter RNG, lazy materialization).
//!
//! Each sample runs `max_cycles(1)` from a cold start, so it prices
//! exactly what the fast path optimizes: site set-up plus one cycle's
//! contact loop. At cycle 1 only the origin site is hot, so a run pays
//! three bitsets and a single contact rather than O(n) replicas and a
//! whole-roster scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use epidemic_net::DegreeGraph;
use epidemic_sim::MegascaleSim;

const N: usize = 10_000;

fn bench_one_cycle(c: &mut Criterion) {
    let sim = MegascaleSim::new().max_cycles(1).workers(1);
    let graph = DegreeGraph::scale_free(N, 2, 1987);

    let mut group = c.benchmark_group("megascale_one_cycle_n10k/uniform");
    group.bench_function(BenchmarkId::from_parameter("fast"), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(sim.run_uniform_fast(N, seed))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("megascale_one_cycle_n10k/scale_free_m2");
    group.bench_function(BenchmarkId::from_parameter("fast"), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(sim.run_scale_free_fast(&graph, seed))
        })
    });
    group.finish();
}

criterion_group! {
    name = megascale;
    config = Criterion::default().sample_size(10);
    targets = bench_one_cycle
}
criterion_main!(megascale);
