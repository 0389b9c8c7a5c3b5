//! Microbenchmarks of the substrate operations: store updates, incremental
//! checksums, anti-entropy comparison strategies and partner sampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use epidemic_core::{AntiEntropy, Comparison, Direction, Replica};
use epidemic_db::{Database, SimClock, SiteId};
use epidemic_net::{topologies, PartnerSampler, Routes, Spatial};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.bench_function("update", |b| {
        let mut clock = SimClock::new(SiteId::new(0));
        let mut db: Database<u32, u64> = Database::new();
        let mut key = 0u32;
        b.iter(|| {
            key = key.wrapping_add(1) % 10_000;
            db.update(key, u64::from(key), &mut clock)
        })
    });
    group.bench_function("checksum_recompute_10k", |b| {
        let mut clock = SimClock::new(SiteId::new(0));
        let mut db: Database<u32, u64> = Database::new();
        for key in 0..10_000u32 {
            db.update(key, 1, &mut clock);
        }
        b.iter(|| black_box(db.recompute_checksum()))
    });
    group.finish();
}

fn diverged_pair(shared: u32, fresh: u32) -> (Replica<u32, u64>, Replica<u32, u64>) {
    let mut a: Replica<u32, u64> = Replica::new(SiteId::new(0));
    let mut b: Replica<u32, u64> = Replica::new(SiteId::new(1));
    for key in 0..shared {
        a.client_update(key, 1);
    }
    AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
    a.advance_clock(1_000_000);
    b.advance_clock(1_000_000);
    for key in 0..fresh {
        a.client_update(1_000_000 + key, 2);
    }
    (a, b)
}

fn bench_anti_entropy(c: &mut Criterion) {
    let mut group = c.benchmark_group("anti_entropy_10k_shared_10_fresh");
    for (label, comparison) in [
        ("full", Comparison::Full),
        ("checksum", Comparison::Checksum),
        ("recent_list", Comparison::RecentList { tau: 10_000 }),
        ("peel_back", Comparison::PeelBack),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |bench| {
            let protocol = AntiEntropy::new(Direction::PushPull, comparison);
            bench.iter_batched(
                || diverged_pair(10_000, 10),
                |(mut a, mut b)| black_box(protocol.exchange(&mut a, &mut b)),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("partner_sampling");
    let net = topologies::cin(&topologies::CinConfig::default());
    let routes = Routes::compute(&net.topology);
    for (label, spatial) in [
        ("uniform", Spatial::Uniform),
        ("qs_power_2", Spatial::QsPower { a: 2.0 }),
    ] {
        let sampler = PartnerSampler::new(&net.topology, &routes, spatial);
        let from = net.topology.sites()[0];
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(sampler.sample(from, &mut rng)))
        });
    }
    group.bench_function("build_tables_cin", |b| {
        b.iter(|| {
            black_box(PartnerSampler::new(
                &net.topology,
                &routes,
                Spatial::QsPower { a: 2.0 },
            ))
        })
    });
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let net = topologies::cin(&topologies::CinConfig::default());
    c.bench_function("routing/all_pairs_bfs_cin", |b| {
        b.iter(|| black_box(Routes::compute(&net.topology)))
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(10);
    targets = bench_store, bench_anti_entropy, bench_sampling, bench_routing
}
criterion_main!(micro);
