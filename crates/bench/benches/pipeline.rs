//! End-to-end pipeline benchmarks: the feed→DNS join and the full
//! longitudinal run at a small scale.

use bench_support::run_experiments;
use census::OpenResolverList;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dnsimpact_core::columnar::JoinTable;
use scenarios::{PaperScale, WorldConfig};
use std::hint::black_box;
use telescope::EpisodeColumns;

fn bench_pipeline(c: &mut Criterion) {
    // Materialize a small world + feed once; benchmark the join and the
    // full run.
    let ex = run_experiments(
        5,
        PaperScale { divisor: 1_000 },
        &WorldConfig { providers: 30, domains: 8_000, ..WorldConfig::default() },
    );
    let cols = EpisodeColumns::from_episodes(&ex.report.feed.episodes);
    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(cols.len() as u64));
    g.bench_function("join_episodes", |b| {
        b.iter(|| {
            black_box(JoinTable::build(
                &ex.world.infra,
                &ex.world.infra,
                black_box(&cols),
                &ex.world.meta.open_resolvers,
                false,
                1,
                1,
                None,
            ))
        });
    });
    g.sample_size(10);
    g.bench_function("full_longitudinal_small", |b| {
        b.iter(|| {
            black_box(run_experiments(
                7,
                PaperScale { divisor: 2_000 },
                &WorldConfig { providers: 20, domains: 5_000, ..WorldConfig::default() },
            ))
        });
    });
    g.finish();
}

fn bench_open_resolver_filter(c: &mut Criterion) {
    // Ablation-adjacent: the cost of the open-resolver filter itself.
    let list = OpenResolverList::well_known();
    let probes: Vec<std::net::Ipv4Addr> =
        (0..1_000u32).map(|i| std::net::Ipv4Addr::from(0x0808_0000 + i)).collect();
    c.bench_function("open_resolver_filter/1000", |b| {
        b.iter(|| {
            let mut n = 0;
            for &ip in &probes {
                if list.contains(black_box(ip)) {
                    n += 1;
                }
            }
            black_box(n)
        });
    });
}

criterion_group!(benches, bench_pipeline, bench_open_resolver_filter);
criterion_main!(benches);
