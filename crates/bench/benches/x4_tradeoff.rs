//! Bench X4 — regenerates the time/cost frontier.

use criterion::{criterion_group, criterion_main, Criterion};
use rendezvous_bench::session::Session;
use rendezvous_bench::x4_tradeoff;
use rendezvous_runner::Runner;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("x4/frontier_n8_l32", |b| {
        b.iter(|| {
            let points = x4_tradeoff::run(
                8,
                32,
                &[2, 3],
                &mut Session::direct(Runner::with_threads(2)),
            );
            for p in &points {
                assert!(p.time <= p.time_bound);
                assert!(p.cost <= p.cost_bound);
            }
            black_box(points.len())
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
