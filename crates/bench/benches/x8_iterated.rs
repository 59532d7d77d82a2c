//! Bench X8 — regenerates the unknown-E telescoping comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use rendezvous_bench::session::Session;
use rendezvous_bench::x8_iterated;
use rendezvous_runner::Runner;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("x8/iterated_n6", |b| {
        b.iter(|| {
            let rows = x8_iterated::run(&[6], 4, &mut Session::direct(Runner::with_threads(2)));
            for r in &rows {
                assert!(r.time_ratio <= 16.0);
            }
            black_box(rows.len())
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
