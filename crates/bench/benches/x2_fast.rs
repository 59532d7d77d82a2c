//! Bench X2 — regenerates the Proposition 2.2 table (Fast) at bench scale.

use criterion::{criterion_group, criterion_main, Criterion};
use rendezvous_bench::session::Session;
use rendezvous_bench::x2_fast;
use rendezvous_runner::Runner;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("x2/fast_table_n8", |b| {
        b.iter(|| {
            let rows = x2_fast::run(
                8,
                &[2, 8, 32],
                false,
                &mut Session::direct(Runner::with_threads(2)),
            );
            for r in &rows {
                assert!(r.time <= r.time_bound);
                assert!(r.cost <= r.cost_bound);
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
