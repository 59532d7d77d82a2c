//! Bench X7 — regenerates the graph-family generality table.

use criterion::{criterion_group, criterion_main, Criterion};
use rendezvous_bench::session::Session;
use rendezvous_bench::x7_families;
use rendezvous_runner::Runner;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("x7/families_l4", |b| {
        b.iter(|| {
            let rows = x7_families::run(4, 0xBEEF, &mut Session::direct(Runner::with_threads(2)));
            for r in &rows {
                assert!(r.cheap_time <= r.cheap_time_bound);
                assert!(r.fast_time <= r.fast_time_bound);
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
