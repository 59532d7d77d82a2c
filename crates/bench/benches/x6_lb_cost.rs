//! Bench X6 — regenerates the Theorem 3.2 progress audit.

use criterion::{criterion_group, criterion_main, Criterion};
use rendezvous_bench::session::Session;
use rendezvous_bench::x6_lb_cost;
use rendezvous_runner::Runner;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("x6/progress_n12", |b| {
        b.iter(|| {
            let rows = x6_lb_cost::run(12, &[4, 8], &mut Session::direct(Runner::with_threads(2)));
            for r in &rows {
                assert!(r.witnesses_hold);
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
