//! Bench X3 — regenerates the Proposition 2.3 / Corollary 2.1 tables.

use criterion::{criterion_group, criterion_main, Criterion};
use rendezvous_bench::session::Session;
use rendezvous_bench::x3_relabel;
use rendezvous_runner::Runner;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("x3/bounds_sweep", |b| {
        b.iter(|| {
            black_box(x3_relabel::run_bounds(
                &[16, 64, 256, 1024, 4096],
                &[1, 2, 3, 4],
            ))
        });
    });
    c.bench_function("x3/exec_ring6", |b| {
        b.iter(|| {
            let rows = x3_relabel::run_exec(
                6,
                8,
                &[1, 2, 3],
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
