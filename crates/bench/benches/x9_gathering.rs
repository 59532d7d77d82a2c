//! Bench X9 — regenerates the gathering extension table.

use criterion::{criterion_group, criterion_main, Criterion};
use rendezvous_bench::session::Session;
use rendezvous_bench::x9_gathering;
use rendezvous_runner::Runner;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("x9/gathering_n12", |b| {
        b.iter(|| {
            let rows = x9_gathering::run(
                12,
                32,
                &[2, 3],
                &mut Session::direct(Runner::with_threads(2)),
            );
            for r in &rows {
                assert!(r.rounds <= r.bound);
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
