//! Bench X5 — regenerates the Theorem 3.1 chain audit.

use criterion::{criterion_group, criterion_main, Criterion};
use rendezvous_bench::session::Session;
use rendezvous_bench::x5_lb_time;
use rendezvous_runner::Runner;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("x5/eager_chain_n12", |b| {
        b.iter(|| {
            let rows = x5_lb_time::run(12, &[4, 8], &mut Session::direct(Runner::with_threads(2)));
            for r in &rows {
                assert!(r.increasing);
                assert!(r.chain_time >= r.witness);
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
