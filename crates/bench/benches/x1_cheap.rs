//! Bench X1 — regenerates the Proposition 2.1 table (Cheap) at bench
//! scale and asserts the paper bounds on every sample.

use criterion::{criterion_group, criterion_main, Criterion};
use rendezvous_bench::session::Session;
use rendezvous_bench::x1_cheap;
use rendezvous_runner::Runner;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    c.bench_function("x1/cheap_table_n8", |b| {
        b.iter(|| {
            let rows = x1_cheap::run(
                8,
                &[2, 4, 8],
                true,
                &mut Session::direct(Runner::with_threads(2)),
            );
            for r in &rows {
                assert!(r.cheap_time <= r.cheap_time_bound);
                assert!(r.cheap_cost <= r.cheap_cost_bound);
                assert!(r.sim_cost <= r.e);
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
