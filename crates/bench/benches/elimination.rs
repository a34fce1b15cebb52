//! Criterion bench for the elimination layer: mixed-batch-size
//! reservations routed through the arena must keep pace with the
//! uniform-`k` `next_batch` fast path at 8 threads — the layer buys the
//! unconditional exact-range guarantee, not a slowdown. All variants run
//! through the stress driver so every cell pays the same online
//! invariant-checking overhead and the rates stay comparable.

use std::time::Duration;

use counting::counting_network;
use counting_runtime::{
    run_stress, Batching, CentralCounter, EliminationCounter, NetworkCounter, Scenario,
    StressConfig,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 512;
const UNIFORM_K: usize = 8;
const MAX_K: usize = 16;
const SEED: u64 = 0xE11A;

fn steady(batch: Batching) -> StressConfig {
    StressConfig {
        threads: THREADS,
        ops_per_thread: OPS_PER_THREAD,
        batch,
        scenario: Scenario::Steady,
        record_tokens: false,
    }
}

fn bench_elimination(c: &mut Criterion) {
    let w = 16usize;
    let net = counting_network(w, w).expect("valid");
    let uniform = Batching::Fixed(UNIFORM_K);
    let mixed = Batching::Mixed { max_k: MAX_K, seed: SEED };

    let mut group = c.benchmark_group("elimination-8t");
    group.throughput(Throughput::Elements(steady(uniform).total_values()));
    group.bench_function("C(16,16) uniform-k raw", |b| {
        b.iter(|| run_stress(&NetworkCounter::new("C(16,16)", &net), &steady(uniform)));
    });
    group.bench_function("C(16,16) uniform-k elim", |b| {
        b.iter(|| {
            let counter = EliminationCounter::new(NetworkCounter::new("C(16,16)", &net));
            run_stress(&counter, &steady(uniform))
        });
    });
    group.throughput(Throughput::Elements(steady(mixed).total_values()));
    group.bench_function("C(16,16) mixed-k elim", |b| {
        b.iter(|| {
            let counter = EliminationCounter::new(NetworkCounter::new("C(16,16)", &net));
            run_stress(&counter, &steady(mixed))
        });
    });
    group.bench_function("central mixed-k elim", |b| {
        b.iter(|| {
            let counter = EliminationCounter::new(CentralCounter::new());
            run_stress(&counter, &steady(mixed))
        });
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_elimination
}
criterion_main!(benches);
