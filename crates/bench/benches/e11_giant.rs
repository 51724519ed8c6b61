//! E11 — giant-n epidemic on the count-based population backend, the
//! scale lever the `Population` refactor unlocks: one seed of the
//! n = 10⁶ epidemic run to stable full infection (`Batched` + `Stop::until` +
//! `stably`), measured on both backends.
//!
//! * `epidemic_count_n1e6` — `CountConfiguration`: O(1) memory, O(1)
//!   boundary predicate. This is the committed throughput floor; the
//!   acceptance bar is < 5 s per seed.
//! * `epidemic_dense_n1e6` — dense `Configuration` at the same n, the
//!   largest size both backends run: same dynamics, but an O(n) boundary
//!   predicate and O(n) memory. The gap between the two entries is the
//!   count backend's win.
//! * `per_interaction_interleaved_x1e6` / `per_interaction_epoch_x1e6` —
//!   exactly 10⁶ interactions of the same workload on each execution
//!   path, so `mean_ns / 10⁶` reads directly as nanoseconds per
//!   interaction and the committed ratio is the epoch path's
//!   per-interaction speedup.
//!
//! Run with `BENCH_JSON=$PWD/BENCH_RESULTS.json cargo bench -p
//! ppfts-bench --bench e11_giant` from the workspace root to record the
//! numbers into the committed baseline (the bench binary's working
//! directory is the package, so a relative path lands in
//! `crates/bench/`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ppfts_bench::{
    epidemic_fixed_steps_epoch, epidemic_fixed_steps_interleaved, measure_epidemic_giant,
    measure_epidemic_giant_dense,
};

const N: usize = 1_000_000;
const BUDGET: u64 = 400_000_000;

/// Fixed interaction count of the per-interaction entries: divide their
/// `mean_ns` by this to get nanoseconds per interaction.
const FIXED_STEPS: u64 = 1_000_000;

fn bench_e11(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_giant");
    group.sample_size(3);
    group.bench_function("epidemic_count_n1e6", |b| {
        b.iter(|| {
            let conv = measure_epidemic_giant(N, 1, BUDGET);
            assert_eq!(conv.converged, 1, "seed 0 must converge in budget");
            conv.mean_steps
        });
    });
    group.bench_function("epidemic_dense_n1e6", |b| {
        b.iter(|| {
            let conv = measure_epidemic_giant_dense(N, 1, BUDGET);
            assert_eq!(conv.converged, 1, "seed 0 must converge in budget");
            conv.mean_steps
        });
    });
    group.bench_function("per_interaction_interleaved_x1e6", |b| {
        b.iter(|| black_box(epidemic_fixed_steps_interleaved(N, FIXED_STEPS, 0)));
    });
    group.bench_function("per_interaction_epoch_x1e6", |b| {
        b.iter(|| black_box(epidemic_fixed_steps_epoch(N, FIXED_STEPS, 0)));
    });
    group.finish();
}

criterion_group!(benches, bench_e11);
criterion_main!(benches);
