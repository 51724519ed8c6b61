//! E5 at scale — the SKnO convergence workload at o=2, n=16 (Theorem
//! 4.1), the runner hot path the ROADMAP names as the first perf target.
//!
//! One seed to convergence (~2.4M engine steps), measured twice: on the
//! pre-batching scalar path (`measure_skno_scalar`: per-step projection
//! predicate, default sink) and on the batched `StatsOnly` path
//! (`measure_skno`: `Batched` + `Stop::until` + `stably`).
//!
//! Run with `BENCH_JSON=$PWD/BENCH_RESULTS.json cargo bench -p
//! ppfts-bench --bench e5_scale` from the workspace root to record the
//! numbers into the committed baseline (the bench binary's working
//! directory is the package, so a relative path lands in
//! `crates/bench/`).
//! The `scalar_seed` entry in that file was captured at the pre-refactor
//! seed (commit 5083bc7) and is the floor the batched path is measured
//! against; `scalar` re-measures the current scalar path (already faster
//! than the seed: no per-step state clones).

use criterion::{criterion_group, criterion_main, Criterion};
use ppfts_bench::{measure_skno, measure_skno_scalar};

fn bench_e5(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_skno_o2_n16");
    group.sample_size(3);
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let conv = measure_skno_scalar(16, 2, 1, 30_000_000);
            assert_eq!(conv.converged, 1, "seed 0 must converge in budget");
            conv.mean_steps
        });
    });
    group.bench_function("batched_statsonly", |b| {
        b.iter(|| {
            let conv = measure_skno(16, 2, 1, 30_000_000);
            assert_eq!(conv.converged, 1, "seed 0 must converge in budget");
            conv.mean_steps
        });
    });
    group.finish();
}

criterion_group!(benches, bench_e5);
criterion_main!(benches);
