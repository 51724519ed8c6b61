//! E15 — the batch-epoch count backend at scale: the giant-n epidemic of
//! E11 driven through `Epochs` + `Stop::until`, swept over six decades of
//! population size. Each batch of ≈ 1.6√n interactions applies its
//! collision-free ones as one multivariate draw and its few collisions
//! one by one, so the cost per batch is O(distinct state pairs) —
//! per-interaction work *shrinks* as n grows.
//!
//! * `epidemic_epoch_n1e2` … `epidemic_epoch_n1e8` — one seed of the
//!   epidemic at n = 10²…10⁸ run to stable full infection on the epoch
//!   path. The n = 10⁶ entry is the headline: the acceptance bar is
//!   ≤ 10 ms/seed against the 0.26 s interleaved floor committed as
//!   `e11_giant/epidemic_count_n1e6`.
//! * `epidemic_epoch_n1e9` — the open-regime size the interleaved path
//!   cannot reach in reasonable time; single sample.
//!
//! Run with `BENCH_JSON=$PWD/BENCH_RESULTS.json cargo bench -p
//! ppfts-bench --bench e15_epoch` from the workspace root to record the
//! numbers into the committed baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use ppfts_bench::measure_epidemic_epoch;

/// Interaction budget per size: 400·n covers the Θ(n log n) epidemic with
/// the same headroom E11 gives its n = 10⁶ runs.
fn budget(n: usize) -> u64 {
    (n as u64).saturating_mul(400)
}

fn bench_e15(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_epoch");
    group.sample_size(10);
    for (id, n) in [
        ("epidemic_epoch_n1e2", 100),
        ("epidemic_epoch_n1e3", 1_000),
        ("epidemic_epoch_n1e4", 10_000),
        ("epidemic_epoch_n1e5", 100_000),
        ("epidemic_epoch_n1e6", 1_000_000),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let conv = measure_epidemic_epoch(n, 1, budget(n));
                assert_eq!(conv.converged, 1, "seed 0 must converge in budget");
                conv.mean_steps
            });
        });
    }
    group.sample_size(3);
    group.bench_function("epidemic_epoch_n1e7", |b| {
        b.iter(|| {
            let conv = measure_epidemic_epoch(10_000_000, 1, budget(10_000_000));
            assert_eq!(conv.converged, 1, "seed 0 must converge in budget");
            conv.mean_steps
        });
    });
    group.bench_function("epidemic_epoch_n1e8", |b| {
        b.iter(|| {
            let conv = measure_epidemic_epoch(100_000_000, 1, budget(100_000_000));
            assert_eq!(conv.converged, 1, "seed 0 must converge in budget");
            conv.mean_steps
        });
    });
    group.sample_size(1);
    group.bench_function("epidemic_epoch_n1e9", |b| {
        b.iter(|| {
            let conv = measure_epidemic_epoch(1_000_000_000, 1, budget(1_000_000_000));
            assert_eq!(conv.converged, 1, "seed 0 must converge in budget");
            conv.mean_steps
        });
    });
    group.finish();
}

criterion_group!(benches, bench_e15);
criterion_main!(benches);
