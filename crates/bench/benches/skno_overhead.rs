//! E5/E6 — SKnO's overhead in the omission bound `o` (Theorem 4.1,
//! Corollary 1).
//!
//! Two measurements on a fixed population:
//!
//! * convergence time vs `o` — expect roughly linear growth in the run
//!   length `o + 1` (every announcement ships `o + 1` tokens);
//! * peak per-agent token footprint vs `o` — the measured side of the
//!   Θ(|Q_P|·(o+1)·log n) memory bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppfts_core::{project, Skno};
use ppfts_engine::{Batched, BoundedStrategy, OneWayModel, OneWayRunner, Stop};
use ppfts_protocols::{Pairing, PairingState};
use ppfts_sweep::workloads::{pairing_inputs, skno_peak_tokens};

fn bench_convergence_vs_bound(c: &mut Criterion) {
    let n = 8usize;
    let mut group = c.benchmark_group("skno_vs_bound");
    group.sample_size(10);
    for o in [0u32, 1, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(o), &o, |b, &o| {
            b.iter(|| {
                let sims = pairing_inputs(n);
                let expected = n / 2;
                let mut runner = OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
                    .config(Skno::<Pairing>::initial(&sims))
                    .adversary(BoundedStrategy::new(0.02, o as u64))
                    .seed(3)
                    .build()
                    .unwrap();
                let out = runner
                    .run(
                        Batched(1),
                        Stop::until(50_000_000, |c| {
                            project(c).count_state(&PairingState::Paired) == expected
                        }),
                    )
                    .unwrap();
                assert!(out.is_satisfied());
                out.steps()
            });
        });
    }
    group.finish();
}

fn bench_memory_vs_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("skno_peak_tokens");
    group.sample_size(10);
    for o in [0u32, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(o), &o, |b, &o| {
            b.iter(|| skno_peak_tokens(8, o, 20_000, 5));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_convergence_vs_bound, bench_memory_vs_bound);
criterion_main!(benches);
