//! D3 (DESIGN.md ablation) — scheduler choice.
//!
//! Compares uniform-random scheduling (the probabilistic realization of
//! global fairness) against the deterministic round-robin rotation on the
//! SID-simulated Pairing workload. Expect round-robin to be somewhat
//! faster at equal `n` (its hard fairness bound removes the coupon-
//! collector tail) while uniform matches the model assumptions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppfts_core::{project, Sid};
use ppfts_engine::{
    Batched, OneWayModel, OneWayRunner, RoundRobinScheduler, Stop, UniformScheduler,
};
use ppfts_protocols::{Pairing, PairingState};
use ppfts_sweep::workloads::pairing_inputs;

fn bench_schedulers(c: &mut Criterion) {
    let n = 8usize;
    let mut group = c.benchmark_group("schedulers");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("uniform", n), |b| {
        b.iter(|| {
            let sims = pairing_inputs(n);
            let expected = n / 2;
            let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
                .config(Sid::<Pairing>::initial(&sims))
                .scheduler(UniformScheduler::new())
                .seed(2)
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

    group.bench_function(BenchmarkId::new("round_robin", n), |b| {
        b.iter(|| {
            let sims = pairing_inputs(n);
            let expected = n / 2;
            let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
                .config(Sid::<Pairing>::initial(&sims))
                .scheduler(RoundRobinScheduler::new())
                .seed(2)
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

    group.finish();
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
