//! E5/E7 — simulator convergence vs population size (Theorems 4.1, 4.5).
//!
//! Measures time-to-stabilization of the simulated Pairing workload for
//! `SID` (IO + IDs) and `SKnO` (I3 + omission bound) across `n`. The
//! shape to expect: superlinear growth in `n` (token/handshake round
//! trips dominate), with SKnO slower than SID by roughly the run-length
//! factor `o + 1`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppfts_core::{project, Sid, Skno};
use ppfts_engine::{Batched, BoundedStrategy, OneWayModel, OneWayRunner, Stop};
use ppfts_protocols::{Pairing, PairingState};
use ppfts_sweep::workloads::pairing_inputs;

fn bench_sid(c: &mut Criterion) {
    let mut group = c.benchmark_group("sid_convergence");
    group.sample_size(10);
    for n in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let sims = pairing_inputs(n);
                let expected = n / 2;
                let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
                    .config(Sid::<Pairing>::initial(&sims))
                    .seed(7)
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

fn bench_skno(c: &mut Criterion) {
    let mut group = c.benchmark_group("skno_convergence");
    group.sample_size(10);
    for n in [4usize, 8, 16] {
        for o in [0u32, 2] {
            group.bench_with_input(
                BenchmarkId::new(format!("o{o}"), n),
                &(n, o),
                |b, &(n, o)| {
                    b.iter(|| {
                        let sims = pairing_inputs(n);
                        let expected = n / 2;
                        let mut runner =
                            OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
                                .config(Skno::<Pairing>::initial(&sims))
                                .adversary(BoundedStrategy::new(0.02, o as u64))
                                .seed(7)
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
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sid, bench_skno);
criterion_main!(benches);
