//! E8 — the naming protocol `Nn` (Lemma 3, Theorem 4.6).
//!
//! Measures interactions until every agent has acquired its unique name
//! and started simulating, vs `n`. Expect superlinear growth: the last
//! collision at each level is a rendezvous of two specific agents, a
//! Θ(n²)-expected event under uniform scheduling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppfts_core::NamedSid;
use ppfts_engine::{Batched, OneWayModel, OneWayRunner, Stop};
use ppfts_population::Configuration;
use ppfts_protocols::Pairing;
use ppfts_sweep::workloads::pairing_inputs;

fn bench_naming(c: &mut Criterion) {
    let mut group = c.benchmark_group("naming_phase");
    group.sample_size(10);
    for n in [4usize, 8, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let sims = pairing_inputs(n);
                let mut runner = OneWayRunner::builder(OneWayModel::Io, NamedSid::new(Pairing, n))
                    .config(NamedSid::<Pairing>::initial(&sims))
                    .seed(13)
                    .build()
                    .unwrap();
                let out = runner
                    .run(
                        Batched(1),
                        Stop::until(100_000_000, |c: &Configuration<_>| {
                            c.as_slice()
                                .iter()
                                .all(ppfts_core::NamedState::is_simulating)
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

criterion_group!(benches, bench_naming);
criterion_main!(benches);
