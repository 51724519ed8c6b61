//! E1 — raw interaction throughput of each interaction model (Figure 1).
//!
//! Measures the cost of one engine step for every model in both families,
//! on the epidemic payload. The shape to expect: one-way models are
//! cheaper than two-way (one update instead of two); omissive decoration
//! adds a constant overhead for the adversary consultation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppfts_engine::{
    Batched, OneWayModel, OneWayProgram, OneWayRunner, RateStrategy, Stop, TwoWayModel,
    TwoWayRunner,
};
use ppfts_population::Configuration;
use ppfts_protocols::Epidemic;

struct OneWayEpidemic;
impl OneWayProgram for OneWayEpidemic {
    type State = bool;
    fn on_receive(&self, s: &bool, r: &bool) -> bool {
        *s || *r
    }
}

fn config(n: usize) -> Configuration<bool> {
    Configuration::new((0..n).map(|i| i == 0).collect())
}

fn bench_models(c: &mut Criterion) {
    let n = 64;
    let steps = 10_000u64;
    let mut group = c.benchmark_group("models");
    group.sample_size(10);

    for model in TwoWayModel::ALL {
        group.bench_with_input(
            BenchmarkId::new("two_way", model.to_string()),
            &model,
            |b, &model| {
                b.iter(|| {
                    let mut runner = TwoWayRunner::builder(model, Epidemic)
                        .config(config(n))
                        .adversary(RateStrategy::new(0.05))
                        .seed(1)
                        .build()
                        .unwrap();
                    runner.run(Batched(1), Stop::steps(steps)).unwrap();
                    runner.stats().steps
                });
            },
        );
    }

    for model in OneWayModel::ALL {
        group.bench_with_input(
            BenchmarkId::new("one_way", model.to_string()),
            &model,
            |b, &model| {
                b.iter(|| {
                    let mut runner = OneWayRunner::builder(model, OneWayEpidemic)
                        .config(config(n))
                        .adversary(RateStrategy::new(0.05))
                        .seed(1)
                        .build()
                        .unwrap();
                    runner.run(Batched(1), Stop::steps(steps)).unwrap();
                    runner.stats().steps
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
