//! Cost of the simulation-verification pipeline (Definitions 3–4).
//!
//! Measures event extraction, matching construction and derived-execution
//! verification as a function of trace length, for both the ID-exact
//! (`SID`) and anonymous (`SKnO`) paths. Expect near-linear growth: the
//! matcher is bucketed-FIFO and the verifier a greedy fixpoint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppfts_core::{build_matching, extract_events, project, Sid, Skno};
use ppfts_engine::{Batched, FullTrace, OneWayModel, OneWayRunner, Stop};
use ppfts_protocols::Pairing;
use ppfts_sweep::workloads::pairing_inputs;

fn bench_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("verification");
    group.sample_size(10);

    for steps in [2_000u64, 8_000, 32_000] {
        // Pre-build the trace once per size; measure only the pipeline.
        let sims = pairing_inputs(8);
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
            .config(Sid::<Pairing>::initial(&sims))
            .trace_sink(FullTrace::new())
            .seed(9)
            .build()
            .unwrap();
        let initial = project(runner.config());
        runner.run(Batched(1), Stop::steps(steps)).unwrap();
        let trace = runner.take_trace().unwrap();

        group.bench_with_input(BenchmarkId::new("sid_pipeline", steps), &steps, |b, _| {
            b.iter(|| {
                let events = extract_events(&trace);
                let matching = build_matching(&Pairing, &events).unwrap();
                let derived =
                    ppfts_core::verify_derived_execution(&Pairing, &initial, &events, &matching)
                        .unwrap();
                (events.len(), matching.len(), derived.len())
            });
        });
    }

    for steps in [2_000u64, 8_000] {
        let sims = pairing_inputs(8);
        let mut runner = OneWayRunner::builder(OneWayModel::It, Skno::new(Pairing, 0))
            .config(Skno::<Pairing>::initial(&sims))
            .trace_sink(FullTrace::new())
            .seed(9)
            .build()
            .unwrap();
        let initial = project(runner.config());
        runner.run(Batched(1), Stop::steps(steps)).unwrap();
        let trace = runner.take_trace().unwrap();

        group.bench_with_input(BenchmarkId::new("skno_pipeline", steps), &steps, |b, _| {
            b.iter(|| {
                let events = extract_events(&trace);
                let matching = build_matching(&Pairing, &events).unwrap();
                let derived =
                    ppfts_core::verify_derived_execution(&Pairing, &initial, &events, &matching)
                        .unwrap();
                (events.len(), matching.len(), derived.len())
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_verification);
criterion_main!(benches);
