//! Stream pins: the exact step count, [`RunStats`] and projected infected
//! count of fixed-seed runs through each dense execution path.
//!
//! The differential harness (`tests/differential.rs`) proves that two
//! paths agree with each other; these pins prove that a path agrees
//! with its own past. A refactor of
//! the run loop that keeps every path equal to every other but shifts
//! one RNG draw (or miscounts one step) changes a pinned number here.
//!
//! * graphical `SID` on `random_regular(256, 4, 12)` under IO through
//!   `Batched` + `Stop::until` — the bulk-drawn, fault-free path;
//! * the epidemic under TW on the uniform dense backend through
//!   `Batched` + `Stop::steps` — the bulk-drawn two-way path;
//! * `SKnO` o = 1 on `complete(32)` under I3 with a [`BoundedStrategy`],
//!   whose RNG-drawing fault decisions force the interleaved
//!   pair-then-fault path.

use ppfts::core::{project, Sid, Skno};
use ppfts::engine::{
    Batched, BoundedStrategy, OneWayModel, OneWayRunner, RunStats, StatsOnly, Stop, TwoWayModel,
    TwoWayRunner,
};
use ppfts::population::{Configuration, Topology};
use ppfts::protocols::Epidemic;

/// Batch size of every pinned run (the harnesses' size).
const BATCH: u64 = 1024;

/// One pinned outcome: runner steps, run statistics, infected agents.
type Pin = (u64, RunStats, usize);

fn stats(steps: u64, omissive: u64, changed: u64, noop: u64) -> RunStats {
    RunStats {
        steps,
        omissive_steps: omissive,
        changed_steps: changed,
        noop_steps: noop,
    }
}

/// Agent 0 infected, everyone else healthy.
fn seeded_inputs(n: usize) -> Vec<bool> {
    (0..n).map(|v| v == 0).collect()
}

fn infected(config: &Configuration<bool>) -> usize {
    config.as_slice().iter().filter(|s| **s).count()
}

fn sid_rr4(seed: u64) -> Pin {
    let graph = Topology::random_regular(256, 4, 12).unwrap();
    let mut runner =
        OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Epidemic, graph.clone()))
            .config(Sid::<Epidemic>::initial(&seeded_inputs(256)))
            .topology(graph)
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
    let out = runner
        .run(
            Batched(BATCH),
            Stop::until(4_000_000, |c| project(c).as_slice().iter().all(|s| *s)),
        )
        .unwrap();
    assert!(out.is_satisfied(), "seed {seed}: SID did not converge");
    assert_eq!(out.steps(), runner.steps());
    (
        runner.steps(),
        runner.stats(),
        infected(&project(runner.config())),
    )
}

fn epidemic_tw(seed: u64) -> Pin {
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
        .config(Configuration::new(seeded_inputs(1000)))
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .unwrap();
    // Mid-epidemic, so the infected count is a sensitive pin.
    runner.run(Batched(BATCH), Stop::steps(5_000)).unwrap();
    (runner.steps(), runner.stats(), infected(runner.config()))
}

fn skno_complete(seed: u64) -> Pin {
    let graph = Topology::complete(32).unwrap();
    let mut runner =
        OneWayRunner::builder(OneWayModel::I3, Skno::graphical(Epidemic, 1, graph.clone()))
            .config(Skno::<Epidemic>::initial(&seeded_inputs(32)))
            .topology(graph)
            .adversary(BoundedStrategy::new(0.02, 1))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
    runner.run(Batched(BATCH), Stop::steps(20_000)).unwrap();
    (
        runner.steps(),
        runner.stats(),
        infected(&project(runner.config())),
    )
}

#[test]
fn sid_on_random_regular_under_io() {
    assert_eq!(sid_rr4(1), (57_344, stats(57_344, 0, 15_176, 42_168), 256));
    assert_eq!(sid_rr4(2), (56_320, stats(56_320, 0, 14_754, 41_566), 256));
    assert_eq!(sid_rr4(3), (59_392, stats(59_392, 0, 15_595, 43_797), 256));
}

#[test]
fn epidemic_on_uniform_dense_under_tw() {
    assert_eq!(epidemic_tw(1), (5_000, stats(5_000, 0, 965, 4_035), 966));
    assert_eq!(epidemic_tw(2), (5_000, stats(5_000, 0, 942, 4_058), 943));
    assert_eq!(epidemic_tw(3), (5_000, stats(5_000, 0, 989, 4_011), 990));
}

#[test]
fn skno_on_complete_under_i3_bounded() {
    assert_eq!(
        skno_complete(1),
        (20_000, stats(20_000, 1, 13_329, 6_671), 31)
    );
    assert_eq!(
        skno_complete(2),
        (20_000, stats(20_000, 1, 13_454, 6_546), 30)
    );
    assert_eq!(
        skno_complete(3),
        (20_000, stats(20_000, 1, 13_820, 6_180), 31)
    );
}
