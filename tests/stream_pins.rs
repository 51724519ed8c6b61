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
//!   pair-then-fault path;
//! * the epidemic under T1 on the count backend with a [`RateStrategy`]
//!   and [`SidePolicy::Uniform`] through `Batched` + `Stop::steps` — the
//!   interleaved count path, whose omissive steps also draw a side;
//! * the epidemic under T1 on a small count population through `Epochs`
//!   — the epoch path's i.i.d. fault mix;
//! * the epidemic under TW on 10⁵ counted agents through `Epochs` — the
//!   fault-free epoch path, whose batches draw no outcome class.

use ppfts::core::{project, Sid, Skno};
use ppfts::engine::{
    Batched, BoundedStrategy, Epochs, OneWayModel, OneWayRunner, RateStrategy, RunStats,
    SidePolicy, StatsOnly, Stop, TwoWayModel, TwoWayRunner,
};
use ppfts::population::{Configuration, CountConfiguration, Topology};
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

/// The epidemic under T1 at omission rate 0.1 on 1000 counted agents,
/// through `Batched` or `Epochs`.
fn epidemic_t1_counts(seed: u64, epochs: bool) -> Pin {
    let mut runner = TwoWayRunner::builder(TwoWayModel::T1, Epidemic)
        .population(CountConfiguration::from_groups([(true, 1), (false, 999)]))
        .adversary(RateStrategy::new(0.1))
        .side_policy(SidePolicy::Uniform)
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .unwrap();
    let stop = Stop::steps(5_000);
    let out = if epochs {
        runner.run(Epochs, stop)
    } else {
        runner.run(Batched(BATCH), stop)
    };
    out.unwrap();
    (
        runner.steps(),
        runner.stats(),
        runner.config().count_state(&true),
    )
}

/// The fault-free epidemic under TW on 10⁵ counted agents through
/// `Epochs`, stopped mid-epidemic.
fn epidemic_tw_epochs(seed: u64) -> Pin {
    let n = 100_000;
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
        .population(CountConfiguration::from_groups([(true, 1), (false, n - 1)]))
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .unwrap();
    runner.run(Epochs, Stop::steps(600_000)).unwrap();
    (
        runner.steps(),
        runner.stats(),
        runner.config().count_state(&true),
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

#[test]
fn epidemic_on_counts_under_t1() {
    let interleaved = [(487, 782, 4_218), (489, 928, 4_072), (508, 969, 4_031)];
    let epochs = [(509, 973, 4_027), (505, 665, 4_335), (525, 931, 4_069)];
    for (path, pins) in [(false, interleaved), (true, epochs)] {
        for (seed, (omissive, changed, noop)) in (1..).zip(pins) {
            let infected = changed as usize + 1;
            let pin = (5_000, stats(5_000, omissive, changed, noop), infected);
            assert_eq!(
                epidemic_t1_counts(seed, path),
                pin,
                "seed {seed}, epochs {path}"
            );
        }
    }
}

#[test]
fn epidemic_on_counts_under_tw_through_epochs() {
    let pins = [(75_710, 524_290), (21_393, 578_607), (53_532, 546_468)];
    for (seed, (changed, noop)) in (1..).zip(pins) {
        let pin = (
            600_000,
            stats(600_000, 0, changed, noop),
            changed as usize + 1,
        );
        assert_eq!(epidemic_tw_epochs(seed), pin, "seed {seed}");
    }
}
