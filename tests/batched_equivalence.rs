//! Step ↔ batched equivalence: for any seed, protocol, model, omission
//! strategy and batch size, `run(Batched(b), Stop::steps(n))` must be
//! *bit-identical* to `n` calls of `step()`, the pure-outcome record path
//! — same final `Configuration`, same `RunStats`, same total step count —
//! because both draw (interaction, fault) pairs from the shared RNG
//! stream in the same order and apply the same outcomes.
//!
//! The same holds for `Stop::until(n, pred)` while `pred` never holds. This is the contract that lets the experiment harnesses move to
//! the batched `StatsOnly` path without changing any measured dynamics.
//! CI runs this suite with `PROPTEST_CASES=64` on every push.

use proptest::prelude::*;

use ppfts::core::{NamedSid, Sid, Skno};
use ppfts::engine::{
    Batched, BoundedStrategy, FullTrace, OneWayModel, OneWayProgram, OneWayRunner, RateStrategy,
    RunStats, SampledTrace, StatsOnly, Stop, TwoWayModel, TwoWayRunner,
};
use ppfts::population::{Configuration, Topology};
use ppfts::protocols::{Epidemic, MaxGossip, Pairing, PairingState};

/// One-way epidemic: the reactor catches whatever the starter carries.
struct Or;
impl OneWayProgram for Or {
    type State = bool;
    fn on_receive(&self, s: &bool, r: &bool) -> bool {
        *s || *r
    }
}

fn one_way_model_strategy() -> impl Strategy<Value = OneWayModel> {
    prop_oneof![
        Just(OneWayModel::It),
        Just(OneWayModel::Io),
        Just(OneWayModel::I1),
        Just(OneWayModel::I2),
        Just(OneWayModel::I3),
        Just(OneWayModel::I4),
    ]
}

fn two_way_model_strategy() -> impl Strategy<Value = TwoWayModel> {
    prop_oneof![
        Just(TwoWayModel::Tw),
        Just(TwoWayModel::T1),
        Just(TwoWayModel::T2),
        Just(TwoWayModel::T3),
    ]
}

fn pairing_state_strategy() -> impl Strategy<Value = PairingState> {
    prop_oneof![
        Just(PairingState::Paired),
        Just(PairingState::Consumer),
        Just(PairingState::Producer),
        Just(PairingState::Spent),
    ]
}

/// Drives `runner` through `step()` (`None`) or `Batched(b)` and
/// snapshots the observable state.
macro_rules! outcome_of {
    ($runner:expr, $steps:expr, $batch:expr) => {{
        let mut r = $runner;
        match $batch {
            Some(b) => {
                r.run(Batched(b), Stop::steps($steps)).unwrap();
            }
            None => {
                for _ in 0..$steps {
                    r.step().unwrap();
                }
            }
        }
        (r.config().clone(), r.stats(), r.steps())
    }};
}

/// Drives `runner` through `Stop::until` with a predicate that
/// never holds, so the whole budget runs, and snapshots it like
/// [`outcome_of`].
macro_rules! until_outcome_of {
    ($runner:expr, $steps:expr, $batch:expr) => {{
        let mut r = $runner;
        let out = r
            .run(Batched($batch), Stop::until($steps, |_| false))
            .unwrap();
        assert!(!out.is_satisfied());
        assert_eq!(out.steps(), r.steps());
        (r.config().clone(), r.stats(), r.steps())
    }};
}

/// A step budget that is not a multiple of `batch`, so the last batch
/// of a batched run is a short one.
fn ragged(steps: u64, batch: u64) -> u64 {
    if steps.is_multiple_of(batch) {
        steps + 1
    } else {
        steps
    }
}

fn assert_equiv<Q: ppfts::population::State + std::fmt::Debug>(
    scalar: &(Configuration<Q>, RunStats, u64),
    batched: &(Configuration<Q>, RunStats, u64),
    label: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(
        scalar.0.as_slice(),
        batched.0.as_slice(),
        "configuration diverged: {}",
        label
    );
    prop_assert_eq!(scalar.1, batched.1, "stats diverged: {}", label);
    prop_assert_eq!(scalar.2, batched.2, "step count diverged: {}", label);
    Ok(())
}

proptest! {
    /// One-way epidemic under every one-way model with a rate adversary.
    #[test]
    fn one_way_epidemic_scalar_equals_batched(
        model in one_way_model_strategy(),
        infected in prop::collection::vec(any::<bool>(), 2..16),
        rate in 0u32..=100,
        seed in 0u64..10_000,
        steps in 0u64..400,
        batch in 1u64..260,
    ) {
        let build = || OneWayRunner::builder(model, Or)
            .config(Configuration::new(infected.clone()))
            .adversary(RateStrategy::new(rate as f64 / 100.0))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let scalar = outcome_of!(build(), steps, None);
        let batched = outcome_of!(build(), steps, Some(batch));
        assert_equiv(&scalar, &batched, "one-way epidemic")?;
    }

    /// The SKnO simulator (heavy token-carrying states) under I3 with a
    /// bounded adversary: the workload E5 measures.
    #[test]
    fn skno_scalar_equals_batched(
        consumers in 1usize..5,
        producers in 1usize..5,
        o in 0u32..3,
        seed in 0u64..10_000,
        steps in 0u64..300,
        batch in 1u64..300,
    ) {
        let sims: Vec<PairingState> = Pairing::initial(consumers, producers)
            .as_slice()
            .to_vec();
        let build = || OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
            .config(Skno::<Pairing>::initial(&sims))
            .adversary(BoundedStrategy::new(0.05, o as u64))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let scalar = outcome_of!(build(), steps, None);
        let batched = outcome_of!(build(), steps, Some(batch));
        assert_equiv(&scalar, &batched, "SKnO under I3")?;
    }

    /// The SID simulator under IO (fault-free one-way).
    #[test]
    fn sid_scalar_equals_batched(
        consumers in 1usize..5,
        producers in 1usize..5,
        seed in 0u64..10_000,
        steps in 0u64..300,
        batch in 1u64..300,
    ) {
        let sims: Vec<PairingState> = Pairing::initial(consumers, producers)
            .as_slice()
            .to_vec();
        let build = || OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
            .config(Sid::<Pairing>::initial(&sims))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let scalar = outcome_of!(build(), steps, None);
        let batched = outcome_of!(build(), steps, Some(batch));
        assert_equiv(&scalar, &batched, "SID under IO")?;
    }

    /// Two-way protocols under every two-way model with a rate adversary
    /// (the uniform side policy samples among the model's permitted
    /// faults, so every model/fault combination stays legal).
    #[test]
    fn two_way_pairing_scalar_equals_batched(
        model in two_way_model_strategy(),
        states in prop::collection::vec(pairing_state_strategy(), 2..12),
        rate in 0u32..=100,
        seed in 0u64..10_000,
        steps in 0u64..400,
        batch in 1u64..260,
    ) {
        let build = || TwoWayRunner::builder(model, Pairing)
            .config(Configuration::new(states.clone()))
            .adversary(RateStrategy::new(rate as f64 / 100.0))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let scalar = outcome_of!(build(), steps, None);
        let batched = outcome_of!(build(), steps, Some(batch));
        assert_equiv(&scalar, &batched, "two-way Pairing")?;
    }

    /// Max-gossip (two-way, totals change every effective meeting) under
    /// TW: exercises the write-if-changed fast path on a protocol where
    /// most early steps change state.
    #[test]
    fn two_way_gossip_scalar_equals_batched(
        values in prop::collection::vec(0u64..50, 2..10),
        seed in 0u64..10_000,
        steps in 0u64..300,
        batch in 1u64..64,
    ) {
        let build = || TwoWayRunner::builder(TwoWayModel::Tw, MaxGossip)
            .config(Configuration::new(values.clone()))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let scalar = outcome_of!(build(), steps, None);
        let batched = outcome_of!(build(), steps, Some(batch));
        assert_equiv(&scalar, &batched, "two-way max-gossip")?;
    }

    /// `Stop::until` with a predicate that never holds is the
    /// scalar run: graphical `SID` on a random regular graph under IO,
    /// the path and setting of the `sid-sparse` benchmark workload.
    #[test]
    fn sid_on_random_regular_scalar_equals_batched_until(
        half in 3usize..10,
        graph_seed in 0u64..1_000,
        infected in any::<u32>(),
        seed in 0u64..10_000,
        steps in 0u64..400,
        batch in 1u64..128,
    ) {
        let n = 2 * half;
        let graph = Topology::random_regular(n, 3, graph_seed).unwrap();
        let inputs: Vec<bool> = (0..n).map(|v| (infected >> v) & 1 == 1).collect();
        let build = || OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Epidemic, graph.clone()))
            .config(Sid::<Epidemic>::initial(&inputs))
            .topology(graph.clone())
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let steps = ragged(steps, batch);
        let scalar = outcome_of!(build(), steps, None);
        let until = until_outcome_of!(build(), steps, batch);
        assert_equiv(&scalar, &until, "graphical SID, Stop::until")?;
    }

    /// The same for the two-way family: max-gossip under TW on the
    /// uniform scheduler.
    #[test]
    fn two_way_gossip_scalar_equals_batched_until(
        values in prop::collection::vec(0u64..50, 2..10),
        seed in 0u64..10_000,
        steps in 0u64..300,
        batch in 1u64..64,
    ) {
        let build = || TwoWayRunner::builder(TwoWayModel::Tw, MaxGossip)
            .config(Configuration::new(values.clone()))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let steps = ragged(steps, batch);
        let scalar = outcome_of!(build(), steps, None);
        let until = until_outcome_of!(build(), steps, batch);
        assert_equiv(&scalar, &until, "two-way max-gossip, Stop::until")?;
    }

    /// Cross-path equivalence: a passive sink routes execution through
    /// the programs' in-place hooks, a recording sink through the pure
    /// outcome functions. Both must produce the same configuration and
    /// stats — this is what certifies `Skno`'s hand-written in-place
    /// overrides against the pure transition semantics, under both I3
    /// (reactor-side detection) and I4 (starter-side detection).
    #[test]
    fn in_place_path_matches_pure_path_for_skno(
        consumers in 1usize..5,
        producers in 1usize..5,
        o in 0u32..3,
        i4 in any::<bool>(),
        rate in 0u32..=30,
        seed in 0u64..10_000,
        steps in 0u64..300,
        batch in 1u64..128,
    ) {
        let model = if i4 { OneWayModel::I4 } else { OneWayModel::I3 };
        let sims: Vec<PairingState> = Pairing::initial(consumers, producers)
            .as_slice()
            .to_vec();
        let pure = {
            let mut r = OneWayRunner::builder(model, Skno::new(Pairing, o))
                .config(Skno::<Pairing>::initial(&sims))
                .adversary(RateStrategy::new(rate as f64 / 100.0))
                .seed(seed)
                .trace_sink(FullTrace::new())
                .build()
                .unwrap();
            for _ in 0..steps {
                r.step().unwrap();
            }
            (r.config().clone(), r.stats(), r.steps())
        };
        let in_place = {
            let mut r = OneWayRunner::builder(model, Skno::new(Pairing, o))
                .config(Skno::<Pairing>::initial(&sims))
                .adversary(RateStrategy::new(rate as f64 / 100.0))
                .seed(seed)
                .trace_sink(StatsOnly)
                .build()
                .unwrap();
            r.run(Batched(batch), Stop::steps(steps)).unwrap();
            (r.config().clone(), r.stats(), r.steps())
        };
        assert_equiv(&pure, &in_place, "Skno pure vs in-place")?;
    }

    /// `Sid`'s hand-written in-place handshake against the pure
    /// observation semantics: a passive sink routes through
    /// `observe_in_place`, a recording sink through `observe` plus
    /// compare-and-store. Both must agree bit-for-bit, anonymous and
    /// graphical; the graphical input runs on a star (pairwise
    /// non-adjacent leaves), so every handshake takes the adjacency path.
    #[test]
    fn in_place_path_matches_pure_path_for_sid(
        consumers in 1usize..5,
        producers in 1usize..5,
        graphical in any::<bool>(),
        seed in 0u64..10_000,
        steps in 0u64..400,
        batch in 1u64..128,
    ) {
        let sims: Vec<PairingState> = Pairing::initial(consumers, producers)
            .as_slice()
            .to_vec();
        macro_rules! pure_and_in_place {
            ($builder:expr) => {{
                let mut pure = $builder
                    .seed(seed)
                    .trace_sink(FullTrace::new())
                    .build()
                    .unwrap();
                for _ in 0..steps {
                    pure.step().unwrap();
                }
                let mut in_place = $builder
                    .seed(seed)
                    .trace_sink(StatsOnly)
                    .build()
                    .unwrap();
                in_place.run(Batched(batch), Stop::steps(steps)).unwrap();
                (
                    (pure.config().clone(), pure.stats(), pure.steps()),
                    (in_place.config().clone(), in_place.stats(), in_place.steps()),
                )
            }};
        }
        let (pure, in_place) = if graphical {
            let star = Topology::star(sims.len()).unwrap();
            pure_and_in_place!(
                OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Pairing, star.clone()))
                    .config(Sid::<Pairing>::initial(&sims))
                    .topology(star.clone())
            )
        } else {
            pure_and_in_place!(
                OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
                    .config(Sid::<Pairing>::initial(&sims))
            )
        };
        assert_equiv(&pure, &in_place, "Sid pure vs in-place")?;
    }

    /// `NamedSid`'s in-place naming-plus-handshake against the pure
    /// semantics, through both the naming phase and the composed SID
    /// phase.
    #[test]
    fn in_place_path_matches_pure_path_for_named_sid(
        consumers in 1usize..5,
        producers in 1usize..5,
        seed in 0u64..10_000,
        steps in 0u64..500,
        batch in 1u64..128,
    ) {
        let sims: Vec<PairingState> = Pairing::initial(consumers, producers)
            .as_slice()
            .to_vec();
        let n = sims.len();
        let pure = {
            let mut r = OneWayRunner::builder(OneWayModel::Io, NamedSid::new(Pairing, n))
                .config(NamedSid::<Pairing>::initial(&sims))
                .seed(seed)
                .trace_sink(FullTrace::new())
                .build()
                .unwrap();
            for _ in 0..steps {
                r.step().unwrap();
            }
            (r.config().clone(), r.stats(), r.steps())
        };
        let in_place = {
            let mut r = OneWayRunner::builder(OneWayModel::Io, NamedSid::new(Pairing, n))
                .config(NamedSid::<Pairing>::initial(&sims))
                .seed(seed)
                .trace_sink(StatsOnly)
                .build()
                .unwrap();
            r.run(Batched(batch), Stop::steps(steps)).unwrap();
            (r.config().clone(), r.stats(), r.steps())
        };
        assert_equiv(&pure, &in_place, "NamedSid pure vs in-place")?;
    }

    /// Equivalence also holds for *recording* sinks: a batched run feeds
    /// the sink the same records as a scalar run, for both the full and
    /// the sampled sink.
    #[test]
    fn recording_sinks_see_identical_records(
        infected in prop::collection::vec(any::<bool>(), 2..10),
        seed in 0u64..10_000,
        steps in 0u64..200,
        batch in 1u64..64,
        stride in 1u64..20,
    ) {
        let scalar = {
            let mut r = OneWayRunner::builder(OneWayModel::Io, Or)
                .config(Configuration::new(infected.clone()))
                .seed(seed)
                .trace_sink(FullTrace::new())
                .build()
                .unwrap();
            for _ in 0..steps {
                r.step().unwrap();
            }
            (r.take_trace().unwrap(), r.config().clone())
        };
        let batched = {
            let mut r = OneWayRunner::builder(OneWayModel::Io, Or)
                .config(Configuration::new(infected.clone()))
                .seed(seed)
                .trace_sink(FullTrace::new())
                .build()
                .unwrap();
            r.run(Batched(batch), Stop::steps(steps)).unwrap();
            (r.take_trace().unwrap(), r.config().clone())
        };
        prop_assert_eq!(&scalar.0, &batched.0, "full traces diverged");
        prop_assert_eq!(scalar.1.as_slice(), batched.1.as_slice());

        let sampled = {
            let mut r = OneWayRunner::builder(OneWayModel::Io, Or)
                .config(Configuration::new(infected.clone()))
                .seed(seed)
                .trace_sink(SampledTrace::every(stride))
                .build()
                .unwrap();
            r.run(Batched(batch), Stop::steps(steps)).unwrap();
            r.take_trace().unwrap()
        };
        // The sampled sink's records are a subsequence of the full trace.
        let mut full = scalar.0.iter();
        for rec in &sampled {
            prop_assert!(
                full.any(|r| r == rec),
                "sampled record {:?} not in the full trace in order",
                rec.index
            );
        }
    }
}
