//! End-to-end replay fidelity: a genome the fuzzer found, serialized to
//! JSON and parsed back, must reproduce the exact same run — `RunStats`
//! is `Eq`, so "same" means bit-for-bit equality, not approximation.
//! Plus proptests pinning serialization and mutator determinism.

use ppfts_fuzz::{crossover, fuzz, mutate, FuzzConfig, FuzzTarget, MutationCtx, ScheduleGenome};
use ppfts_population::Topology;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use ppfts_engine::{RateSegment, ScheduledEvent};

/// The weakened target the self-test uses: simulator provisioned for 0
/// omissions while the schedule class allows 1.
fn weakened_target() -> FuzzTarget {
    FuzzTarget::new(Topology::complete(8).unwrap(), 0, 1, vec![1, 2], 40_000, 1)
}

#[test]
fn found_genome_survives_json_roundtrip_and_replays_bit_identically() {
    let target = weakened_target();
    let cfg = FuzzConfig {
        budget: 8,
        rng_seed: 7,
        corpus_cap: 8,
    };
    let report = fuzz(&target, &cfg);
    assert!(report.broke(), "fuzzer must break the weakened target");

    let json = report.best.genome.to_json();
    let parsed = ScheduleGenome::from_json(&json).expect("emitted JSON parses back");
    assert_eq!(parsed, report.best.genome, "round-trip is lossless");

    // The replay contract: the parsed genome drives the exact same runs.
    // Evaluation derives Eq, so this compares every seed's RunStats,
    // convergence flag, step count, and pressure field bit-for-bit.
    let original = target.evaluate(&report.best.genome);
    let replayed = target.evaluate(&parsed);
    assert_eq!(original, replayed, "replay must be bit-identical");
    assert_eq!(original.severity, report.best.severity);

    // And the replay is a faithful member of the schedule class.
    for &seed in &[1, 2] {
        assert!(
            target.audit_replay(&parsed, seed).unwrap().is_empty(),
            "audit must certify the replayed schedule"
        );
    }
}

#[test]
fn unmodified_skno_survives_the_self_test_budget() {
    // The other half of the self-test contract: a properly provisioned
    // simulator (o_sim == o_budget == 1) withstands the same budget
    // that breaks the weakened mutant.
    let target = FuzzTarget::new(Topology::complete(8).unwrap(), 1, 1, vec![1, 2], 40_000, 1);
    let cfg = FuzzConfig {
        budget: 8,
        rng_seed: 7,
        corpus_cap: 8,
    };
    let report = fuzz(&target, &cfg);
    assert!(
        !report.broke(),
        "provisioned SKnO must survive: {:?}",
        report.best.severity
    );
}

/// Builds a genome from plain integers so proptest strategies (which
/// have no float or struct combinators in the shim) can drive it.
fn genome_from_parts(
    events: &[(u64, u64, usize)],
    segments: &[(u64, u64, u32)],
    salt: u32,
) -> ScheduleGenome {
    ScheduleGenome {
        events: events
            .iter()
            .map(|&(from, len, tgt)| ScheduledEvent {
                from,
                until: from + len.max(1),
                // Encode "untargeted" as a sentinel past the population.
                target: (tgt < 16).then_some(tgt),
            })
            .collect(),
        segments: segments
            .iter()
            .map(|&(from, len, millis)| RateSegment {
                from,
                until: from + len.max(1),
                rate: f64::from(millis.min(1000)) / 1000.0,
            })
            .collect(),
        salt: u64::from(salt),
    }
}

proptest! {
    #[test]
    fn json_roundtrip_is_lossless_for_arbitrary_genomes(
        events in prop::collection::vec((0u64..100_000, 1u64..50_000, 0usize..20), 0..5),
        segments in prop::collection::vec((0u64..100_000, 1u64..50_000, 0u32..=1000), 0..4),
        salt in any::<u32>(),
    ) {
        let genome = genome_from_parts(&events, &segments, salt);
        let json = genome.to_json();
        let parsed = ScheduleGenome::from_json(&json);
        prop_assert!(parsed.is_ok(), "emitted JSON must parse: {json}");
        prop_assert_eq!(parsed.unwrap(), genome);
    }

    #[test]
    fn mutate_is_a_pure_function_of_genome_and_rng_seed(
        events in prop::collection::vec((0u64..1000, 1u64..200, 0usize..20), 0..4),
        salt in any::<u32>(),
        rng_seed in any::<u64>(),
        rounds in 1usize..20,
    ) {
        let base = genome_from_parts(&events, &[], salt);
        let cut = [2usize, 5];
        let ctx = MutationCtx {
            max_step: 1000,
            cut_vertices: &cut,
            population: 16,
            max_events: 3,
        };
        let run = || {
            let mut rng = SmallRng::seed_from_u64(rng_seed);
            let mut g = base.clone();
            for _ in 0..rounds {
                g = mutate(&g, &ctx, &mut rng);
            }
            g
        };
        prop_assert_eq!(run(), run(), "same seed must replay the same mutation chain");
    }

    #[test]
    fn crossover_is_deterministic_and_respects_the_event_cap(
        a_events in prop::collection::vec((0u64..1000, 1u64..200, 0usize..20), 0..4),
        b_events in prop::collection::vec((0u64..1000, 1u64..200, 0usize..20), 0..4),
        rng_seed in any::<u64>(),
    ) {
        let a = genome_from_parts(&a_events, &[], 1);
        let b = genome_from_parts(&b_events, &[], 2);
        let ctx = MutationCtx {
            max_step: 1000,
            cut_vertices: &[],
            population: 16,
            max_events: 3,
        };
        let run = || {
            let mut rng = SmallRng::seed_from_u64(rng_seed);
            crossover(&a, &b, &ctx, &mut rng)
        };
        let child = run();
        prop_assert_eq!(&child, &run());
        prop_assert!(child.events.len() <= ctx.max_events);
        prop_assert!(child.salt == a.salt || child.salt == b.salt);
    }
}
