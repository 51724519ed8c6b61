//! The negative side of the paper, end to end (Theorems 3.1–3.3).
//!
//! Each test executes one of the paper's adversarial constructions against
//! a concrete simulator and checks that the predicted failure — a Pairing
//! safety violation, or a liveness collapse — actually materializes.

use ppfts::core::project;
use ppfts::core::{Skno, SknoState};
use ppfts::engine::{AtMostOneStrategy, Batched, OneWayModel, OneWayRunner, Stop};
use ppfts::protocols::{Pairing, PairingState};
use ppfts::verify::{
    lemma1_attack, no1_resilience, thm32_attack, AttackOutcome, Optimist, OptimistState,
};

#[test]
fn thm31_lemma1_breaks_skno_in_i3_for_every_small_bound() {
    for o in 1..=3u32 {
        let report = lemma1_attack(
            OneWayModel::I3,
            Skno::new(Pairing, o),
            SknoState::new,
            128,
            512,
        )
        .unwrap();
        // FTT = 2(o+1) — the threshold at which the paper predicts doom.
        assert_eq!(report.ftt, 2 * (o + 1), "o = {o}");
        assert_eq!(report.omissions_in_run, report.ftt as u64);
        match report.outcome {
            AttackOutcome::SafetyViolated { paired, producers } => {
                assert!(paired > producers, "Lemma 1 guarantees t+1 paired");
                assert_eq!(producers, report.ftt as usize);
            }
            other => panic!("expected safety violation for o = {o}, got {other:?}"),
        }
    }
}

#[test]
fn thm31_symmetric_variant_in_i4() {
    for o in 1..=2u32 {
        let report = lemma1_attack(
            OneWayModel::I4,
            Skno::new(Pairing, o),
            SknoState::new,
            128,
            512,
        )
        .unwrap();
        assert!(
            report.violated_safety(),
            "I4, o = {o}: expected violation, got {:?}",
            report.outcome
        );
    }
}

#[test]
fn thm32_dichotomy_first_horn_skno_stalls_in_weak_models() {
    // In I1/I2 nothing detects omissions, so SKnO cannot mint jokers and
    // one lost token stalls it forever: not NO1-resilient.
    for model in [OneWayModel::I1, OneWayModel::I2] {
        let failures = no1_resilience(model, &Skno::new(Pairing, 1), SknoState::new, 6, 4_000);
        assert!(
            !failures.is_empty(),
            "{model}: SKnO should stall under some single omission"
        );
    }
}

#[test]
fn thm32_dichotomy_second_horn_resilient_optimist_is_unsafe() {
    for model in [OneWayModel::I1, OneWayModel::I2] {
        // Resilient…
        let failures = no1_resilience(model, &Optimist::new(Pairing), OptimistState::new, 8, 4_000);
        assert!(
            failures.is_empty(),
            "{model}: Optimist must be NO1-resilient"
        );
        // …therefore breakable with zero omissions.
        let report =
            thm32_attack(model, Optimist::new(Pairing), OptimistState::new, 64, 256).unwrap();
        assert_eq!(
            report.omissions_in_run, 0,
            "{model}: Theorem 3.2 runs are omission-free"
        );
        assert!(
            report.violated_safety(),
            "{model}: expected violation, got {:?}",
            report.outcome
        );
    }
}

#[test]
fn thm33_graceful_degradation_threshold_is_at_most_one() {
    // A gracefully-degrading simulator with threshold t_O > 1 would have
    // to fully simulate under any single omission AND never leave a
    // consistent state under more. SKnO(o = 1) delivers the first half…
    let o = 1u32;
    for omitted_step in [0u64, 1, 2, 3] {
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
            .config(Skno::<Pairing>::initial(&[
                PairingState::Consumer,
                PairingState::Producer,
            ]))
            .adversary(AtMostOneStrategy::at_step(omitted_step))
            .seed(omitted_step)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(1),
                Stop::until(100_000, |c| {
                    project(c).count_state(&PairingState::Paired) == 1
                }),
            )
            .unwrap();
        assert!(
            out.is_satisfied(),
            "SKnO(1) tolerates one omission at {omitted_step}"
        );
    }
    // …and Lemma 1 shows the second half is unattainable: with more
    // omissions it does not stop in a consistent state, it breaks safety.
    let report = lemma1_attack(
        OneWayModel::I3,
        Skno::new(Pairing, o),
        SknoState::new,
        128,
        512,
    )
    .unwrap();
    assert!(report.violated_safety());
}

#[test]
fn attacks_are_deterministic() {
    let a = lemma1_attack(
        OneWayModel::I3,
        Skno::new(Pairing, 1),
        SknoState::new,
        128,
        512,
    )
    .unwrap();
    let b = lemma1_attack(
        OneWayModel::I3,
        Skno::new(Pairing, 1),
        SknoState::new,
        128,
        512,
    )
    .unwrap();
    assert_eq!(a, b, "the construction is schedule-exact, not sampled");
}

#[test]
fn attack_report_is_forensic() {
    let report = lemma1_attack(
        OneWayModel::I3,
        Skno::new(Pairing, 1),
        SknoState::new,
        128,
        512,
    )
    .unwrap();
    // 2t+2 agents, t producers, t+2 consumers.
    assert_eq!(report.consumers, report.producers + 2);
    // The plan replays each I_k plus the two redirected interactions.
    assert!(report.plan_len > report.ftt as usize);
}
