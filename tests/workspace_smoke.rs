//! Tier-1 workspace smoke test.
//!
//! Exercises the facade end-to-end — every layer re-exported by `ppfts`
//! participates: a protocol from `protocols`, wrapped in a simulator from
//! `core`, driven by a runner from `engine` over `population`
//! configurations, certified by `verify`. If a workspace manifest or a
//! facade re-export regresses, this fails by name instead of as an opaque
//! compile error.

use ppfts::core::{project, Sid};
use ppfts::engine::{Batched, EngineError, OneWayModel, OneWayRunner, Stop};
use ppfts::population::Semantics;
use ppfts::protocols::{Pairing, PairingState};
use ppfts::verify::audit_pairing;

#[test]
fn facade_runs_sid_pairing_to_convergence() -> Result<(), EngineError> {
    let consumers = 3;
    let producers = 3;
    let sims: Vec<PairingState> = Pairing::initial(consumers, producers).as_slice().to_vec();

    let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
        .config(Sid::<Pairing>::initial(&sims))
        .seed(2017)
        .build()?;

    // Require both sides of every pairing to land: at the instant the
    // last consumer turns Paired its producer can still be mid-handshake,
    // so waiting on Paired alone would stop one transition early.
    let out = runner
        .run(
            Batched(1),
            Stop::until(2_000_000, |c| {
                let proj = project(c);
                proj.count_state(&PairingState::Paired) == producers
                    && proj.count_state(&PairingState::Spent) == producers
            }),
        )
        .unwrap();
    assert!(
        out.is_satisfied(),
        "SID-simulated Pairing did not converge within budget: {out:?}"
    );

    let config = project(runner.config());
    assert_eq!(config.count_state(&PairingState::Paired), producers);
    assert_eq!(config.count_state(&PairingState::Spent), producers);
    Ok(())
}

#[test]
fn facade_audit_certifies_sid_pairing() {
    // Cross-layer: the verify layer's step-by-step auditor certifies a
    // simulated run (irrevocability + safety throughout, liveness at end).
    let sims: Vec<PairingState> = Pairing::initial(2, 2).as_slice().to_vec();
    let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
        .config(Sid::<Pairing>::initial(&sims))
        .seed(7)
        .build()
        .expect("builder accepts a fault-free IO setup");

    let report = audit_pairing(&mut runner, 2_000_000).unwrap();
    assert!(
        report.solved(),
        "SID-simulated Pairing must pass the audit: {report:?}"
    );
}

#[test]
fn facade_exposes_semantics_oracles() {
    // The population layer's semantics vocabulary is reachable and sane.
    let inputs = vec![false, true, false];
    assert!(ppfts::protocols::Epidemic.expected(&inputs));
}
