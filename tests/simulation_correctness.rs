//! End-to-end correctness: every simulator × every payload protocol.
//!
//! The paper's positive results (Theorems 4.1, 4.5, 4.6, Corollary 1)
//! promise that the wrapped protocol stabilizes to the same value it
//! would compute natively. These tests drive each simulator on each
//! computing payload and compare against the `Semantics::expected`
//! oracle.

use ppfts::core::{project, NamedSid, Sid, Skno};
use ppfts::engine::{Batched, BoundedStrategy, OneWayModel, OneWayRunner, Stop};
use ppfts::population::{unanimous_output, Semantics};
use ppfts::protocols::{
    Epidemic, ExactMajority, FlockOfBirds, MajorityOpinion, MaxGossip, Pairing, PairingState,
    Remainder,
};
use ppfts::verify::audit_pairing;

macro_rules! assert_simulates {
    ($payload:expr, $inputs:expr, $runner:expr, $budget:expr) => {{
        let payload = $payload;
        let expected = payload.expected($inputs);
        let out = $runner
            .run(
                Batched(1),
                Stop::until($budget, |c| {
                    unanimous_output(&project(c), |q| payload.output(q)) == Some(expected.clone())
                }),
            )
            .unwrap();
        assert!(
            out.is_satisfied(),
            "simulation did not stabilize to {:?} within {} steps",
            expected,
            $budget
        );
    }};
}

#[test]
fn sid_simulates_epidemic() {
    let inputs = vec![false, true, false, false, false];
    let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Epidemic))
        .config(Sid::<Epidemic>::initial(&inputs))
        .seed(11)
        .build()
        .unwrap();
    assert_simulates!(Epidemic, &inputs, runner, 2_000_000);
}

#[test]
fn sid_simulates_exact_majority() {
    let inputs: Vec<MajorityOpinion> = [
        MajorityOpinion::X,
        MajorityOpinion::X,
        MajorityOpinion::X,
        MajorityOpinion::Y,
        MajorityOpinion::Y,
    ]
    .to_vec();
    let sims: Vec<_> = inputs.iter().map(|i| ExactMajority.encode(i)).collect();
    let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(ExactMajority))
        .config(Sid::<ExactMajority>::initial(&sims))
        .seed(13)
        .build()
        .unwrap();
    assert_simulates!(ExactMajority, &inputs, runner, 3_000_000);
}

#[test]
fn sid_simulates_max_gossip() {
    let inputs = vec![3u64, 14, 1, 5, 9, 2];
    let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(MaxGossip))
        .config(Sid::<MaxGossip>::initial(&inputs))
        .seed(17)
        .build()
        .unwrap();
    assert_simulates!(MaxGossip, &inputs, runner, 2_000_000);
}

#[test]
fn skno_simulates_epidemic_under_i3_omissions() {
    let inputs = vec![true, false, false, false];
    let o = 2;
    let mut runner = OneWayRunner::builder(OneWayModel::I3, Skno::new(Epidemic, o))
        .config(Skno::<Epidemic>::initial(&inputs))
        .adversary(BoundedStrategy::new(0.05, o as u64))
        .seed(19)
        .build()
        .unwrap();
    assert_simulates!(Epidemic, &inputs, runner, 2_000_000);
}

#[test]
fn skno_simulates_remainder_under_i4_omissions() {
    let payload = Remainder::new(3, 1);
    let inputs = vec![2u32, 1, 2, 2]; // 7 mod 3 == 1 → true
    let sims: Vec<_> = inputs.iter().map(|i| payload.encode(i)).collect();
    let o = 1;
    let mut runner = OneWayRunner::builder(OneWayModel::I4, Skno::new(payload, o))
        .config(Skno::<Remainder>::initial(&sims))
        .adversary(BoundedStrategy::new(0.05, o as u64))
        .seed(23)
        .build()
        .unwrap();
    assert_simulates!(payload, &inputs, runner, 3_000_000);
}

#[test]
fn skno_simulates_flock_threshold_in_it_corollary_1() {
    // o = 0 in the fault-free IT model is exactly Corollary 1.
    let payload = FlockOfBirds::new(3);
    let inputs = vec![true, true, false, true, false];
    let sims: Vec<_> = inputs.iter().map(|i| payload.encode(i)).collect();
    let mut runner = OneWayRunner::builder(OneWayModel::It, Skno::new(payload, 0))
        .config(Skno::<FlockOfBirds>::initial(&sims))
        .seed(29)
        .build()
        .unwrap();
    assert_simulates!(payload, &inputs, runner, 3_000_000);
}

#[test]
fn named_sid_simulates_epidemic_with_knowledge_of_n() {
    let inputs = vec![false, false, true, false, false, false];
    let mut runner = OneWayRunner::builder(OneWayModel::Io, NamedSid::new(Epidemic, inputs.len()))
        .config(NamedSid::<Epidemic>::initial(&inputs))
        .seed(31)
        .build()
        .unwrap();
    assert_simulates!(Epidemic, &inputs, runner, 5_000_000);
}

#[test]
fn pairing_audits_pass_for_all_simulators() {
    let sims: Vec<PairingState> = Pairing::initial(3, 3).as_slice().to_vec();

    let mut sid = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
        .config(Sid::<Pairing>::initial(&sims))
        .seed(37)
        .build()
        .unwrap();
    let report = audit_pairing(&mut sid, 2_000_000);
    assert!(report.solved(), "SID: {:?}", report.violations);

    let o = 2;
    let mut skno = OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
        .config(Skno::<Pairing>::initial(&sims))
        .adversary(BoundedStrategy::new(0.02, o as u64))
        .seed(41)
        .build()
        .unwrap();
    let report = audit_pairing(&mut skno, 2_000_000);
    assert!(report.solved(), "SKnO: {:?}", report.violations);

    let mut named = OneWayRunner::builder(OneWayModel::Io, NamedSid::new(Pairing, sims.len()))
        .config(NamedSid::<Pairing>::initial(&sims))
        .seed(43)
        .build()
        .unwrap();
    let report = audit_pairing(&mut named, 5_000_000);
    assert!(report.solved(), "NamedSid: {:?}", report.violations);
}

#[test]
fn simulated_executions_match_native_outputs_across_seeds() {
    // The same inputs, many seeds: native TW and simulated IO must agree
    // on the stabilized output every single time.
    use ppfts::engine::{TwoWayModel, TwoWayRunner};
    let inputs = vec![false, true, false, false];
    let expected = Epidemic.expected(&inputs);
    for seed in 0..10u64 {
        let mut native = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
            .config(Epidemic.initial_configuration(&inputs))
            .seed(seed)
            .build()
            .unwrap();
        let n_out = native
            .run(
                Batched(1),
                Stop::until(1_000_000, |c| {
                    unanimous_output(c, |q| Epidemic.output(q)) == Some(expected)
                }),
            )
            .unwrap();
        assert!(n_out.is_satisfied());

        let mut sim = OneWayRunner::builder(OneWayModel::Io, Sid::new(Epidemic))
            .config(Sid::<Epidemic>::initial(&inputs))
            .seed(seed)
            .build()
            .unwrap();
        let s_out = sim
            .run(
                Batched(1),
                Stop::until(2_000_000, |c| {
                    unanimous_output(&project(c), |q| Epidemic.output(q)) == Some(expected)
                }),
            )
            .unwrap();
        assert!(s_out.is_satisfied(), "seed {seed}");
    }
}
