//! Exact (exhaustive) verification of stabilization claims on small
//! populations, via the terminal-SCC characterization of global fairness.
//!
//! Unlike the statistical tests, nothing here depends on seeds: the model
//! checker enumerates every reachable configuration and every GF
//! execution's eventual behaviour.

use ppfts::analyze::check;
use ppfts::core::{Sid, SimulatorState};
use ppfts::engine::{OneWayModel, TwoWayModel};
use ppfts::population::Semantics;
use ppfts::protocols::semilinear::{Atom, PredicateExpr, SemilinearProtocol};
use ppfts::protocols::{
    ApproximateMajority, Epidemic, FlockOfBirds, LeaderElection, LeaderState, MajorityState,
    Pairing, PairingState, Remainder,
};

/// Agents of `c` whose (simulated) state is `q`.
fn count<Q: PartialEq>(c: &[Q], q: &Q) -> usize {
    c.iter().filter(|s| *s == q).count()
}

#[test]
fn epidemic_stably_computes_or_proved() {
    for n_true in 0..3usize {
        for n_false in 0..3usize {
            let n = n_true + n_false;
            if n < 2 {
                continue;
            }
            let inputs: Vec<bool> = std::iter::repeat_n(true, n_true)
                .chain(std::iter::repeat_n(false, n_false))
                .collect();
            let expected = Epidemic.expected(&inputs);
            let check = check(
                TwoWayModel::Tw,
                &Epidemic,
                Epidemic.initial_configuration(&inputs).as_slice(),
                0,
                10_000,
                |c| c.iter().all(|q| Epidemic.output(q) == expected),
            )
            .unwrap();
            assert!(check.verdict.is_proved(), "inputs {inputs:?}");
        }
    }
}

#[test]
fn pairing_solves_pair_proved() {
    for (c, p) in [(1usize, 1usize), (2, 1), (1, 2), (2, 2), (3, 2)] {
        let expected = c.min(p);
        let paired = |m: &[PairingState]| count(m, &PairingState::Paired);
        let check = check(
            TwoWayModel::Tw,
            &Pairing,
            Pairing::initial(c, p).as_slice(),
            0,
            100_000,
            |m| paired(m) == expected,
        )
        .unwrap();
        // Liveness: every GF execution ends with exactly min(c, p) paired.
        assert!(check.verdict.is_proved());
        // Safety + irrevocability corollary: never more paired than
        // producers anywhere in the reachable graph.
        assert!(check.invariant(|m| paired(m) <= p));
    }
}

#[test]
fn leader_election_proved() {
    for n in [2usize, 3, 4, 5] {
        let check = check(
            TwoWayModel::Tw,
            &LeaderElection,
            LeaderElection::initial(n).as_slice(),
            0,
            10_000,
            |m| count(m, &LeaderState::Leader) == 1,
        )
        .unwrap();
        assert!(check.verdict.is_proved());
    }
}

#[test]
fn approximate_majority_with_unanimous_input_proved() {
    // With a unanimous starting opinion the 3-state protocol is exact:
    // every GF execution converts all blanks.
    let inputs = [MajorityState::X, MajorityState::X, MajorityState::Blank];
    let check = check(
        TwoWayModel::Tw,
        &ApproximateMajority,
        &inputs,
        0,
        10_000,
        |m| count(m, &MajorityState::X) == 3,
    )
    .unwrap();
    assert!(check.verdict.is_proved());
}

#[test]
fn flock_threshold_proved_both_sides() {
    let flock = FlockOfBirds::new(2);
    // 2 marked: must detect.
    let hot = flock.initial_configuration(&[true, true, false]);
    let hot = check(TwoWayModel::Tw, &flock, hot.as_slice(), 0, 100_000, |m| {
        m.iter().all(|q| q.detected)
    })
    .unwrap();
    assert!(hot.verdict.is_proved());
    // 1 marked: must never detect — an invariant, not just eventual.
    let cold = flock.initial_configuration(&[true, false, false]);
    let check = check(TwoWayModel::Tw, &flock, cold.as_slice(), 0, 100_000, |_| {
        true
    })
    .unwrap();
    assert!(check.invariant(|m| m.iter().all(|q| !q.detected)));
}

#[test]
fn remainder_proved() {
    let p = Remainder::new(2, 1);
    let inputs = vec![1u32, 1, 1]; // sum 3, odd
    let check = check(
        TwoWayModel::Tw,
        &p,
        p.initial_configuration(&inputs).as_slice(),
        0,
        100_000,
        |m| m.iter().all(|q| p.output(q)),
    )
    .unwrap();
    assert!(check.verdict.is_proved());
}

#[test]
fn semilinear_compilation_proved() {
    // "at least 2 of symbol 1" over two symbols, n = 3.
    let p = SemilinearProtocol::new(
        vec![Atom::Threshold {
            coeffs: vec![0, 1],
            threshold: 2,
        }],
        PredicateExpr::atom(0),
    )
    .unwrap();
    for inputs in [vec![1usize, 1, 0], vec![1, 0, 0]] {
        let expected = p.expected(&inputs);
        let check = check(
            TwoWayModel::Tw,
            &p,
            p.initial_configuration(&inputs).as_slice(),
            0,
            100_000,
            |m| m.iter().all(|q| p.output(q) == expected),
        )
        .unwrap();
        assert!(check.verdict.is_proved(), "inputs {inputs:?}");
    }
}

#[test]
fn sid_simulation_proved_for_three_agents() {
    // Exact GF verification of the full SID machinery on 3 agents
    // simulating Pairing(2 consumers, 1 producer): every GF execution
    // ends with exactly one simulated pairing.
    let sims = [
        PairingState::Consumer,
        PairingState::Consumer,
        PairingState::Producer,
    ];
    let paired = |m: &[ppfts::core::SidState<PairingState>]| {
        m.iter()
            .filter(|q| *q.simulated() == PairingState::Paired)
            .count()
    };
    let check = check(
        OneWayModel::Io,
        &Sid::new(Pairing),
        Sid::<Pairing>::initial(&sims).as_slice(),
        0,
        3_000_000,
        |m| paired(m) == 1,
    )
    .unwrap();
    assert!(check.verdict.is_proved());
    // Simulated safety is a reachability invariant, not only eventual.
    assert!(check.invariant(|m| paired(m) <= 1));
}
