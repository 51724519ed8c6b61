//! Soundness contract between the `ppfts-analyze` model checker and the
//! engine: every configuration a *simulated* execution visits must be in
//! the checker's reachable set.
//!
//! The checker's proofs quantify over its reachable set, so this is the
//! load-bearing direction: if a simulation under the same `(model, o)`
//! adversary ever reaches a multiset the checker did not enumerate, the
//! "convergence from every reachable configuration" verdicts are
//! unsound.

use proptest::prelude::*;

use ppfts::analyze::check;
use ppfts::engine::{BoundedStrategy, TwoWayModel, TwoWayRunner};
use ppfts::population::{Configuration, Semantics};
use ppfts::protocols::{Epidemic, ExactMajority, MajorityOpinion};

proptest! {
    /// Epidemic under T1 with a bounded omission adversary: the observed
    /// multiset after every step is checker-reachable.
    #[test]
    fn epidemic_simulation_stays_in_reachable_set(
        infected in 1usize..4,
        clean in 1usize..6,
        budget in 0u32..3,
        seed in 0u64..300,
        steps in 1u64..200,
    ) {
        let mut dense = vec![true; infected];
        dense.extend(std::iter::repeat_n(false, clean));
        let check = check(
            TwoWayModel::T1,
            &Epidemic,
            &dense,
            budget,
            1_000_000,
            |_| true,
        )
        .expect("tiny state space");

        let mut runner = TwoWayRunner::builder(TwoWayModel::T1, Epidemic)
            .config(Configuration::new(dense))
            .adversary(BoundedStrategy::new(0.5, u64::from(budget)))
            .seed(seed)
            .build()
            .unwrap();
        for _ in 0..steps {
            runner.step().unwrap();
            let observed = runner.config().counts();
            prop_assert!(
                check.is_reachable(&observed),
                "simulation reached {observed:?}, unknown to the checker"
            );
        }
    }

    /// Same contract over the four-state `ExactMajority` protocol, whose
    /// omission edges genuinely grow the reachable set (lost
    /// cancellations shift the strong margin).
    #[test]
    fn exact_majority_simulation_stays_in_reachable_set(
        x in 1usize..5,
        y in 1usize..5,
        budget in 0u32..2,
        seed in 0u64..300,
        steps in 1u64..150,
    ) {
        let inputs: Vec<MajorityOpinion> = std::iter::repeat_n(MajorityOpinion::X, x)
            .chain(std::iter::repeat_n(MajorityOpinion::Y, y))
            .collect();
        let initial = ExactMajority.initial_configuration(&inputs);
        let check = check(
            TwoWayModel::T1,
            &ExactMajority,
            initial.as_slice(),
            budget,
            1_000_000,
            |_| true,
        )
        .expect("tiny state space");

        let mut runner = TwoWayRunner::builder(TwoWayModel::T1, ExactMajority)
            .config(initial)
            .adversary(BoundedStrategy::new(0.5, u64::from(budget)))
            .seed(seed)
            .build()
            .unwrap();
        for _ in 0..steps {
            runner.step().unwrap();
            let observed = runner.config().counts();
            prop_assert!(
                check.is_reachable(&observed),
                "simulation reached {observed:?}, unknown to the checker"
            );
        }
    }
}
