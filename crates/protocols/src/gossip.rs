//! Max-gossip: everyone learns the maximum input.

use ppfts_population::{Semantics, TwoWayProtocol};

/// Max-gossip: on every meeting both agents keep the larger value.
///
/// ```text
/// (u, v) ↦ (max(u, v), max(u, v))
/// ```
///
/// The population stably computes the maximum of the inputs. Unlike the
/// predicates in this crate the output alphabet is unbounded, which
/// exercises the simulators on protocols with large state spaces.
///
/// # Example
///
/// ```
/// use ppfts_population::{Semantics, TwoWayProtocol};
/// use ppfts_protocols::MaxGossip;
///
/// assert_eq!(MaxGossip.delta(&3, &8), (8, 8));
/// assert_eq!(MaxGossip.expected(&[4, 9, 1]), 9);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaxGossip;

impl TwoWayProtocol for MaxGossip {
    type State = u64;

    fn delta(&self, s: &u64, r: &u64) -> (u64, u64) {
        let m = (*s).max(*r);
        (m, m)
    }
}

impl Semantics for MaxGossip {
    type Input = u64;
    type Output = u64;

    fn encode(&self, input: &u64) -> u64 {
        *input
    }

    fn output(&self, q: &u64) -> u64 {
        *q
    }

    /// # Panics
    ///
    /// Panics on an empty input vector (the maximum is undefined).
    fn expected(&self, inputs: &[u64]) -> u64 {
        inputs
            .iter()
            .copied()
            .max()
            .expect("max of an empty population is undefined")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_engine::{Batched, Stop, TwoWayModel, TwoWayRunner};
    use ppfts_population::unanimous_output;

    #[test]
    fn delta_is_idempotent_and_symmetric() {
        assert_eq!(MaxGossip.delta(&5, &5), (5, 5));
        assert!(MaxGossip.is_symmetric_on(&2, &9));
    }

    #[test]
    fn converges_to_global_max() {
        let inputs = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let expected = MaxGossip.expected(&inputs);
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, MaxGossip)
            .config(MaxGossip.initial_configuration(&inputs))
            .seed(8)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(1),
                Stop::until(100_000, |c| {
                    unanimous_output(c, |q| MaxGossip.output(q)) == Some(expected)
                }),
            )
            .unwrap();
        assert!(out.is_satisfied());
        assert_eq!(runner.config().as_slice().iter().max(), Some(&9));
    }

    #[test]
    fn max_never_decreases_during_execution() {
        let inputs = vec![7, 2, 2];
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, MaxGossip)
            .config(MaxGossip.initial_configuration(&inputs))
            .seed(1)
            .build()
            .unwrap();
        for _ in 0..1000 {
            runner.step().unwrap();
            assert_eq!(runner.config().as_slice().iter().max(), Some(&7));
        }
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_max_is_undefined() {
        let _ = MaxGossip.expected(&[]);
    }
}
