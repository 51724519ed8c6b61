//! Input/output conventions: what it means for a protocol to *compute*.
//!
//! Population protocols compute by *stabilization*: every agent maps its
//! local state to an output, and the population has computed `y` once every
//! agent outputs `y` and no reachable configuration changes that. This
//! module fixes the vocabulary used by the correctness harnesses in
//! `ppfts-verify` and by the simulators' end-to-end tests: a simulated
//! protocol must stabilize to the *same* output it would produce natively.

use crate::{Configuration, CountConfiguration, Multiset, State, TwoWayProtocol};

/// Input/output semantics of a computing protocol.
///
/// Extends [`TwoWayProtocol`] with the two mappings of the classic PP
/// computation model plus a ground-truth oracle used in tests:
///
/// * [`Semantics::encode`] — input mapping: an agent's external input to its
///   initial state,
/// * [`Semantics::output`] — output mapping: a local state to the
///   individual output,
/// * [`Semantics::expected`] — the value the population must stabilize to
///   on a given input vector (the specification being computed).
///
/// # Example
///
/// ```
/// use ppfts_population::{Configuration, Semantics, TwoWayProtocol};
///
/// /// Logical OR of the input bits.
/// struct Or;
/// impl TwoWayProtocol for Or {
///     type State = bool;
///     fn delta(&self, s: &bool, r: &bool) -> (bool, bool) { (*s, *s || *r) }
/// }
/// impl Semantics for Or {
///     type Input = bool;
///     type Output = bool;
///     fn encode(&self, i: &bool) -> bool { *i }
///     fn output(&self, q: &bool) -> bool { *q }
///     fn expected(&self, inputs: &[bool]) -> bool { inputs.iter().any(|b| *b) }
/// }
///
/// let or = Or;
/// let c0 = or.initial_configuration(&[false, true, false]);
/// assert_eq!(c0.as_slice(), &[false, true, false]);
/// assert_eq!(or.expected(&[false, true, false]), true);
/// ```
pub trait Semantics: TwoWayProtocol {
    /// External input alphabet.
    type Input: Clone + std::fmt::Debug;
    /// Output alphabet.
    type Output: Clone + PartialEq + std::fmt::Debug;

    /// Input mapping: the initial state of an agent with input `i`.
    fn encode(&self, input: &Self::Input) -> Self::State;

    /// Output mapping: the individual output of an agent in state `q`.
    fn output(&self, q: &Self::State) -> Self::Output;

    /// Ground truth: the output the population must stabilize to when
    /// started on `inputs`.
    fn expected(&self, inputs: &[Self::Input]) -> Self::Output;

    /// The initial configuration for the given input vector.
    fn initial_configuration(&self, inputs: &[Self::Input]) -> Configuration<Self::State> {
        inputs.iter().map(|i| self.encode(i)).collect()
    }

    /// The initial *count-backed* population for the given input vector —
    /// the same encoding as
    /// [`initial_configuration`](Semantics::initial_configuration), stored
    /// as state multiplicities for giant-n anonymous runs.
    fn initial_counts(&self, inputs: &[Self::Input]) -> CountConfiguration<Self::State> {
        inputs.iter().map(|i| self.encode(i)).collect()
    }
}

/// The consensus output of a configuration, if the agents agree.
///
/// Returns `Some(y)` iff every agent's individual output equals `y`. The
/// stabilization checkers treat `None` as "not yet converged".
///
/// # Example
///
/// ```
/// use ppfts_population::{unanimous_output, Configuration};
///
/// let c = Configuration::new(vec![2u8, 2, 2]);
/// assert_eq!(unanimous_output(&c, |q| *q % 2), Some(0));
///
/// let d = Configuration::new(vec![2u8, 3]);
/// assert_eq!(unanimous_output(&d, |q| *q % 2), None);
/// ```
pub fn unanimous_output<Q: State, Y: PartialEq>(
    config: &Configuration<Q>,
    mut output: impl FnMut(&Q) -> Y,
) -> Option<Y> {
    let mut agents = config.as_slice().iter();
    let first = output(agents.next()?);
    for q in agents {
        if output(q) != first {
            return None;
        }
    }
    Some(first)
}

/// The consensus output of a state *multiset*, if the agents agree —
/// the count-backend sibling of [`unanimous_output`], O(distinct states)
/// instead of O(n).
///
/// # Example
///
/// ```
/// use ppfts_population::{unanimous_output_counts, CountConfiguration, Population};
///
/// let c = CountConfiguration::from_groups([(2u8, 500_000), (4u8, 500_000)]);
/// assert_eq!(unanimous_output_counts(&c.counts(), |q| *q % 2), Some(0));
/// assert_eq!(unanimous_output_counts(&c.counts(), |q| *q), None);
/// ```
pub fn unanimous_output_counts<Q: State, Y: PartialEq>(
    counts: &Multiset<Q>,
    mut output: impl FnMut(&Q) -> Y,
) -> Option<Y> {
    let mut states = counts.states();
    let first = output(states.next()?);
    for q in states {
        if output(q) != first {
            return None;
        }
    }
    Some(first)
}

/// Helper describing the output status of a configuration under a
/// [`Semantics`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsensusOutput<Y> {
    /// All agents output the same value.
    Agreed(Y),
    /// At least two agents disagree.
    Split,
}

impl<Y: Clone + PartialEq> ConsensusOutput<Y> {
    /// Evaluates the consensus status of `config` under `sem`.
    pub fn of<P>(sem: &P, config: &Configuration<P::State>) -> Self
    where
        P: Semantics<Output = Y>,
    {
        match unanimous_output(config, |q| sem.output(q)) {
            Some(y) => ConsensusOutput::Agreed(y),
            None => ConsensusOutput::Split,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionProtocol;

    struct Or;
    impl TwoWayProtocol for Or {
        type State = bool;
        fn delta(&self, s: &bool, r: &bool) -> (bool, bool) {
            (*s, *s || *r)
        }
    }
    impl Semantics for Or {
        type Input = bool;
        type Output = bool;
        fn encode(&self, i: &bool) -> bool {
            *i
        }
        fn output(&self, q: &bool) -> bool {
            *q
        }
        fn expected(&self, inputs: &[bool]) -> bool {
            inputs.iter().any(|b| *b)
        }
    }

    #[test]
    fn initial_configuration_encodes_inputs() {
        let c = Or.initial_configuration(&[true, false]);
        assert_eq!(c.as_slice(), &[true, false]);
    }

    #[test]
    fn unanimous_requires_full_agreement() {
        let all_true = Configuration::uniform(true, 3);
        assert_eq!(unanimous_output(&all_true, |q| *q), Some(true));
        let mixed = Configuration::new(vec![true, false]);
        assert_eq!(unanimous_output(&mixed, |q| *q), None);
    }

    #[test]
    fn unanimous_on_empty_population_is_none() {
        let empty: Configuration<bool> = Configuration::new(vec![]);
        assert_eq!(unanimous_output(&empty, |q| *q), None);
    }

    #[test]
    fn consensus_output_wraps_unanimity() {
        let agreed = Configuration::uniform(true, 2);
        assert_eq!(
            ConsensusOutput::of(&Or, &agreed),
            ConsensusOutput::Agreed(true)
        );

        let split = Configuration::new(vec![true, false]);
        assert_eq!(ConsensusOutput::of(&Or, &split), ConsensusOutput::Split);
    }

    #[test]
    fn expected_is_ground_truth_not_simulation() {
        assert!(Or.expected(&[false, false, true]));
        assert!(!Or.expected(&[false, false]));
        // `expected` never runs the protocol; it is an oracle.
        let _unused_protocol: FunctionProtocol<bool, _, _> =
            FunctionProtocol::new(|s: &bool, _: &bool| *s, |_: &bool, r: &bool| *r);
    }
}
