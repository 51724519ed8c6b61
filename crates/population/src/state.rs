//! State bounds and enumerable state spaces.

use std::fmt::Debug;
use std::hash::Hash;

/// Bound satisfied by every local-state type.
///
/// This is a blanket trait: any `Clone + Eq + Hash + Debug + Send + Sync +
/// 'static` type is a valid state, so protocol authors never implement it by
/// hand. Simulator states wrap protocol states, so the bound must compose
/// (e.g. a `SknoState<Q>` is itself a `State` whenever `Q` is).
///
/// # Example
///
/// ```
/// use ppfts_population::State;
///
/// fn takes_state<Q: State>(_q: Q) {}
/// takes_state(42u8);
/// takes_state(("leader", 3usize));
/// ```
pub trait State: Clone + Eq + Hash + Debug + Send + Sync + 'static {}

impl<T: Clone + Eq + Hash + Debug + Send + Sync + 'static> State for T {}

/// Protocols whose full state space can be enumerated.
///
/// Exhaustive verification (the bounded model checker in `ppfts-analyze`)
/// and sampling-based model validation need the list of states a protocol
/// can ever be in. For finite-state protocols this is the whole of `Q_P`;
/// simulators with unbounded memory do not implement this trait.
///
/// Implementations must return every reachable state at least once;
/// returning duplicates is allowed but wasteful.
///
/// # Example
///
/// ```
/// use ppfts_population::EnumerableStates;
///
/// struct Bit;
/// impl EnumerableStates for Bit {
///     type State = bool;
///     fn states(&self) -> Vec<bool> {
///         vec![false, true]
///     }
/// }
/// assert_eq!(Bit.states().len(), 2);
/// ```
pub trait EnumerableStates {
    /// The state type being enumerated.
    type State: State;

    /// Every state the protocol can assume.
    fn states(&self) -> Vec<Self::State>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    enum Tri {
        A,
        B,
        C,
    }

    struct TriSpace;
    impl EnumerableStates for TriSpace {
        type State = Tri;
        fn states(&self) -> Vec<Tri> {
            vec![Tri::A, Tri::B, Tri::C]
        }
    }

    #[test]
    fn custom_enums_are_states() {
        fn assert_state<Q: State>() {}
        assert_state::<Tri>();
        assert_state::<(u32, Option<bool>)>();
    }

    #[test]
    fn enumerates_all_states() {
        let all = TriSpace.states();
        assert!(all.contains(&Tri::A) && all.contains(&Tri::B) && all.contains(&Tri::C));
        assert_eq!(all.len(), 3);
    }
}
