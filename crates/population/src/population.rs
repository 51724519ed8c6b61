//! The storage-backend abstraction over agent populations.

use crate::{Multiset, State};

/// An agent-storage backend: how the global state of a population is held
/// in memory.
///
/// Two backends implement this trait:
///
/// * [`Configuration`](crate::Configuration) — one state per
///   agent, indexed by [`AgentId`](crate::AgentId), O(n) memory. The only
///   backend that can attribute interactions to individual agents, which
///   per-agent simulator states (unique IDs, partner tracking) and
///   full-trace certification require.
/// * [`CountConfiguration`](crate::CountConfiguration) — the multiset of
///   states with multiplicities, O(distinct states) memory regardless of
///   `n`. Agents of a population protocol are anonymous, so for protocols
///   whose per-agent state carries no identity the counts capture the
///   configuration exactly (Berenbrink et al., *Simulating Population
///   Protocols in Sub-Constant Time per Interaction*), unlocking runs at
///   n = 10⁶ and beyond.
///
/// This trait is the *storage* half of the abstraction: size and the
/// anonymous multiset view, the common currency of convergence
/// predicates. The *execution* half — drawing interacting pairs and
/// applying outcomes — lives in `ppfts-engine` (`ExecBackend`), which
/// builds on this one.
///
/// # Example
///
/// ```
/// use ppfts_population::{Configuration, CountConfiguration, Population};
///
/// let dense = Configuration::new(vec!['c', 'p', 'c']);
/// let counts = CountConfiguration::from_groups([('c', 2), ('p', 1)]);
/// assert_eq!(Population::len(&dense), 3);
/// assert_eq!(counts.len(), 3);
/// assert!(dense.same_counts(&counts));
/// ```
pub trait Population: Clone {
    /// Local state type of the stored agents.
    type State: State;

    /// Number of agents `n`, counted with multiplicity.
    fn len(&self) -> usize;

    /// Whether the population holds no agents.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The multiset of states — the anonymous view both backends share.
    fn counts(&self) -> Multiset<Self::State>;

    /// Number of agents currently in state `q`.
    fn count_state(&self, q: &Self::State) -> usize;

    /// Whether `other` holds exactly the same multiset of states,
    /// regardless of its backend.
    fn same_counts<P: Population<State = Self::State>>(&self, other: &P) -> bool {
        self.len() == other.len() && self.counts() == other.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Configuration, CountConfiguration};

    #[test]
    fn backends_agree_through_the_trait() {
        let dense = Configuration::new(vec![1u8, 2, 2, 3]);
        let counts = CountConfiguration::from_groups([(1u8, 1), (2, 2), (3, 1)]);
        assert_eq!(Population::len(&dense), Population::len(&counts));
        assert_eq!(Population::counts(&dense), Population::counts(&counts));
        assert_eq!(Population::count_state(&dense, &2), 2);
        assert_eq!(Population::count_state(&counts, &2), 2);
        assert!(dense.same_counts(&counts));
        assert!(counts.same_counts(&dense));
    }

    #[test]
    fn same_counts_detects_differences() {
        let dense = Configuration::new(vec![1u8, 1]);
        let counts = CountConfiguration::from_groups([(1u8, 1), (2, 1)]);
        assert!(!dense.same_counts(&counts));
        let short = CountConfiguration::from_groups([(1u8, 1)]);
        assert!(!dense.same_counts(&short));
        assert!(!Population::is_empty(&dense));
    }
}
