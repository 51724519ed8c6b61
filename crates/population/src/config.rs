//! Dense (per-agent) configurations: the global state of a population.

use std::fmt;

use crate::{AgentId, Interaction, Multiset, Population, PopulationError, State, TwoWayProtocol};

/// The `n`-tuple of local states of a population — `C ∈ Q_P^n`.
///
/// A configuration is indexed by [`AgentId`]; because agents are anonymous,
/// two configurations that are permutations of each other are
/// *behaviourally* equivalent, which is what [`Configuration::counts`]
/// (the [`Multiset`] view) captures.
///
/// This is the *dense* backend of the [`Population`] abstraction: one
/// state per agent, O(n) memory. It is the only backend that can address
/// individual agents, which per-agent simulator states (IDs, partner
/// tracking) and full-trace certification require. For anonymous
/// protocols at large `n`, prefer
/// [`CountConfiguration`](crate::CountConfiguration).
///
/// # Example
///
/// ```
/// use ppfts_population::{Configuration, Interaction, TwoWayProtocol};
///
/// struct Swap;
/// impl TwoWayProtocol for Swap {
///     type State = u8;
///     fn delta(&self, s: &u8, r: &u8) -> (u8, u8) { (*r, *s) }
/// }
///
/// let mut c = Configuration::new(vec![1, 2, 3]);
/// c.apply(&Swap, Interaction::new(0, 2)?)?;
/// assert_eq!(c.as_slice(), &[3, 2, 1]);
/// assert_eq!(c.counts().count(&2), 1);
/// # Ok::<(), ppfts_population::PopulationError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Configuration<Q: State> {
    states: Vec<Q>,
}

impl<Q: State> Configuration<Q> {
    /// Creates a configuration from the per-agent states.
    pub fn new(states: Vec<Q>) -> Self {
        Configuration { states }
    }

    /// Creates a configuration of `n` agents all in state `q`.
    pub fn uniform(q: Q, n: usize) -> Self {
        Configuration { states: vec![q; n] }
    }

    /// Creates a configuration with `counts` groups: `(state, how many)`.
    ///
    /// Agents of the first group occupy the lowest indices, and so on.
    ///
    /// # Example
    ///
    /// ```
    /// use ppfts_population::Configuration;
    ///
    /// let c = Configuration::from_groups([('c', 2), ('p', 1)]);
    /// assert_eq!(c.as_slice(), &['c', 'c', 'p']);
    /// ```
    pub fn from_groups(counts: impl IntoIterator<Item = (Q, usize)>) -> Self {
        let mut states = Vec::new();
        for (q, k) in counts {
            for _ in 0..k {
                states.push(q.clone());
            }
        }
        Configuration { states }
    }

    /// Number of agents `n`.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state of `agent`, if in bounds.
    pub fn get(&self, agent: AgentId) -> Option<&Q> {
        self.states.get(agent.index())
    }

    /// The state of `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of bounds; use [`Configuration::get`] for a
    /// checked variant.
    pub fn state(&self, agent: AgentId) -> &Q {
        &self.states[agent.index()]
    }

    /// Overwrites the state of `agent`.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::AgentOutOfBounds`] if `agent` does not
    /// exist.
    pub fn set(&mut self, agent: AgentId, q: Q) -> Result<(), PopulationError> {
        let len = self.states.len();
        match self.states.get_mut(agent.index()) {
            Some(slot) => {
                *slot = q;
                Ok(())
            }
            None => Err(PopulationError::AgentOutOfBounds {
                agent: agent.index(),
                len,
            }),
        }
    }

    /// Read-only view of the underlying state vector.
    pub fn as_slice(&self) -> &[Q] {
        &self.states
    }

    /// Iterates over `(AgentId, &state)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (AgentId, &Q)> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, q)| (AgentId::new(i), q))
    }

    /// The multiset of states (the anonymous view of the configuration).
    pub fn counts(&self) -> Multiset<Q> {
        self.states.iter().cloned().collect()
    }

    /// Number of agents currently in state `q`.
    pub fn count_state(&self, q: &Q) -> usize {
        self.states.iter().filter(|s| *s == q).count()
    }

    /// Agents currently in state `q`, in index order.
    pub fn agents_in(&self, q: &Q) -> Vec<AgentId> {
        self.iter()
            .filter(|(_, s)| *s == q)
            .map(|(a, _)| a)
            .collect()
    }

    /// Applies one fault-free two-way interaction under protocol `p`,
    /// returning the pair of states that was replaced.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of bounds. (Interactions
    /// are self-loop-free by construction.)
    pub fn apply<P>(&mut self, p: &P, i: Interaction) -> Result<(Q, Q), PopulationError>
    where
        P: TwoWayProtocol<State = Q>,
    {
        i.check_bounds(self.len())?;
        let s = self.states[i.starter().index()].clone();
        let r = self.states[i.reactor().index()].clone();
        let (s2, r2) = p.delta(&s, &r);
        self.states[i.starter().index()] = s2;
        self.states[i.reactor().index()] = r2;
        Ok((s, r))
    }

    /// Borrows the states of both endpoints of `i` without cloning — the
    /// read half of the engine's batched fast path.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of bounds.
    ///
    /// # Example
    ///
    /// ```
    /// use ppfts_population::{Configuration, Interaction};
    ///
    /// let c = Configuration::new(vec!['a', 'b', 'c']);
    /// assert_eq!(c.pair_states(Interaction::new(2, 0)?)?, (&'c', &'a'));
    /// # Ok::<(), ppfts_population::PopulationError>(())
    /// ```
    pub fn pair_states(&self, i: Interaction) -> Result<(&Q, &Q), PopulationError> {
        i.check_bounds(self.len())?;
        Ok((
            &self.states[i.starter().index()],
            &self.states[i.reactor().index()],
        ))
    }

    /// Mutably borrows the states of both endpoints of `i` — the engine's
    /// in-place fast path. The endpoints are distinct by construction
    /// ([`Interaction`] forbids self-loops), so the split borrow is safe.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of bounds.
    ///
    /// # Example
    ///
    /// ```
    /// use ppfts_population::{Configuration, Interaction};
    ///
    /// let mut c = Configuration::new(vec![1, 2, 3]);
    /// let (s, r) = c.pair_states_mut(Interaction::new(2, 0)?)?;
    /// *s += 10;
    /// *r += 20;
    /// assert_eq!(c.as_slice(), &[21, 2, 13]);
    /// # Ok::<(), ppfts_population::PopulationError>(())
    /// ```
    pub fn pair_states_mut(&mut self, i: Interaction) -> Result<(&mut Q, &mut Q), PopulationError> {
        i.check_bounds(self.len())?;
        let si = i.starter().index();
        let ri = i.reactor().index();
        debug_assert_ne!(si, ri, "interactions are self-loop-free");
        if si < ri {
            let (lo, hi) = self.states.split_at_mut(ri);
            Ok((&mut lo[si], &mut hi[0]))
        } else {
            let (lo, hi) = self.states.split_at_mut(si);
            Ok((&mut hi[0], &mut lo[ri]))
        }
    }

    /// Writes `(s', r')` to the endpoints of `i`, returning the replaced
    /// states. This is the raw update used by the interaction-model engine,
    /// which computes the outcome pair itself (possibly from a *faulty*
    /// transition).
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of bounds.
    pub fn write_pair(
        &mut self,
        i: Interaction,
        outcome: (Q, Q),
    ) -> Result<(Q, Q), PopulationError> {
        i.check_bounds(self.len())?;
        let old_s = std::mem::replace(&mut self.states[i.starter().index()], outcome.0);
        let old_r = std::mem::replace(&mut self.states[i.reactor().index()], outcome.1);
        Ok((old_s, old_r))
    }

    /// The configuration obtained by mapping every agent's state through
    /// `f` — e.g. the projection `π_P` from simulator states to simulated
    /// states.
    pub fn map<R: State>(&self, f: impl FnMut(&Q) -> R) -> Configuration<R> {
        Configuration {
            states: self.states.iter().map(f).collect(),
        }
    }
}

impl<Q: State> Population for Configuration<Q> {
    type State = Q;

    fn len(&self) -> usize {
        self.states.len()
    }

    fn counts(&self) -> Multiset<Q> {
        Configuration::counts(self)
    }

    fn count_state(&self, q: &Q) -> usize {
        Configuration::count_state(self, q)
    }
}

impl<Q: State> From<Vec<Q>> for Configuration<Q> {
    fn from(states: Vec<Q>) -> Self {
        Configuration::new(states)
    }
}

impl<Q: State> FromIterator<Q> for Configuration<Q> {
    fn from_iter<I: IntoIterator<Item = Q>>(iter: I) -> Self {
        Configuration {
            states: iter.into_iter().collect(),
        }
    }
}

impl<Q: State> std::ops::Index<AgentId> for Configuration<Q> {
    type Output = Q;
    fn index(&self, agent: AgentId) -> &Q {
        &self.states[agent.index()]
    }
}

impl<Q: State> fmt::Debug for Configuration<Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.states.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionProtocol;

    fn epidemic() -> impl TwoWayProtocol<State = bool> {
        FunctionProtocol::new(|s: &bool, _r: &bool| *s, |s: &bool, r: &bool| *s || *r)
    }

    #[test]
    fn uniform_and_groups_layout() {
        let u = Configuration::uniform(0u8, 4);
        assert_eq!(u.as_slice(), &[0, 0, 0, 0]);
        let g = Configuration::from_groups([(1u8, 2), (2u8, 1), (3u8, 0)]);
        assert_eq!(g.as_slice(), &[1, 1, 2]);
        assert_eq!(g.count_state(&3), 0);
    }

    #[test]
    fn apply_updates_both_roles() {
        let mut c = Configuration::new(vec![true, false]);
        let old = c
            .apply(&epidemic(), Interaction::new(0, 1).unwrap())
            .unwrap();
        assert_eq!(old, (true, false));
        assert_eq!(c.as_slice(), &[true, true]);
    }

    #[test]
    fn apply_checks_bounds() {
        let mut c = Configuration::new(vec![true, false]);
        let err = c.apply(&epidemic(), Interaction::new(0, 9).unwrap());
        assert_eq!(
            err.unwrap_err(),
            PopulationError::AgentOutOfBounds { agent: 9, len: 2 }
        );
    }

    #[test]
    fn pair_states_borrows_both_roles() {
        let c = Configuration::new(vec!['a', 'b', 'c']);
        let i = Interaction::new(1, 2).unwrap();
        assert_eq!(c.pair_states(i).unwrap(), (&'b', &'c'));
        let oob = Interaction::new(0, 7).unwrap();
        assert_eq!(
            c.pair_states(oob).unwrap_err(),
            PopulationError::AgentOutOfBounds { agent: 7, len: 3 }
        );
    }

    #[test]
    fn pair_states_mut_splits_both_orders() {
        let mut c = Configuration::new(vec![10u8, 20, 30]);
        {
            let (s, r) = c.pair_states_mut(Interaction::new(0, 2).unwrap()).unwrap();
            assert_eq!((*s, *r), (10, 30));
            *s = 11;
            *r = 31;
        }
        {
            let (s, r) = c.pair_states_mut(Interaction::new(2, 1).unwrap()).unwrap();
            assert_eq!((*s, *r), (31, 20));
            *r = 21;
        }
        assert_eq!(c.as_slice(), &[11, 21, 31]);
        assert!(c.pair_states_mut(Interaction::new(0, 5).unwrap()).is_err());
    }

    #[test]
    fn write_pair_returns_replaced_states() {
        let mut c = Configuration::new(vec!['a', 'b', 'c']);
        let old = c
            .write_pair(Interaction::new(2, 0).unwrap(), ('X', 'Y'))
            .unwrap();
        assert_eq!(old, ('c', 'a')); // (old starter = index 2, old reactor = index 0)
        assert_eq!(c.as_slice(), &['Y', 'b', 'X']);
    }

    #[test]
    fn map_projects_states() {
        let c = Configuration::new(vec![(1u8, 'x'), (2u8, 'y')]);
        let proj = c.map(|(n, _)| *n);
        assert_eq!(proj.as_slice(), &[1, 2]);
    }

    #[test]
    fn permutation_equivalence() {
        let a = Configuration::new(vec![1, 2, 2, 3]);
        let b = Configuration::new(vec![3, 2, 1, 2]);
        let c = Configuration::new(vec![3, 3, 1, 2]);
        assert_eq!(a.counts(), b.counts());
        assert_ne!(a.counts(), c.counts());
    }

    #[test]
    fn agents_in_lists_indices() {
        let c = Configuration::new(vec!['p', 'c', 'p']);
        assert_eq!(c.agents_in(&'p'), vec![AgentId::new(0), AgentId::new(2)]);
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut c = Configuration::uniform(0u8, 3);
        c.set(AgentId::new(1), 7).unwrap();
        assert_eq!(c.get(AgentId::new(1)), Some(&7));
        assert_eq!(c[AgentId::new(1)], 7);
        assert!(c.set(AgentId::new(5), 1).is_err());
        assert_eq!(c.get(AgentId::new(5)), None);
    }
}
