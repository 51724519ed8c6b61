//! Two-way protocols: the objects being simulated.

use std::collections::HashMap;
use std::fmt;

use crate::{EnumerableStates, State};

/// A population protocol in the standard **two-way** interaction model.
///
/// The transition function `δ_P(a_s, a_r) = (fs(a_s, a_r), fr(a_s, a_r))`
/// jointly updates the starter and the reactor. `δ_P` must be
/// deterministic; non-determinism in executions comes only from the
/// scheduler.
///
/// This is the protocol *being simulated* in the reproduced paper: the
/// simulators in `ppfts-core` take any `TwoWayProtocol` and produce a
/// program for a weaker interaction model that simulates it.
///
/// # Example
///
/// ```
/// use ppfts_population::TwoWayProtocol;
///
/// /// Max-gossip: both agents learn the maximum of their values.
/// struct MaxGossip;
/// impl TwoWayProtocol for MaxGossip {
///     type State = u32;
///     fn delta(&self, s: &u32, r: &u32) -> (u32, u32) {
///         let m = (*s).max(*r);
///         (m, m)
///     }
/// }
///
/// assert_eq!(MaxGossip.delta(&3, &8), (8, 8));
/// assert_eq!(MaxGossip.starter_out(&3, &8), 8);
/// ```
pub trait TwoWayProtocol {
    /// Local state space `Q_P`.
    type State: State;

    /// The joint transition `δ_P(s, r)`.
    fn delta(&self, s: &Self::State, r: &Self::State) -> (Self::State, Self::State);

    /// The starter's component `fs(s, r)` of the transition.
    fn starter_out(&self, s: &Self::State, r: &Self::State) -> Self::State {
        self.delta(s, r).0
    }

    /// The reactor's component `fr(s, r)` of the transition.
    fn reactor_out(&self, s: &Self::State, r: &Self::State) -> Self::State {
        self.delta(s, r).1
    }

    /// Whether `δ` leaves the pair `(s, r)` unchanged.
    fn is_noop(&self, s: &Self::State, r: &Self::State) -> bool {
        self.delta(s, r) == (s.clone(), r.clone())
    }

    /// Whether `δ` treats the *unordered* pair `{q0, q1}` symmetrically,
    /// i.e. `δ(q0, q1) = (x, y)` and `δ(q1, q0) = (y, x)`.
    ///
    /// Lemma 1 of the paper requires this of the initial pair of the
    /// attacked protocol; the Pairing protocol satisfies it on `(c, p)`.
    fn is_symmetric_on(&self, q0: &Self::State, q1: &Self::State) -> bool {
        let (x, y) = self.delta(q0, q1);
        let (y2, x2) = self.delta(q1, q0);
        x == x2 && y == y2
    }
}

impl<P: TwoWayProtocol + ?Sized> TwoWayProtocol for &P {
    type State = P::State;
    fn delta(&self, s: &Self::State, r: &Self::State) -> (Self::State, Self::State) {
        (**self).delta(s, r)
    }
}

/// A single rewrite rule `(s, r) ↦ (s', r')` of a [`TableProtocol`].
///
/// # Example
///
/// ```
/// use ppfts_population::DeltaRule;
///
/// let rule = DeltaRule::new(('c', 'p'), ('C', '_'));
/// assert_eq!(rule.from(), &('c', 'p'));
/// assert_eq!(rule.to(), &('C', '_'));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaRule<Q: State> {
    from: (Q, Q),
    to: (Q, Q),
}

impl<Q: State> DeltaRule<Q> {
    /// Creates the rule `from ↦ to`.
    pub fn new(from: (Q, Q), to: (Q, Q)) -> Self {
        DeltaRule { from, to }
    }

    /// Left-hand side `(s, r)`.
    pub fn from(&self) -> &(Q, Q) {
        &self.from
    }

    /// Right-hand side `(s', r')`.
    pub fn to(&self) -> &(Q, Q) {
        &self.to
    }
}

/// A finite-state protocol defined by an explicit rule table.
///
/// Pairs not covered by any rule are left unchanged (the identity
/// transition), matching the "only non-trivial transition rules are ..."
/// convention used in the paper and throughout the PP literature.
///
/// # Example
///
/// The paper's Pairing protocol `P_IP` (Definition 5):
///
/// ```
/// use ppfts_population::{TableProtocol, TwoWayProtocol};
///
/// let pairing = TableProtocol::builder(vec!['s', 'c', 'p', '_'])
///     .rule(('c', 'p'), ('s', '_'))
///     .rule(('p', 'c'), ('_', 's'))
///     .build();
///
/// assert_eq!(pairing.delta(&'c', &'p'), ('s', '_'));
/// assert_eq!(pairing.delta(&'c', &'c'), ('c', 'c')); // identity
/// assert!(pairing.is_symmetric_on(&'c', &'p'));
/// ```
#[derive(Clone, Debug)]
pub struct TableProtocol<Q: State> {
    states: Vec<Q>,
    rules: HashMap<(Q, Q), (Q, Q)>,
}

impl<Q: State> TableProtocol<Q> {
    /// Starts building a table protocol over the given state space.
    pub fn builder(states: Vec<Q>) -> TableProtocolBuilder<Q> {
        TableProtocolBuilder {
            states,
            rules: HashMap::new(),
        }
    }

    /// Compiles any enumerable protocol into an explicit rule table by
    /// evaluating `δ` on every ordered state pair — the *port* that runs
    /// the classic protocol library on either population backend with
    /// table-lookup transitions.
    ///
    /// # Example
    ///
    /// ```
    /// use ppfts_population::{EnumerableStates, TableProtocol, TwoWayProtocol};
    ///
    /// /// Max of two bits, as a hand-written protocol.
    /// struct OrBit;
    /// impl TwoWayProtocol for OrBit {
    ///     type State = bool;
    ///     fn delta(&self, s: &bool, r: &bool) -> (bool, bool) {
    ///         (*s || *r, *s || *r)
    ///     }
    /// }
    /// impl EnumerableStates for OrBit {
    ///     type State = bool;
    ///     fn states(&self) -> Vec<bool> { vec![false, true] }
    /// }
    ///
    /// let table = TableProtocol::from_protocol(&OrBit);
    /// assert_eq!(table.delta(&false, &true), OrBit.delta(&false, &true));
    /// assert_eq!(table.rules().count(), 2); // (t,f) and (f,t); identities elided
    /// ```
    pub fn from_protocol<P>(protocol: &P) -> TableProtocol<Q>
    where
        P: TwoWayProtocol<State = Q> + EnumerableStates<State = Q>,
    {
        let states = protocol.states();
        let mut rules = HashMap::new();
        for s in &states {
            for r in &states {
                let (s2, r2) = protocol.delta(s, r);
                if s2 != *s || r2 != *r {
                    rules.insert((s.clone(), r.clone()), (s2, r2));
                }
            }
        }
        TableProtocol { states, rules }
    }

    /// The explicit (non-identity) rules of the table.
    pub fn rules(&self) -> impl Iterator<Item = DeltaRule<Q>> + '_ {
        self.rules
            .iter()
            .map(|(from, to)| DeltaRule::new(from.clone(), to.clone()))
    }

    /// Analyzes which unordered pairs the table treats symmetrically.
    pub fn symmetry_report(&self) -> SymmetryReport {
        let mut symmetric = 0usize;
        let mut asymmetric = Vec::new();
        for (i, q0) in self.states.iter().enumerate() {
            for q1 in self.states.iter().skip(i) {
                if self.is_symmetric_on(q0, q1) {
                    symmetric += 1;
                } else {
                    asymmetric.push((format!("{q0:?}"), format!("{q1:?}")));
                }
            }
        }
        SymmetryReport {
            symmetric_pairs: symmetric,
            asymmetric_pairs: asymmetric,
        }
    }
}

impl<Q: State> TwoWayProtocol for TableProtocol<Q> {
    type State = Q;

    fn delta(&self, s: &Q, r: &Q) -> (Q, Q) {
        match self.rules.get(&(s.clone(), r.clone())) {
            Some((s2, r2)) => (s2.clone(), r2.clone()),
            None => (s.clone(), r.clone()),
        }
    }
}

impl<Q: State> EnumerableStates for TableProtocol<Q> {
    type State = Q;
    fn states(&self) -> Vec<Q> {
        self.states.clone()
    }
}

/// Builder for [`TableProtocol`]; see [`TableProtocol::builder`].
#[derive(Clone, Debug)]
pub struct TableProtocolBuilder<Q: State> {
    states: Vec<Q>,
    rules: HashMap<(Q, Q), (Q, Q)>,
}

impl<Q: State> TableProtocolBuilder<Q> {
    /// Adds the rule `from ↦ to`, replacing any previous rule for `from`.
    ///
    /// # Panics
    ///
    /// Panics if any state mentioned by the rule is not part of the state
    /// space passed to [`TableProtocol::builder`]; a mistyped rule would
    /// otherwise silently corrupt experiments.
    pub fn rule(mut self, from: (Q, Q), to: (Q, Q)) -> Self {
        for q in [&from.0, &from.1, &to.0, &to.1] {
            assert!(
                self.states.contains(q),
                "rule references state {q:?} outside the declared state space"
            );
        }
        self.rules.insert(from, to);
        self
    }

    /// Adds `rule` and its mirror image, making the unordered pair
    /// symmetric: `(s, r) ↦ (x, y)` and `(r, s) ↦ (y, x)`.
    pub fn symmetric_rule(self, from: (Q, Q), to: (Q, Q)) -> Self {
        let mirrored_from = (from.1.clone(), from.0.clone());
        let mirrored_to = (to.1.clone(), to.0.clone());
        self.rule(from, to).rule(mirrored_from, mirrored_to)
    }

    /// Finalizes the table.
    pub fn build(self) -> TableProtocol<Q> {
        TableProtocol {
            states: self.states,
            rules: self.rules,
        }
    }
}

/// Outcome of [`TableProtocol::symmetry_report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymmetryReport {
    /// Number of unordered pairs on which `δ` is symmetric.
    pub symmetric_pairs: usize,
    /// Debug renderings of the asymmetric pairs.
    pub asymmetric_pairs: Vec<(String, String)>,
}

/// The δ-closure of a seed set: every state reachable by repeatedly
/// applying `δ` to ordered pairs of already-reachable states.
///
/// This is the *population-level* reachable state space — a configuration
/// whose agents all start in `seeds` can only ever contain states from the
/// closure, whatever the scheduler does. The static analyzer uses it to
/// flag declared-but-unreachable states and rules that can never fire.
///
/// The returned vector is deterministic: seeds first (in iteration order,
/// duplicates elided), then newly discovered states in discovery order.
///
/// # Example
///
/// ```
/// use ppfts_population::{delta_closure, TableProtocol};
///
/// let table = TableProtocol::builder(vec!['a', 'b', 'x', 'z'])
///     .rule(('a', 'b'), ('x', 'x'))
///     .build();
/// // 'z' is declared but no rule from {a, b} ever produces it.
/// assert_eq!(delta_closure(&table, ['a', 'b']), vec!['a', 'b', 'x']);
/// ```
pub fn delta_closure<P: TwoWayProtocol>(
    protocol: &P,
    seeds: impl IntoIterator<Item = P::State>,
) -> Vec<P::State> {
    let mut reached: Vec<P::State> = Vec::new();
    for q in seeds {
        if !reached.contains(&q) {
            reached.push(q);
        }
    }
    // Fixpoint over ordered pairs of the current closure. The state space
    // is finite for every protocol we analyze, so this terminates.
    let mut scanned = 0usize;
    while scanned < reached.len() {
        let frontier_start = scanned;
        scanned = reached.len();
        let mut fresh: Vec<P::State> = Vec::new();
        for i in 0..reached.len() {
            for j in 0..reached.len() {
                // Only pairs touching the new frontier can produce news.
                if i < frontier_start && j < frontier_start {
                    continue;
                }
                let (s2, r2) = protocol.delta(&reached[i], &reached[j]);
                for q in [s2, r2] {
                    if !reached.contains(&q) && !fresh.contains(&q) {
                        fresh.push(q);
                    }
                }
            }
        }
        reached.extend(fresh);
    }
    reached
}

/// A protocol defined by a pair of closures `(fs, fr)`.
///
/// Convenient for one-off protocols in tests and examples without declaring
/// a new type.
///
/// # Example
///
/// ```
/// use ppfts_population::{FunctionProtocol, TwoWayProtocol};
///
/// let avg_ish = FunctionProtocol::new(
///     |s: &i64, r: &i64| (s + r) / 2,
///     |s: &i64, r: &i64| (s + r) - (s + r) / 2,
/// );
/// assert_eq!(avg_ish.delta(&3, &5), (4, 4));
/// ```
pub struct FunctionProtocol<Q, Fs, Fr> {
    fs: Fs,
    fr: Fr,
    _marker: std::marker::PhantomData<fn() -> Q>,
}

impl<Q, Fs, Fr> FunctionProtocol<Q, Fs, Fr>
where
    Q: State,
    Fs: Fn(&Q, &Q) -> Q,
    Fr: Fn(&Q, &Q) -> Q,
{
    /// Creates the protocol with starter update `fs` and reactor update
    /// `fr`.
    pub fn new(fs: Fs, fr: Fr) -> Self {
        FunctionProtocol {
            fs,
            fr,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<Q, Fs, Fr> TwoWayProtocol for FunctionProtocol<Q, Fs, Fr>
where
    Q: State,
    Fs: Fn(&Q, &Q) -> Q,
    Fr: Fn(&Q, &Q) -> Q,
{
    type State = Q;

    fn delta(&self, s: &Q, r: &Q) -> (Q, Q) {
        ((self.fs)(s, r), (self.fr)(s, r))
    }
}

impl<Q, Fs, Fr> fmt::Debug for FunctionProtocol<Q, Fs, Fr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionProtocol").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairing() -> TableProtocol<char> {
        // `s` plays the paper's `cs`, `_` plays `⊥`.
        TableProtocol::builder(vec!['s', 'c', 'p', '_'])
            .rule(('c', 'p'), ('s', '_'))
            .rule(('p', 'c'), ('_', 's'))
            .build()
    }

    #[test]
    fn unlisted_pairs_are_identity() {
        let p = pairing();
        assert!(p.is_noop(&'s', &'s'));
        assert!(p.is_noop(&'c', &'c'));
        assert_eq!(p.delta(&'_', &'p'), ('_', 'p'));
    }

    #[test]
    fn listed_pairs_follow_table() {
        let p = pairing();
        assert_eq!(p.delta(&'c', &'p'), ('s', '_'));
        assert_eq!(p.delta(&'p', &'c'), ('_', 's'));
        assert!(!p.is_noop(&'c', &'p'));
    }

    #[test]
    fn pairing_is_symmetric_on_c_p() {
        let p = pairing();
        assert!(p.is_symmetric_on(&'c', &'p'));
        assert!(p.is_symmetric_on(&'c', &'c'));
    }

    #[test]
    fn symmetry_report_flags_one_way_rules() {
        let p = TableProtocol::builder(vec![0u8, 1u8])
            .rule((1, 0), (1, 1))
            .build();
        let report = p.symmetry_report();
        // (1,0) infects but (0,1) does not: asymmetric on {0,1}.
        assert_eq!(report.asymmetric_pairs.len(), 1);
        assert_eq!(report.symmetric_pairs, 2); // {0,0} and {1,1}
    }

    #[test]
    fn symmetric_rule_adds_mirror() {
        let p = TableProtocol::builder(vec!['a', 'b', 'x'])
            .symmetric_rule(('a', 'b'), ('x', 'x'))
            .build();
        assert_eq!(p.delta(&'a', &'b'), ('x', 'x'));
        assert_eq!(p.delta(&'b', &'a'), ('x', 'x'));
        assert!(p.is_symmetric_on(&'a', &'b'));
        assert_eq!(p.rules().count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside the declared state space")]
    fn rule_outside_state_space_panics() {
        let _ = TableProtocol::builder(vec!['a']).rule(('a', 'z'), ('a', 'a'));
    }

    #[test]
    fn starter_and_reactor_components_match_delta() {
        let p = pairing();
        assert_eq!(p.starter_out(&'c', &'p'), 's');
        assert_eq!(p.reactor_out(&'c', &'p'), '_');
    }

    #[test]
    fn enumerates_declared_states() {
        assert_eq!(pairing().states(), vec!['s', 'c', 'p', '_']);
    }

    #[test]
    fn blanket_impl_for_references() {
        let p = pairing();
        fn takes_protocol<P: TwoWayProtocol<State = char>>(p: P) -> (char, char) {
            p.delta(&'c', &'p')
        }
        assert_eq!(takes_protocol(&p), ('s', '_'));
    }
}
