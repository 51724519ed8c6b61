//! Count-based configurations: populations stored as state multiplicities.

use std::collections::HashMap;
use std::fmt;

use rand::{Rng, RngCore};

use crate::{DenseConfiguration, Multiset, Population, PopulationError, State};

/// [`CountConfiguration::count_state`] scans the slots of a configuration
/// holding at most this many (dead ones included) instead of hashing its
/// key. Measured in release on a 2-vCPU Xeon, per lookup of a present
/// key: the SipHash lookup costs 18–23 ns for a `bool` or `u64` and
/// ≈ 50 ns for a `[u64; 8]` state, the scan 4–5 ns at 1–2 slots, and at
/// 16 slots 12 ns for `u64` and 47 ns for `[u64; 8]`; at 32 the scan of
/// `[u64; 8]` states (92 ns) is the slower one. End to end only the
/// 1–2-slot end is exercised: every benchmark caller holds a
/// `CountConfiguration<bool>`, so the threshold itself and the hashed
/// side rest on the microbenchmark alone.
const SCAN_SLOTS: usize = 16;

/// A population stored as *counts*: how many agents hold each state.
///
/// Agents of a population protocol are anonymous, so a configuration of an
/// anonymous protocol is fully captured by the multiset of states — the
/// observation behind the batched count-based simulators of Berenbrink et
/// al. (*Simulating Population Protocols in Sub-Constant Time per
/// Interaction*). Memory is O(distinct states) regardless of `n`, which is
/// what makes n = 10⁶-agent runs practical.
///
/// The counterpart of per-agent indexing is [`sample_pair`]: a uniformly
/// random ordered (starter, reactor) pair of *distinct agents* is drawn
/// directly from the counts, with exactly the law the dense uniform
/// scheduler realizes — starter state with probability `count(q)/n`,
/// reactor state with the starter's copy removed.
///
/// Entries are kept in first-insertion order and a *live index* tracks
/// the slots with non-zero multiplicity, so [`sample_pair`] scans only
/// the states actually present (states that die out stop costing scan
/// time) and the total ordered-pair weight `n·(n−1)` is maintained
/// incrementally instead of being recomputed per draw. Runs stay
/// deterministic given a seed (no hash-map iteration order in the
/// sampling path).
///
/// [`sample_pair`]: CountConfiguration::sample_pair
///
/// # Example
///
/// ```
/// use ppfts_population::CountConfiguration;
///
/// let mut c = CountConfiguration::from_groups([('i', 1), ('s', 3)]);
/// assert_eq!(c.len(), 4);
/// assert_eq!(c.count_state(&'s'), 3);
/// // One ('i', 's') infection: both endpoints end up 'i'.
/// c.apply_outcome(&'i', &'s', ('i', 'i'))?;
/// assert_eq!(c.count_state(&'i'), 2);
/// assert_eq!(c.count_state(&'s'), 2);
/// # Ok::<(), ppfts_population::PopulationError>(())
/// ```
#[derive(Clone)]
pub struct CountConfiguration<Q: State> {
    /// `(state, multiplicity)` in first-insertion order; multiplicities
    /// may be zero (states that died out keep their slot so `index`
    /// stays valid and revivals reuse it).
    entries: Vec<(Q, usize)>,
    /// State → position in `entries`.
    index: HashMap<Q, usize>,
    /// Positions into `entries` of the slots with non-zero multiplicity —
    /// the only slots the sampling scan visits. Maintained by swap-remove
    /// on death and push on revival, so membership is O(1) to update.
    live: Vec<usize>,
    /// `entries` position → position in `live`, or `usize::MAX` for dead
    /// slots.
    live_pos: Vec<usize>,
    /// Total number of agents (sum of multiplicities).
    n: usize,
    /// Cached total ordered-pair weight `n·(n−1)` as a float, updated
    /// whenever `n` changes so samplers never recompute (or re-cast) it
    /// per draw.
    pair_weight: f64,
}

impl<Q: State> CountConfiguration<Q> {
    /// Creates an empty population.
    pub fn new() -> Self {
        CountConfiguration {
            entries: Vec::new(),
            index: HashMap::new(),
            live: Vec::new(),
            live_pos: Vec::new(),
            n: 0,
            pair_weight: 0.0,
        }
    }

    /// Creates a population with `counts` groups: `(state, how many)`.
    pub fn from_groups(counts: impl IntoIterator<Item = (Q, usize)>) -> Self {
        let mut c = CountConfiguration::new();
        for (q, k) in counts {
            c.insert_many(q, k);
        }
        c
    }

    /// Creates a population of `n` agents all in state `q`.
    pub fn uniform(q: Q, n: usize) -> Self {
        CountConfiguration::from_groups([(q, n)])
    }

    /// Creates the count view of a dense configuration.
    pub fn from_dense(dense: &DenseConfiguration<Q>) -> Self {
        let mut c = CountConfiguration::new();
        for q in dense.as_slice() {
            c.insert_many(q.clone(), 1);
        }
        c
    }

    /// Creates a population from a multiset of states.
    ///
    /// Entry order (and therefore the RNG-to-state mapping of
    /// [`sample_pair`](CountConfiguration::sample_pair)) follows the
    /// multiset's canonical sorted order, so the construction is
    /// deterministic.
    pub fn from_counts(counts: &Multiset<Q>) -> Self
    where
        Q: Ord,
    {
        CountConfiguration::from_groups(counts.sorted_pairs())
    }

    /// Number of agents `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of *distinct* states currently present.
    pub fn distinct(&self) -> usize {
        self.live.len()
    }

    /// The total ordered-pair weight `n·(n−1)` — how many ordered
    /// (starter, reactor) pairs of distinct agents exist. Maintained
    /// incrementally by every mutation that changes `n` (in particular
    /// kept exact across [`apply_outcome`](Self::apply_outcome), which
    /// preserves `n`), so samplers read it instead of recomputing.
    pub fn ordered_pair_weight(&self) -> f64 {
        self.pair_weight
    }

    /// Number of agents currently in state `q`.
    ///
    /// Up to `SCAN_SLOTS` (16) slots this scans `entries`; the hashed
    /// `index` pays for itself only past that.
    pub fn count_state(&self, q: &Q) -> usize {
        if self.entries.len() <= SCAN_SLOTS {
            self.entries
                .iter()
                .find(|(p, _)| p == q)
                .map_or(0, |(_, c)| *c)
        } else {
            self.index.get(q).map_or(0, |&i| self.entries[i].1)
        }
    }

    /// Iterates over `(state, multiplicity)` pairs of the states present,
    /// in first-insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Q, usize)> {
        self.entries
            .iter()
            .filter(|(_, c)| *c > 0)
            .map(|(q, c)| (q, *c))
    }

    /// The multiset of states.
    pub fn counts(&self) -> Multiset<Q> {
        let mut m = Multiset::new();
        for (q, c) in self.iter() {
            m.insert_many(q.clone(), c);
        }
        m
    }

    /// Adds `k` agents in state `q`.
    pub fn insert_many(&mut self, q: Q, k: usize) {
        self.n += k;
        let i = match self.index.get(&q) {
            Some(&i) => {
                self.entries[i].1 += k;
                i
            }
            None => {
                let i = self.entries.len();
                self.index.insert(q.clone(), i);
                self.entries.push((q, k));
                self.live_pos.push(usize::MAX);
                i
            }
        };
        if self.entries[i].1 > 0 && self.live_pos[i] == usize::MAX {
            self.live_pos[i] = self.live.len();
            self.live.push(i);
        }
        self.refresh_pair_weight();
    }

    /// Removes `k` agents in state `q` at once — the bulk counterpart of
    /// the interaction-level removal, used by the epoch sampler to pull a
    /// whole epoch's agents out of the population in O(1) per state.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::StateUnderflow`] if fewer than `k`
    /// agents hold state `q`; the counts are left untouched.
    pub fn remove_many(&mut self, q: &Q, k: usize) -> Result<(), PopulationError> {
        if k == 0 {
            return Ok(());
        }
        let available = self.count_state(q);
        if available < k {
            return Err(PopulationError::StateUnderflow {
                state: format!("{q:?}"),
                needed: k,
                available,
            });
        }
        let i = self.index[q];
        self.entries[i].1 -= k;
        self.n -= k;
        self.retire_if_dead(i);
        self.refresh_pair_weight();
        Ok(())
    }

    /// Bulk writeback for epoch-style samplers: overwrites the
    /// multiplicity of every state currently present — `new_counts`
    /// yields one count per live state, in [`iter`](Self::iter) order —
    /// then inserts the `extras` groups (states that may not be present
    /// yet). The aligned pass touches no hash lookups, which is what
    /// keeps an epoch commit O(distinct states) with a small constant;
    /// only `extras` (new states, rare) pay the indexed insertion.
    ///
    /// # Panics
    ///
    /// Panics if `new_counts` does not yield exactly one count per live
    /// state.
    pub fn set_live_counts<I, E>(&mut self, new_counts: I, extras: E)
    where
        I: IntoIterator<Item = usize>,
        E: IntoIterator<Item = (Q, usize)>,
    {
        let mut it = new_counts.into_iter();
        let mut n = 0usize;
        for pos in 0..self.entries.len() {
            if self.entries[pos].1 == 0 {
                continue;
            }
            let c = it.next().expect("one count per live state");
            self.entries[pos].1 = c;
            n += c;
            self.retire_if_dead(pos);
        }
        assert!(it.next().is_none(), "one count per live state");
        self.n = n;
        self.refresh_pair_weight();
        for (q, k) in extras {
            if k > 0 {
                self.insert_many(q, k);
            }
        }
    }

    /// Removes one agent in state `q`.
    fn remove_one(&mut self, q: &Q) -> Result<(), PopulationError> {
        match self.index.get(q) {
            Some(&i) if self.entries[i].1 > 0 => {
                self.entries[i].1 -= 1;
                self.n -= 1;
                self.retire_if_dead(i);
                self.refresh_pair_weight();
                Ok(())
            }
            _ => Err(PopulationError::StateUnderflow {
                state: format!("{q:?}"),
                needed: 1,
                available: 0,
            }),
        }
    }

    /// Drops entry `i` from the live index if its count reached zero
    /// (swap-remove, so death is O(1)).
    fn retire_if_dead(&mut self, i: usize) {
        if self.entries[i].1 == 0 {
            let pos = self.live_pos[i];
            let last = self.live.pop().expect("live index missing a live entry");
            if last != i {
                self.live[pos] = last;
                self.live_pos[last] = pos;
            }
            self.live_pos[i] = usize::MAX;
        }
    }

    /// Re-derives the cached ordered-pair weight after `n` changed.
    fn refresh_pair_weight(&mut self) {
        self.pair_weight = self.n as f64 * self.n.saturating_sub(1) as f64;
    }

    /// Applies one interaction outcome at the count level: one agent in
    /// state `s` and one in state `r` (two copies of the same state when
    /// `s == r`) are replaced by the `outcome` pair.
    ///
    /// This is the replay primitive: folding a dense run's step records
    /// `(old_starter, old_reactor) → (new_starter, new_reactor)` through
    /// it reproduces the dense run's multiset exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::StateUnderflow`] if the population does
    /// not hold the required copies of `s` and `r`; the counts are left
    /// untouched.
    pub fn apply_outcome(&mut self, s: &Q, r: &Q, outcome: (Q, Q)) -> Result<(), PopulationError> {
        let needed = 1 + usize::from(s == r);
        if self.count_state(s) < needed {
            return Err(PopulationError::StateUnderflow {
                state: format!("{s:?}"),
                needed,
                available: self.count_state(s),
            });
        }
        if s != r && self.count_state(r) < 1 {
            return Err(PopulationError::StateUnderflow {
                state: format!("{r:?}"),
                needed: 1,
                available: 0,
            });
        }
        self.remove_one(s).expect("checked above");
        self.remove_one(r).expect("checked above");
        self.insert_many(outcome.0, 1);
        self.insert_many(outcome.1, 1);
        Ok(())
    }

    /// Draws the states of a uniformly random ordered pair of *distinct*
    /// agents — exactly the law of the dense uniform scheduler: the
    /// starter is a uniform agent, the reactor a uniform agent among the
    /// remaining `n − 1`.
    ///
    /// Consumes exactly two range draws from `rng`, mirroring the dense
    /// path's `gen_range(0..n)` + `gen_range(0..n-1)`.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than two agents.
    pub fn sample_pair(&self, rng: &mut dyn RngCore) -> (Q, Q) {
        assert!(self.n >= 2, "population must have at least 2 agents");
        let s = self.state_at(rng.gen_range(0..self.n), None);
        let r = self.state_at(rng.gen_range(0..self.n - 1), Some(s));
        (s.clone(), r.clone())
    }

    /// The state of the `k`-th agent in the canonical (live-index-order)
    /// enumeration, with one copy of `excluded` removed if given. Only
    /// live slots are scanned, so the cost is O(distinct states present),
    /// not O(states ever seen).
    fn state_at(&self, mut k: usize, excluded: Option<&Q>) -> &Q {
        for &i in &self.live {
            let (q, c) = &self.entries[i];
            let c = *c - usize::from(excluded == Some(q));
            if k < c {
                return q;
            }
            k -= c;
        }
        unreachable!("sample index exceeds population size")
    }
}

impl<Q: State> Default for CountConfiguration<Q> {
    fn default() -> Self {
        CountConfiguration::new()
    }
}

impl<Q: State> Population for CountConfiguration<Q> {
    type State = Q;

    fn len(&self) -> usize {
        self.n
    }

    fn counts(&self) -> Multiset<Q> {
        CountConfiguration::counts(self)
    }

    fn count_state(&self, q: &Q) -> usize {
        CountConfiguration::count_state(self, q)
    }
}

impl<Q: State> FromIterator<Q> for CountConfiguration<Q> {
    fn from_iter<I: IntoIterator<Item = Q>>(iter: I) -> Self {
        let mut c = CountConfiguration::new();
        for q in iter {
            c.insert_many(q, 1);
        }
        c
    }
}

// Order-insensitive equality: two count configurations are equal iff they
// hold the same multiset of states, regardless of entry order or dead
// (zero-count) slots.
impl<Q: State> PartialEq for CountConfiguration<Q> {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.iter().all(|(q, c)| other.count_state(q) == c)
    }
}

impl<Q: State> Eq for CountConfiguration<Q> {}

impl<Q: State> fmt::Debug for CountConfiguration<Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn construction_round_trips_through_dense() {
        let dense = DenseConfiguration::new(vec!['a', 'b', 'a', 'c']);
        let count = CountConfiguration::from_dense(&dense);
        assert_eq!(count.len(), 4);
        assert_eq!(count.distinct(), 3);
        assert_eq!(count.counts(), dense.counts());
        assert!(count.same_counts(&dense));
        let by_multiset = CountConfiguration::from_counts(&dense.counts());
        assert_eq!(by_multiset, count);
    }

    #[test]
    fn equality_ignores_entry_order_and_dead_slots() {
        let a = CountConfiguration::from_groups([('x', 2), ('y', 1)]);
        let b = CountConfiguration::from_groups([('y', 1), ('x', 2)]);
        assert_eq!(a, b);
        let mut c = CountConfiguration::from_groups([('z', 1), ('x', 2), ('y', 1)]);
        c.apply_outcome(&'z', &'x', ('x', 'y')).unwrap();
        // 'z' died out; c is now {x×2, y×2}.
        let d = CountConfiguration::from_groups([('x', 2), ('y', 2)]);
        assert_eq!(c, d);
        assert_eq!(c.distinct(), 2);
    }

    #[test]
    fn set_live_counts_overwrites_in_iter_order() {
        let mut c = CountConfiguration::from_groups([('a', 3), ('b', 2), ('d', 1)]);
        // Kill 'b', grow 'a', shrink 'd', and introduce 'e' as an extra.
        c.set_live_counts([5, 0, 1], [('e', 4)]);
        assert_eq!(c.count_state(&'a'), 5);
        assert_eq!(c.count_state(&'b'), 0);
        assert_eq!(c.count_state(&'d'), 1);
        assert_eq!(c.count_state(&'e'), 4);
        assert_eq!(c.len(), 10);
        assert_eq!(c.distinct(), 3);
        assert_eq!(c.ordered_pair_weight(), 90.0);
        // The dead slot revives through the extras path.
        c.set_live_counts([1, 1, 1], [('b', 7)]);
        assert_eq!(c.count_state(&'b'), 7);
        assert_eq!(c.len(), 10);
        assert_eq!(c.distinct(), 4);
        // Round-trip: the revived configuration equals a fresh build.
        let want = CountConfiguration::from_groups([('a', 1), ('d', 1), ('e', 1), ('b', 7)]);
        assert_eq!(c, want);
    }

    #[test]
    #[should_panic(expected = "one count per live state")]
    fn set_live_counts_rejects_misaligned_lengths() {
        let mut c = CountConfiguration::from_groups([('a', 1), ('b', 1)]);
        c.set_live_counts([2], std::iter::empty());
    }

    #[test]
    fn apply_outcome_moves_counts() {
        let mut c = CountConfiguration::from_groups([('c', 2), ('p', 2)]);
        c.apply_outcome(&'c', &'p', ('s', '_')).unwrap();
        assert_eq!(c.count_state(&'c'), 1);
        assert_eq!(c.count_state(&'p'), 1);
        assert_eq!(c.count_state(&'s'), 1);
        assert_eq!(c.count_state(&'_'), 1);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn apply_outcome_checks_availability_atomically() {
        let mut c = CountConfiguration::from_groups([('a', 1), ('b', 1)]);
        // A self-pair of 'a' needs two copies.
        let err = c.apply_outcome(&'a', &'a', ('b', 'b')).unwrap_err();
        assert!(matches!(
            err,
            PopulationError::StateUnderflow {
                needed: 2,
                available: 1,
                ..
            }
        ));
        // Nothing was mutated by the failed application.
        assert_eq!(c.count_state(&'a'), 1);
        assert_eq!(c.count_state(&'b'), 1);
        let err = c.apply_outcome(&'a', &'z', ('a', 'z')).unwrap_err();
        assert!(matches!(err, PopulationError::StateUnderflow { .. }));
    }

    #[test]
    fn self_pair_needs_two_copies_and_works_with_them() {
        let mut c = CountConfiguration::from_groups([('l', 2)]);
        c.apply_outcome(&'l', &'l', ('l', 'f')).unwrap();
        assert_eq!(c.count_state(&'l'), 1);
        assert_eq!(c.count_state(&'f'), 1);
    }

    #[test]
    fn sample_pair_matches_the_uniform_law() {
        // 2 infected + 2 susceptible: P(s=i) = 1/2; P(r=i | s=i) = 1/3.
        let c = CountConfiguration::from_groups([('i', 2), ('s', 2)]);
        let mut rng = SmallRng::seed_from_u64(7);
        let trials = 60_000;
        let mut starter_i = 0u32;
        let mut both_i = 0u32;
        for _ in 0..trials {
            let (s, r) = c.sample_pair(&mut rng);
            if s == 'i' {
                starter_i += 1;
                if r == 'i' {
                    both_i += 1;
                }
            }
        }
        let p_s = starter_i as f64 / trials as f64;
        assert!((p_s - 0.5).abs() < 0.02, "P(starter infected) = {p_s}");
        let p_r = both_i as f64 / starter_i as f64;
        assert!(
            (p_r - 1.0 / 3.0).abs() < 0.02,
            "P(reactor infected | starter infected) = {p_r}"
        );
    }

    #[test]
    fn sample_pair_never_splits_a_lone_agent() {
        // One 'x' among many 'y': (x, x) is impossible.
        let c = CountConfiguration::from_groups([('x', 1), ('y', 5)]);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..2_000 {
            let (s, r) = c.sample_pair(&mut rng);
            assert!(!(s == 'x' && r == 'x'));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 agents")]
    fn sampling_a_singleton_panics() {
        let c = CountConfiguration::uniform('q', 1);
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = c.sample_pair(&mut rng);
    }

    #[test]
    fn remove_many_is_atomic_and_updates_counts() {
        let mut c = CountConfiguration::from_groups([('a', 5), ('b', 2)]);
        c.remove_many(&'a', 3).unwrap();
        assert_eq!(c.count_state(&'a'), 2);
        assert_eq!(c.len(), 4);
        let err = c.remove_many(&'b', 3).unwrap_err();
        assert!(matches!(
            err,
            PopulationError::StateUnderflow {
                needed: 3,
                available: 2,
                ..
            }
        ));
        assert_eq!(c.count_state(&'b'), 2);
        assert!(c.remove_many(&'z', 0).is_ok());
        assert!(c.remove_many(&'z', 1).is_err());
    }

    #[test]
    fn live_index_tracks_deaths_and_revivals() {
        let mut c = CountConfiguration::from_groups([('a', 2), ('b', 1), ('c', 3)]);
        assert_eq!(c.distinct(), 3);
        c.remove_many(&'b', 1).unwrap();
        assert_eq!(c.distinct(), 2);
        assert_eq!(c.count_state(&'b'), 0);
        // Sampling still covers exactly the live states.
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..500 {
            let (s, r) = c.sample_pair(&mut rng);
            assert_ne!(s, 'b');
            assert_ne!(r, 'b');
        }
        // Revival re-enters the live index.
        c.insert_many('b', 2);
        assert_eq!(c.distinct(), 3);
        assert_eq!(c.count_state(&'b'), 2);
        let seen_b = (0..2_000).any(|_| {
            let (s, r) = c.sample_pair(&mut rng);
            s == 'b' || r == 'b'
        });
        assert!(seen_b);
    }

    #[test]
    fn ordered_pair_weight_tracks_n() {
        let mut c = CountConfiguration::from_groups([('x', 3)]);
        assert_eq!(c.ordered_pair_weight(), 6.0);
        c.insert_many('y', 2);
        assert_eq!(c.ordered_pair_weight(), 20.0);
        c.apply_outcome(&'x', &'y', ('y', 'y')).unwrap();
        // apply_outcome preserves n, and with it the pair weight.
        assert_eq!(c.ordered_pair_weight(), 20.0);
        c.remove_many(&'y', 3).unwrap();
        assert_eq!(c.ordered_pair_weight(), 2.0);
        assert_eq!(CountConfiguration::<u8>::new().ordered_pair_weight(), 0.0);
    }

    #[test]
    fn from_iter_counts_duplicates() {
        let c: CountConfiguration<u8> = [1u8, 2, 1, 1].into_iter().collect();
        assert_eq!(c.count_state(&1), 3);
        assert_eq!(c.count_state(&2), 1);
        assert!(CountConfiguration::<u8>::default().is_empty());
    }
}
