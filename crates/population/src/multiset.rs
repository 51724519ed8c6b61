//! Order-insensitive views of configurations.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use crate::State;

/// A multiset of states.
///
/// Configurations of anonymous agents are naturally multisets: permuting the
/// agents yields an equivalent configuration. [`Multiset`] is the canonical
/// order-insensitive view used by convergence detection, the model checker
/// and the experiment harnesses.
///
/// # Example
///
/// ```
/// use ppfts_population::Multiset;
///
/// let m: Multiset<&str> = ["c", "p", "c"].into_iter().collect();
/// assert_eq!(m.count(&"c"), 2);
/// assert_eq!(m.count(&"p"), 1);
/// assert_eq!(m.count(&"cs"), 0);
/// assert_eq!(m.len(), 3);
/// ```
#[derive(Clone, Default)]
pub struct Multiset<Q: State> {
    counts: HashMap<Q, usize>,
    len: usize,
}

impl<Q: State> Multiset<Q> {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        Multiset {
            counts: HashMap::new(),
            len: 0,
        }
    }

    /// Number of elements, counted with multiplicity.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the multiset contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of *distinct* elements.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Multiplicity of `q`.
    pub fn count(&self, q: &Q) -> usize {
        self.counts.get(q).copied().unwrap_or(0)
    }

    /// Whether `q` occurs at least once.
    pub fn contains(&self, q: &Q) -> bool {
        self.count(q) > 0
    }

    /// Adds one occurrence of `q`, returning its new multiplicity.
    pub fn insert(&mut self, q: Q) -> usize {
        self.len += 1;
        let c = self.counts.entry(q).or_insert(0);
        *c += 1;
        *c
    }

    /// Adds `k` occurrences of `q`.
    pub fn insert_many(&mut self, q: Q, k: usize) {
        if k == 0 {
            return;
        }
        self.len += k;
        *self.counts.entry(q).or_insert(0) += k;
    }

    /// Removes one occurrence of `q` if present; returns whether anything
    /// was removed.
    pub fn remove(&mut self, q: &Q) -> bool {
        match self.counts.get_mut(q) {
            Some(c) if *c > 1 => {
                *c -= 1;
                self.len -= 1;
                true
            }
            Some(_) => {
                self.counts.remove(q);
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Iterates over `(state, multiplicity)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Q, usize)> {
        self.counts.iter().map(|(q, &c)| (q, c))
    }

    /// Iterates over the distinct states in arbitrary order.
    pub fn states(&self) -> impl Iterator<Item = &Q> {
        self.counts.keys()
    }

    /// The multiset obtained by mapping every element through `f`
    /// (multiplicities of equal images add up).
    pub fn map<R: State>(&self, mut f: impl FnMut(&Q) -> R) -> Multiset<R> {
        let mut out = Multiset::new();
        for (q, c) in self.iter() {
            out.insert_many(f(q), c);
        }
        out
    }

    /// Whether the two multisets contain the same elements with the same
    /// multiplicities.
    pub fn same_as(&self, other: &Multiset<Q>) -> bool {
        self.len == other.len && self.counts.iter().all(|(q, &c)| other.count(q) == c)
    }
}

impl<Q: State> PartialEq for Multiset<Q> {
    fn eq(&self, other: &Self) -> bool {
        self.same_as(other)
    }
}

impl<Q: State> Eq for Multiset<Q> {}

impl<Q: State> FromIterator<Q> for Multiset<Q> {
    fn from_iter<I: IntoIterator<Item = Q>>(iter: I) -> Self {
        let mut m = Multiset::new();
        m.extend(iter);
        m
    }
}

impl<Q: State> Extend<Q> for Multiset<Q> {
    fn extend<I: IntoIterator<Item = Q>>(&mut self, iter: I) {
        for q in iter {
            self.insert(q);
        }
    }
}

impl<Q: State> Multiset<Q> {
    /// The `(state, multiplicity)` pairs sorted by the `Debug` text of
    /// the state: the order both printed forms use, so a multiset prints
    /// the same in every run whatever its hash order.
    fn printed_entries(&self) -> Vec<(&Q, usize)> {
        let mut keyed: Vec<(String, &Q, usize)> = self
            .counts
            .iter()
            .map(|(q, &c)| (format!("{q:?}"), q, c))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        keyed.into_iter().map(|(_, q, c)| (q, c)).collect()
    }
}

impl<Q: State> fmt::Debug for Multiset<Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Counts<'a, Q>(Vec<(&'a Q, usize)>);
        impl<Q: fmt::Debug> fmt::Debug for Counts<'_, Q> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(q, c)| (q, c)))
                    .finish()
            }
        }
        f.debug_struct("Multiset")
            .field("counts", &Counts(self.printed_entries()))
            .field("len", &self.len)
            .finish()
    }
}

impl<Q: State + fmt::Display> fmt::Display for Multiset<Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (q, c)) in self.printed_entries().into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{q}×{c}")?;
        }
        write!(f, "}}")
    }
}

impl<Q: State + Ord> Multiset<Q> {
    /// The `(state, multiplicity)` pairs sorted by state.
    ///
    /// Useful as a canonical form: two multisets are equal iff their sorted
    /// pair lists are equal.
    pub fn sorted_pairs(&self) -> Vec<(Q, usize)> {
        let mut v: Vec<(Q, usize)> = self.iter().map(|(q, c)| (q.clone(), c)).collect();
        v.sort();
        v
    }
}

// `Hash` must agree with the order-insensitive `Eq`, so hash an
// order-insensitive digest: XOR of per-entry hashes.
impl<Q: State> Hash for Multiset<Q> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hasher;
        let mut acc: u64 = 0;
        for (q, c) in &self.counts {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            q.hash(&mut h);
            c.hash(&mut h);
            acc ^= h.finish();
        }
        state.write_u64(acc);
        state.write_usize(self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_remove_track_multiplicity() {
        let mut m = Multiset::new();
        assert_eq!(m.insert('x'), 1);
        assert_eq!(m.insert('x'), 2);
        assert_eq!(m.insert('y'), 1);
        assert_eq!(m.len(), 3);
        assert_eq!(m.distinct(), 2);
        assert!(m.remove(&'x'));
        assert_eq!(m.count(&'x'), 1);
        assert!(m.remove(&'x'));
        assert!(!m.remove(&'x'));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a: Multiset<u8> = [1, 2, 2, 3].into_iter().collect();
        let b: Multiset<u8> = [2, 3, 1, 2].into_iter().collect();
        let c: Multiset<u8> = [1, 2, 3, 3].into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hash_agrees_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a: Multiset<u8> = [5, 6, 6].into_iter().collect();
        let b: Multiset<u8> = [6, 5, 6].into_iter().collect();
        let hash = |m: &Multiset<u8>| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn map_merges_images() {
        let m: Multiset<i32> = [-2, 2, 3].into_iter().collect();
        let abs = m.map(|q| q.abs());
        assert_eq!(abs.count(&2), 2);
        assert_eq!(abs.count(&3), 1);
        assert_eq!(abs.len(), 3);
    }

    #[test]
    fn sorted_pairs_is_canonical() {
        let a: Multiset<u8> = [9, 1, 9].into_iter().collect();
        assert_eq!(a.sorted_pairs(), vec![(1, 1), (9, 2)]);
    }

    #[test]
    fn printed_forms_are_canonical() {
        // Entries print sorted by their `Debug` text, not in hash order.
        let m: Multiset<u32> = [7, 3, 3, 12, 5, 7, 7, 1, 20, 3].into_iter().collect();
        assert_eq!(
            format!("{m:?}"),
            "Multiset { counts: {1: 1, 12: 1, 20: 1, 3: 3, 5: 1, 7: 3}, len: 10 }"
        );
        assert_eq!(m.to_string(), "{1×1, 12×1, 20×1, 3×3, 5×1, 7×3}");
    }

    #[test]
    fn insert_many_zero_is_noop() {
        let mut m: Multiset<u8> = Multiset::new();
        m.insert_many(7, 0);
        assert!(m.is_empty());
        assert!(!m.contains(&7));
    }
}
