//! A compiler from semilinear predicates to two-way protocols.
//!
//! Standard population protocols stably compute exactly the *semilinear*
//! predicates (Angluin–Aspnes–Eisenstat): boolean combinations of
//! threshold atoms `Σ cᵢ·xᵢ ≥ k` and remainder atoms
//! `Σ cᵢ·xᵢ ≡ r (mod m)` over the input counts. This module compiles any
//! such predicate into a concrete [`TwoWayProtocol`], giving the
//! simulators of `ppfts-core` an unbounded family of payload protocols —
//! simulating a compiled predicate on a weak model exercises the full
//! computational power the paper's theorems quantify over.
//!
//! Mechanics: the compiled state is a vector with one slot per atom.
//! Threshold slots run the flock-of-birds dynamics (cap-and-conserve
//! merge plus an epidemically spreading `detected` flag); remainder slots
//! run the active/passive mod-`m` merge with opinion flooding. An agent's
//! output evaluates the boolean expression over its per-atom opinions,
//! and stabilizes because each atom's opinion does.

use ppfts_population::{Semantics, TwoWayProtocol};

/// One atom of a semilinear predicate over `arity` input symbols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Atom {
    /// `Σ coeffs[σ]·count(σ) ≥ threshold` (non-negative coefficients).
    Threshold {
        /// Contribution of each input symbol.
        coeffs: Vec<u32>,
        /// The bound `k ≥ 1` being tested.
        threshold: u32,
    },
    /// `Σ coeffs[σ]·count(σ) ≡ residue (mod modulus)`.
    Remainder {
        /// Contribution of each input symbol.
        coeffs: Vec<u32>,
        /// The modulus `m ≥ 2`.
        modulus: u32,
        /// The residue `r < m` being tested.
        residue: u32,
    },
}

impl Atom {
    fn arity(&self) -> usize {
        match self {
            Atom::Threshold { coeffs, .. } | Atom::Remainder { coeffs, .. } => coeffs.len(),
        }
    }

    fn ground_truth(&self, counts: &[u64]) -> bool {
        match self {
            Atom::Threshold { coeffs, threshold } => {
                let sum: u64 = coeffs.iter().zip(counts).map(|(&c, &n)| c as u64 * n).sum();
                sum >= *threshold as u64
            }
            Atom::Remainder {
                coeffs,
                modulus,
                residue,
            } => {
                let sum: u64 = coeffs.iter().zip(counts).map(|(&c, &n)| c as u64 * n).sum();
                sum % *modulus as u64 == *residue as u64
            }
        }
    }
}

/// A boolean combination of atom outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PredicateExpr {
    /// The `i`-th atom's truth value.
    Atom(usize),
    /// Logical negation.
    Not(Box<PredicateExpr>),
    /// Logical conjunction.
    And(Box<PredicateExpr>, Box<PredicateExpr>),
    /// Logical disjunction.
    Or(Box<PredicateExpr>, Box<PredicateExpr>),
    /// A constant.
    Const(bool),
}

impl PredicateExpr {
    /// The `i`-th atom as an expression.
    pub fn atom(i: usize) -> Self {
        PredicateExpr::Atom(i)
    }

    /// `self AND other`.
    pub fn and(self, other: PredicateExpr) -> Self {
        PredicateExpr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: PredicateExpr) -> Self {
        PredicateExpr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        PredicateExpr::Not(Box::new(self))
    }

    fn eval(&self, atoms: &[bool]) -> bool {
        match self {
            PredicateExpr::Atom(i) => atoms[*i],
            PredicateExpr::Not(e) => !e.eval(atoms),
            PredicateExpr::And(a, b) => a.eval(atoms) && b.eval(atoms),
            PredicateExpr::Or(a, b) => a.eval(atoms) || b.eval(atoms),
            PredicateExpr::Const(b) => *b,
        }
    }

    fn max_atom(&self) -> Option<usize> {
        match self {
            PredicateExpr::Atom(i) => Some(*i),
            PredicateExpr::Not(e) => e.max_atom(),
            PredicateExpr::And(a, b) | PredicateExpr::Or(a, b) => a.max_atom().max(b.max_atom()),
            PredicateExpr::Const(_) => None,
        }
    }
}

/// Per-atom slot of the compiled protocol's state.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AtomState {
    /// Flock-of-birds slot: capped count plus the irreversible flag.
    Threshold {
        /// Accumulated weight, saturated at the atom's threshold.
        value: u32,
        /// Whether the threshold is known to be reached.
        detected: bool,
    },
    /// Remainder slot: active partial sum or passive, plus the opinion.
    Remainder {
        /// `Some(v)`: active with partial sum `v`; `None`: passive.
        value: Option<u32>,
        /// Current output opinion of this slot.
        opinion: bool,
    },
}

/// A semilinear predicate compiled to a two-way population protocol.
///
/// # Example
///
/// "At least two marked agents, and the total weight is even":
///
/// ```
/// use ppfts_population::{Semantics, TwoWayProtocol};
/// use ppfts_protocols::semilinear::{Atom, PredicateExpr, SemilinearProtocol};
///
/// // Symbols: 0 = unmarked (weight 1), 1 = marked (weight 2).
/// let pred = SemilinearProtocol::new(
///     vec![
///         Atom::Threshold { coeffs: vec![0, 1], threshold: 2 }, // ≥ 2 marked
///         Atom::Remainder { coeffs: vec![1, 2], modulus: 2, residue: 0 }, // even weight
///     ],
///     PredicateExpr::atom(0).and(PredicateExpr::atom(1)),
/// )?;
///
/// // 2 marked + 2 unmarked: 2 ≥ 2 ✓ and weight 2·2+1·2 = 6 even ✓.
/// assert!(pred.expected(&[1, 1, 0, 0]));
/// // 1 marked + 1 unmarked: 1 < 2 ✗.
/// assert!(!pred.expected(&[1, 0]));
/// # Ok::<(), ppfts_protocols::semilinear::SemilinearError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SemilinearProtocol {
    atoms: Vec<Atom>,
    expr: PredicateExpr,
    arity: usize,
}

/// Construction errors for [`SemilinearProtocol`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SemilinearError {
    /// The atom list was empty and the expression references atoms.
    AtomIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of atoms supplied.
        atoms: usize,
    },
    /// Atoms disagree on the number of input symbols.
    ArityMismatch,
    /// A threshold atom had `threshold == 0` (constantly true) or a
    /// remainder atom had `modulus < 2` or `residue >= modulus`.
    DegenerateAtom {
        /// Position of the offending atom.
        index: usize,
    },
}

impl std::fmt::Display for SemilinearError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SemilinearError::AtomIndexOutOfRange { index, atoms } => {
                write!(
                    f,
                    "expression references atom {index} but only {atoms} atoms exist"
                )
            }
            SemilinearError::ArityMismatch => {
                write!(f, "atoms disagree on the number of input symbols")
            }
            SemilinearError::DegenerateAtom { index } => {
                write!(
                    f,
                    "atom {index} is degenerate (zero threshold or bad modulus)"
                )
            }
        }
    }
}

impl std::error::Error for SemilinearError {}

impl SemilinearProtocol {
    /// Compiles `expr` over `atoms` into a protocol.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range atom references, mismatched arities and
    /// degenerate atoms.
    pub fn new(atoms: Vec<Atom>, expr: PredicateExpr) -> Result<Self, SemilinearError> {
        if let Some(max) = expr.max_atom() {
            if max >= atoms.len() {
                return Err(SemilinearError::AtomIndexOutOfRange {
                    index: max,
                    atoms: atoms.len(),
                });
            }
        }
        let arity = atoms.first().map_or(0, Atom::arity);
        for (index, atom) in atoms.iter().enumerate() {
            if atom.arity() != arity {
                return Err(SemilinearError::ArityMismatch);
            }
            match atom {
                Atom::Threshold { threshold, .. } if *threshold == 0 => {
                    return Err(SemilinearError::DegenerateAtom { index })
                }
                Atom::Remainder {
                    modulus, residue, ..
                } if *modulus < 2 || residue >= modulus => {
                    return Err(SemilinearError::DegenerateAtom { index })
                }
                _ => {}
            }
        }
        Ok(SemilinearProtocol { atoms, expr, arity })
    }

    fn atom_delta(&self, atom: &Atom, s: &AtomState, r: &AtomState) -> (AtomState, AtomState) {
        match (atom, s, r) {
            (
                Atom::Threshold { threshold, .. },
                AtomState::Threshold {
                    value: u,
                    detected: du,
                },
                AtomState::Threshold {
                    value: v,
                    detected: dv,
                },
            ) => {
                let k = *threshold;
                let total = u + v;
                let kept = total.min(k);
                let reached = total >= k || *du || *dv;
                (
                    AtomState::Threshold {
                        value: kept,
                        detected: reached,
                    },
                    AtomState::Threshold {
                        value: total - kept,
                        detected: reached,
                    },
                )
            }
            (
                Atom::Remainder {
                    modulus, residue, ..
                },
                AtomState::Remainder { value: sv, .. },
                AtomState::Remainder {
                    value: rv,
                    opinion: ro,
                },
            ) => {
                let m = *modulus;
                let test = |v: u32| v % m == *residue;
                match (sv, rv) {
                    (Some(u), Some(v)) => {
                        let merged = (u + v) % m;
                        let opinion = test(merged);
                        (
                            AtomState::Remainder {
                                value: Some(merged),
                                opinion,
                            },
                            AtomState::Remainder {
                                value: None,
                                opinion,
                            },
                        )
                    }
                    (Some(u), None) => {
                        let opinion = test(*u);
                        (
                            AtomState::Remainder {
                                value: Some(*u),
                                opinion,
                            },
                            AtomState::Remainder {
                                value: None,
                                opinion,
                            },
                        )
                    }
                    (None, Some(v)) => {
                        let opinion = test(*v);
                        (
                            AtomState::Remainder {
                                value: None,
                                opinion,
                            },
                            AtomState::Remainder {
                                value: Some(*v),
                                opinion,
                            },
                        )
                    }
                    (None, None) => (
                        s.clone(),
                        AtomState::Remainder {
                            value: None,
                            opinion: *ro,
                        },
                    ),
                }
            }
            // Mixed slots cannot arise: encode() builds slots per atom.
            _ => (s.clone(), r.clone()),
        }
    }

    fn opinions(&self, q: &[AtomState]) -> Vec<bool> {
        q.iter()
            .map(|slot| match slot {
                AtomState::Threshold { detected, .. } => *detected,
                AtomState::Remainder { opinion, .. } => *opinion,
            })
            .collect()
    }
}

impl TwoWayProtocol for SemilinearProtocol {
    type State = Vec<AtomState>;

    fn delta(&self, s: &Self::State, r: &Self::State) -> (Self::State, Self::State) {
        debug_assert_eq!(s.len(), self.atoms.len());
        debug_assert_eq!(r.len(), self.atoms.len());
        let mut s2 = Vec::with_capacity(s.len());
        let mut r2 = Vec::with_capacity(r.len());
        for ((atom, sl), rl) in self.atoms.iter().zip(s).zip(r) {
            let (a, b) = self.atom_delta(atom, sl, rl);
            s2.push(a);
            r2.push(b);
        }
        (s2, r2)
    }
}

impl Semantics for SemilinearProtocol {
    /// Input symbol index, `< arity`.
    type Input = usize;
    type Output = bool;

    /// # Panics
    ///
    /// Panics if `input >= arity`.
    fn encode(&self, input: &usize) -> Vec<AtomState> {
        assert!(*input < self.arity, "input symbol out of range");
        self.atoms
            .iter()
            .map(|atom| match atom {
                Atom::Threshold { coeffs, threshold } => {
                    let c = coeffs[*input];
                    AtomState::Threshold {
                        value: c.min(*threshold),
                        detected: c >= *threshold,
                    }
                }
                Atom::Remainder {
                    coeffs,
                    modulus,
                    residue,
                } => {
                    let v = coeffs[*input] % modulus;
                    AtomState::Remainder {
                        value: Some(v),
                        opinion: v == *residue,
                    }
                }
            })
            .collect()
    }

    fn output(&self, q: &Vec<AtomState>) -> bool {
        self.expr.eval(&self.opinions(q))
    }

    fn expected(&self, inputs: &[usize]) -> bool {
        let mut counts = vec![0u64; self.arity];
        for &i in inputs {
            counts[i] += 1;
        }
        let truths: Vec<bool> = self.atoms.iter().map(|a| a.ground_truth(&counts)).collect();
        self.expr.eval(&truths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_engine::{Batched, Stop, TwoWayModel, TwoWayRunner};
    use ppfts_population::unanimous_output;

    fn run_to_expected(p: &SemilinearProtocol, inputs: &[usize], seed: u64) -> bool {
        let expected = p.expected(inputs);
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, p.clone())
            .config(p.initial_configuration(inputs))
            .seed(seed)
            .build()
            .unwrap();
        runner
            .run(
                Batched(1),
                Stop::until(2_000_000, |c| {
                    unanimous_output(c, |q| p.output(q)) == Some(expected)
                }),
            )
            .unwrap()
            .is_satisfied()
    }

    fn at_least(coeffs: Vec<u32>, k: u32) -> Atom {
        Atom::Threshold {
            coeffs,
            threshold: k,
        }
    }

    fn modulo(coeffs: Vec<u32>, m: u32, r: u32) -> Atom {
        Atom::Remainder {
            coeffs,
            modulus: m,
            residue: r,
        }
    }

    #[test]
    fn single_threshold_atom_is_flock() {
        let p =
            SemilinearProtocol::new(vec![at_least(vec![0, 1], 3)], PredicateExpr::atom(0)).unwrap();
        assert!(p.expected(&[1, 1, 1, 0]));
        assert!(!p.expected(&[1, 1, 0, 0]));
        assert!(run_to_expected(&p, &[1, 1, 1, 0], 1));
        assert!(run_to_expected(&p, &[1, 1, 0, 0], 2));
    }

    #[test]
    fn conjunction_of_threshold_and_remainder() {
        // "≥ 2 marked AND total weight ≡ 0 (mod 3)", weights: plain 1, marked 2.
        let p = SemilinearProtocol::new(
            vec![at_least(vec![0, 1], 2), modulo(vec![1, 2], 3, 0)],
            PredicateExpr::atom(0).and(PredicateExpr::atom(1)),
        )
        .unwrap();
        // 2 marked + 2 plain: weight 6 ≡ 0 ✓, marked 2 ≥ 2 ✓.
        assert!(p.expected(&[1, 1, 0, 0]));
        assert!(run_to_expected(&p, &[1, 1, 0, 0], 3));
        // 2 marked + 1 plain: weight 5 ≢ 0.
        assert!(!p.expected(&[1, 1, 0]));
        assert!(run_to_expected(&p, &[1, 1, 0], 4));
    }

    #[test]
    fn negation_and_disjunction() {
        // "NOT(≥ 3 a's) OR (count ≡ 1 mod 2)"
        let p = SemilinearProtocol::new(
            vec![at_least(vec![1, 0], 3), modulo(vec![1, 1], 2, 1)],
            PredicateExpr::atom(0).not().or(PredicateExpr::atom(1)),
        )
        .unwrap();
        // 3 a's, total 4 (even): first disjunct false, second false → false.
        assert!(!p.expected(&[0, 0, 0, 1]));
        // 3 a's, total 5 (odd): second true → true.
        assert!(p.expected(&[0, 0, 0, 1, 1]));
        assert!(run_to_expected(&p, &[0, 0, 0, 1], 5));
        assert!(run_to_expected(&p, &[0, 0, 0, 1, 1], 6));
    }

    #[test]
    fn constant_expressions_need_no_atoms() {
        let p = SemilinearProtocol::new(vec![], PredicateExpr::Const(true)).unwrap();
        assert!(p.expected(&[]));
        assert_eq!(p.arity, 0);
    }

    #[test]
    fn heavy_initial_weights_detect_immediately() {
        // One agent alone can exceed the threshold via its coefficient.
        let p =
            SemilinearProtocol::new(vec![at_least(vec![5], 3)], PredicateExpr::atom(0)).unwrap();
        let q = p.encode(&0);
        assert!(p.output(&q));
    }

    #[test]
    fn construction_errors_are_reported() {
        assert_eq!(
            SemilinearProtocol::new(vec![], PredicateExpr::atom(0)).unwrap_err(),
            SemilinearError::AtomIndexOutOfRange { index: 0, atoms: 0 }
        );
        assert_eq!(
            SemilinearProtocol::new(
                vec![at_least(vec![1], 1), at_least(vec![1, 2], 1)],
                PredicateExpr::Const(true),
            )
            .unwrap_err(),
            SemilinearError::ArityMismatch
        );
        assert_eq!(
            SemilinearProtocol::new(vec![at_least(vec![1], 0)], PredicateExpr::Const(true))
                .unwrap_err(),
            SemilinearError::DegenerateAtom { index: 0 }
        );
        assert_eq!(
            SemilinearProtocol::new(vec![modulo(vec![1], 2, 2)], PredicateExpr::Const(true))
                .unwrap_err(),
            SemilinearError::DegenerateAtom { index: 0 }
        );
    }

    #[test]
    fn randomized_against_oracle() {
        // A fixed moderately complex predicate over 3 symbols, checked on
        // a grid of small populations.
        let p = SemilinearProtocol::new(
            vec![at_least(vec![1, 0, 2], 4), modulo(vec![0, 1, 1], 2, 0)],
            PredicateExpr::atom(0).or(PredicateExpr::atom(1).not()),
        )
        .unwrap();
        let mut seed = 100;
        for a in 0..3usize {
            for b in 0..3usize {
                for c in 0..2usize {
                    let mut inputs = Vec::new();
                    inputs.extend(std::iter::repeat_n(0, a));
                    inputs.extend(std::iter::repeat_n(1, b));
                    inputs.extend(std::iter::repeat_n(2, c));
                    if inputs.len() < 2 {
                        continue;
                    }
                    seed += 1;
                    assert!(
                        run_to_expected(&p, &inputs, seed),
                        "inputs {inputs:?} did not stabilize to oracle value"
                    );
                }
            }
        }
    }
}
