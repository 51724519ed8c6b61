//! Remainder predicate: `(Σ inputs) mod m == r`.

use ppfts_population::{EnumerableStates, Semantics, TwoWayProtocol};

/// State of a [`Remainder`] agent.
///
/// Active agents carry a partial sum (mod `m`); passive agents only carry
/// an opinion they copy from actives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RemainderState {
    /// `Some(v)`: active with partial sum `v`; `None`: passive.
    pub value: Option<u32>,
    /// Current output opinion.
    pub opinion: bool,
}

/// The remainder protocol: stably computes `(Σ inputs) mod m == r`.
///
/// Mod-`m` counting is one of the two atom families of semilinear
/// predicates (the exact class computable by standard population
/// protocols), so together with [`FlockOfBirds`](crate::FlockOfBirds)
/// (threshold atoms) and [`Product`](crate::Product) (boolean combination)
/// this crate covers the full expressive power of the model.
///
/// Mechanics: every agent starts *active*, carrying its input mod `m`.
/// When two actives meet the starter absorbs the reactor's sum and the
/// reactor turns passive; actives broadcast their current opinion
/// (`value ≡ r`) to every passive (and freshly-passivated agent) they
/// meet. Under global fairness exactly one active survives, holding the
/// full sum, and its opinion floods the population.
///
/// # Example
///
/// ```
/// use ppfts_population::Semantics;
/// use ppfts_protocols::Remainder;
///
/// // Parity of the sum: m = 2, r = 1.
/// let parity = Remainder::new(2, 1);
/// assert!(!parity.expected(&[3, 4, 7, 8])); // 22 is even
/// assert!(parity.expected(&[1, 2]));        // 3 is odd
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Remainder {
    modulus: u32,
    residue: u32,
}

impl Remainder {
    /// Creates the protocol for `(Σ inputs) mod modulus == residue`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 2` or `residue >= modulus`.
    pub fn new(modulus: u32, residue: u32) -> Self {
        assert!(modulus >= 2, "modulus must be at least 2");
        assert!(residue < modulus, "residue must be below the modulus");
        Remainder { modulus, residue }
    }

    /// The modulus `m`.
    pub fn modulus(&self) -> u32 {
        self.modulus
    }

    /// The residue `r` being tested.
    pub fn residue(&self) -> u32 {
        self.residue
    }

    fn opinion_of(&self, value: u32) -> bool {
        value % self.modulus == self.residue
    }
}

impl TwoWayProtocol for Remainder {
    type State = RemainderState;

    fn delta(&self, s: &RemainderState, r: &RemainderState) -> (RemainderState, RemainderState) {
        match (s.value, r.value) {
            // Two actives: the starter absorbs, the reactor passivates.
            (Some(u), Some(v)) => {
                let merged = (u + v) % self.modulus;
                let opinion = self.opinion_of(merged);
                (
                    RemainderState {
                        value: Some(merged),
                        opinion,
                    },
                    RemainderState {
                        value: None,
                        opinion,
                    },
                )
            }
            // Active meets passive (either role): the passive copies the
            // active's current opinion.
            (Some(u), None) => {
                let opinion = self.opinion_of(u);
                (
                    RemainderState {
                        value: Some(u),
                        opinion,
                    },
                    RemainderState {
                        value: None,
                        opinion,
                    },
                )
            }
            (None, Some(v)) => {
                let opinion = self.opinion_of(v);
                (
                    RemainderState {
                        value: None,
                        opinion,
                    },
                    RemainderState {
                        value: Some(v),
                        opinion,
                    },
                )
            }
            // Two passives: nothing to learn.
            (None, None) => (*s, *r),
        }
    }
}

impl Semantics for Remainder {
    type Input = u32;
    type Output = bool;

    fn encode(&self, input: &u32) -> RemainderState {
        let v = input % self.modulus;
        RemainderState {
            value: Some(v),
            opinion: self.opinion_of(v),
        }
    }

    fn output(&self, q: &RemainderState) -> bool {
        q.opinion
    }

    fn expected(&self, inputs: &[u32]) -> bool {
        let sum: u64 = inputs.iter().map(|&v| v as u64).sum();
        (sum % self.modulus as u64) as u32 == self.residue
    }
}

impl EnumerableStates for Remainder {
    type State = RemainderState;
    fn states(&self) -> Vec<RemainderState> {
        let mut v = Vec::new();
        for opinion in [false, true] {
            v.push(RemainderState {
                value: None,
                opinion,
            });
            for value in 0..self.modulus {
                v.push(RemainderState {
                    value: Some(value),
                    opinion,
                });
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_engine::{Batched, Stop, TwoWayModel, TwoWayRunner};
    use ppfts_population::unanimous_output;

    #[test]
    fn merging_conserves_sum_mod_m() {
        let p = Remainder::new(5, 0);
        let active = |v| RemainderState {
            value: Some(v),
            opinion: false,
        };
        let total = |a: &RemainderState, b: &RemainderState| {
            (a.value.unwrap_or(0) + b.value.unwrap_or(0)) % 5
        };
        for u in 0..5 {
            for v in 0..5 {
                let (s2, r2) = p.delta(&active(u), &active(v));
                assert_eq!(total(&s2, &r2), (u + v) % 5);
            }
        }
    }

    #[test]
    fn exactly_one_active_survives() {
        let p = Remainder::new(3, 1);
        let inputs = vec![1, 1, 1, 2, 2];
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, p)
            .config(p.initial_configuration(&inputs))
            .seed(6)
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(50_000)).unwrap();
        let actives = runner
            .config()
            .as_slice()
            .iter()
            .filter(|q| q.value.is_some())
            .count();
        assert_eq!(actives, 1);
    }

    #[test]
    fn stably_computes_remainder() {
        for (m, r, inputs) in [
            (2, 1, vec![1, 1, 1]),     // 3 mod 2 == 1 → true
            (2, 0, vec![1, 1, 1]),     // false
            (3, 2, vec![4, 4]),        // 8 mod 3 == 2 → true
            (7, 3, vec![10, 0, 0, 0]), // 10 mod 7 == 3 → true
        ] {
            let p = Remainder::new(m, r);
            let expected = p.expected(&inputs);
            let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, p)
                .config(p.initial_configuration(&inputs))
                .seed(m as u64 * 100 + r as u64)
                .build()
                .unwrap();
            let out = runner
                .run(
                    Batched(1),
                    Stop::until(300_000, |c| {
                        unanimous_output(c, |q| p.output(q)) == Some(expected)
                    }),
                )
                .unwrap();
            assert!(out.is_satisfied(), "m={m} r={r} inputs={inputs:?}");
        }
    }

    #[test]
    fn encode_reduces_inputs_mod_m() {
        let p = Remainder::new(4, 1);
        assert_eq!(p.encode(&9).value, Some(1));
        assert!(p.encode(&9).opinion);
        assert_eq!(p.encode(&8).value, Some(0));
        assert!(!p.encode(&8).opinion);
    }

    #[test]
    fn state_space_size_is_2_times_m_plus_1() {
        assert_eq!(Remainder::new(3, 0).states().len(), 8); // 2·(3+1)
    }

    #[test]
    fn table_port_runs_on_the_count_backend() {
        use ppfts_engine::convergence::stably;
        use ppfts_engine::StatsOnly;
        use ppfts_population::{unanimous_output_counts, CountConfiguration, TableProtocol};
        let p = Remainder::new(3, 1);
        let table = TableProtocol::from_protocol(&p);
        for s in p.states() {
            for r in p.states() {
                assert_eq!(table.delta(&s, &r), p.delta(&s, &r));
            }
        }
        // 100 agents with input 2 each: 200 mod 3 == 2 ≠ 1 → all false.
        let inputs = vec![2u32; 100];
        let expected = p.expected(&inputs);
        assert!(!expected);
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, table)
            .population(p.initial_counts(&inputs))
            .seed(8)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(256),
                Stop::until(
                    5_000_000,
                    stably(
                        |c: &CountConfiguration<RemainderState>| {
                            unanimous_output_counts(&c.counts(), |q| p.output(q)) == Some(expected)
                        },
                        2,
                    ),
                ),
            )
            .unwrap();
        assert!(out.is_satisfied());
    }

    #[test]
    #[should_panic(expected = "modulus")]
    fn modulus_one_rejected() {
        let _ = Remainder::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "residue")]
    fn residue_must_be_reduced() {
        let _ = Remainder::new(3, 3);
    }
}
