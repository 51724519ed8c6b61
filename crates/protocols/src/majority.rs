//! Majority protocols: 3-state approximate and 4-state exact.

use ppfts_population::{EnumerableStates, Semantics, TwoWayProtocol};

/// The two input opinions of a majority vote.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MajorityOpinion {
    /// Opinion "X".
    X,
    /// Opinion "Y".
    Y,
}

/// States of [`ApproximateMajority`]: the two opinions plus *blank*.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MajorityState {
    /// Committed to opinion X.
    X,
    /// Committed to opinion Y.
    Y,
    /// Blank: converted by whichever opinion it meets.
    Blank,
}

/// The 3-state approximate-majority protocol
/// (Angluin–Aspnes–Eisenstat, "A simple population protocol for fast
/// robust approximate majority").
///
/// ```text
/// (X, Y) ↦ (X, Blank)     (Y, X) ↦ (Y, Blank)
/// (X, Blank) ↦ (X, X)     (Y, Blank) ↦ (Y, Y)
/// ```
///
/// With high probability the population converges to the initial majority
/// opinion; with a large initial margin the failure probability is
/// exponentially small, which is why the oracle
/// [`Semantics::expected`] is only meaningful for clear majorities (our
/// harnesses use margins ≥ 3 so the statistical tests are stable).
///
/// # Example
///
/// ```
/// use ppfts_population::TwoWayProtocol;
/// use ppfts_protocols::{ApproximateMajority, MajorityState::*};
///
/// assert_eq!(ApproximateMajority.delta(&X, &Y), (X, Blank));
/// assert_eq!(ApproximateMajority.delta(&X, &Blank), (X, X));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApproximateMajority;

impl TwoWayProtocol for ApproximateMajority {
    type State = MajorityState;

    fn delta(&self, s: &MajorityState, r: &MajorityState) -> (MajorityState, MajorityState) {
        use MajorityState::*;
        match (s, r) {
            (X, Y) => (X, Blank),
            (Y, X) => (Y, Blank),
            (X, Blank) => (X, X),
            (Y, Blank) => (Y, Y),
            _ => (*s, *r),
        }
    }
}

impl Semantics for ApproximateMajority {
    type Input = MajorityOpinion;
    type Output = MajorityOpinion;

    fn encode(&self, input: &MajorityOpinion) -> MajorityState {
        match input {
            MajorityOpinion::X => MajorityState::X,
            MajorityOpinion::Y => MajorityState::Y,
        }
    }

    fn output(&self, q: &MajorityState) -> MajorityOpinion {
        match q {
            MajorityState::X | MajorityState::Blank => MajorityOpinion::X,
            MajorityState::Y => MajorityOpinion::Y,
        }
    }

    fn expected(&self, inputs: &[MajorityOpinion]) -> MajorityOpinion {
        let x = inputs.iter().filter(|o| **o == MajorityOpinion::X).count();
        if 2 * x >= inputs.len() {
            MajorityOpinion::X
        } else {
            MajorityOpinion::Y
        }
    }
}

impl EnumerableStates for ApproximateMajority {
    type State = MajorityState;
    fn states(&self) -> Vec<MajorityState> {
        vec![MajorityState::X, MajorityState::Y, MajorityState::Blank]
    }
}

/// States of [`ExactMajority`]: strong and weak versions of each opinion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExactMajorityState {
    /// Strong X (carries one unit of X's margin).
    StrongX,
    /// Strong Y (carries one unit of Y's margin).
    StrongY,
    /// Weak x (opinion only, no margin).
    WeakX,
    /// Weak y (opinion only, no margin).
    WeakY,
}

/// The 4-state exact-majority protocol (cancellation + conversion).
///
/// ```text
/// (SX, SY) ↦ (wx, wy)   — opposite strongs cancel
/// (SX, wy) ↦ (SX, wx)   — a strong converts opposite weaks
/// (SY, wx) ↦ (SY, wy)
/// ```
///
/// (and symmetrically). Strong agents carry the vote margin: cancellation
/// conserves `#SX − #SY`, so the surviving strong opinion is the true
/// majority and converts every weak agent. This computes majority
/// *exactly* for any non-tied input under global fairness; on a tie all
/// agents end weak and the output never stabilizes, so
/// [`Semantics::expected`] panics on ties to keep harnesses honest.
///
/// # Example
///
/// ```
/// use ppfts_population::TwoWayProtocol;
/// use ppfts_protocols::ExactMajority;
/// use ppfts_protocols::majority_states::*;
///
/// assert_eq!(ExactMajority.delta(&SX, &SY), (WX, WY));
/// assert_eq!(ExactMajority.delta(&SX, &WY), (SX, WX));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactMajority;

/// Shorthand constants for [`ExactMajorityState`] used in docs and tests.
pub mod majority_states {
    pub use super::ExactMajorityState;
    /// Strong X.
    pub const SX: ExactMajorityState = ExactMajorityState::StrongX;
    /// Strong Y.
    pub const SY: ExactMajorityState = ExactMajorityState::StrongY;
    /// Weak x.
    pub const WX: ExactMajorityState = ExactMajorityState::WeakX;
    /// Weak y.
    pub const WY: ExactMajorityState = ExactMajorityState::WeakY;
}

impl TwoWayProtocol for ExactMajority {
    type State = ExactMajorityState;

    fn delta(
        &self,
        s: &ExactMajorityState,
        r: &ExactMajorityState,
    ) -> (ExactMajorityState, ExactMajorityState) {
        use ExactMajorityState::*;
        match (s, r) {
            // Cancellation (symmetric).
            (StrongX, StrongY) => (WeakX, WeakY),
            (StrongY, StrongX) => (WeakY, WeakX),
            // Conversion of opposite weaks (either role).
            (StrongX, WeakY) => (StrongX, WeakX),
            (WeakY, StrongX) => (WeakX, StrongX),
            (StrongY, WeakX) => (StrongY, WeakY),
            (WeakX, StrongY) => (WeakY, StrongY),
            _ => (*s, *r),
        }
    }
}

impl Semantics for ExactMajority {
    type Input = MajorityOpinion;
    type Output = MajorityOpinion;

    fn encode(&self, input: &MajorityOpinion) -> ExactMajorityState {
        match input {
            MajorityOpinion::X => ExactMajorityState::StrongX,
            MajorityOpinion::Y => ExactMajorityState::StrongY,
        }
    }

    fn output(&self, q: &ExactMajorityState) -> MajorityOpinion {
        match q {
            ExactMajorityState::StrongX | ExactMajorityState::WeakX => MajorityOpinion::X,
            ExactMajorityState::StrongY | ExactMajorityState::WeakY => MajorityOpinion::Y,
        }
    }

    /// # Panics
    ///
    /// Panics on a tied input: the 4-state protocol does not decide ties.
    fn expected(&self, inputs: &[MajorityOpinion]) -> MajorityOpinion {
        let x = inputs.iter().filter(|o| **o == MajorityOpinion::X).count();
        let y = inputs.len() - x;
        assert_ne!(x, y, "exact majority is undefined on ties");
        if x > y {
            MajorityOpinion::X
        } else {
            MajorityOpinion::Y
        }
    }
}

impl EnumerableStates for ExactMajority {
    type State = ExactMajorityState;
    fn states(&self) -> Vec<ExactMajorityState> {
        vec![
            ExactMajorityState::StrongX,
            ExactMajorityState::StrongY,
            ExactMajorityState::WeakX,
            ExactMajorityState::WeakY,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::majority_states::*;
    use super::*;
    use ppfts_engine::{Batched, Stop, TwoWayModel, TwoWayRunner};
    use ppfts_population::{unanimous_output, Configuration};

    #[test]
    fn approximate_rules_match_literature() {
        use MajorityState::*;
        assert_eq!(ApproximateMajority.delta(&X, &Y), (X, Blank));
        assert_eq!(ApproximateMajority.delta(&Y, &X), (Y, Blank));
        assert_eq!(ApproximateMajority.delta(&Blank, &X), (Blank, X));
        assert_eq!(ApproximateMajority.delta(&Blank, &Blank), (Blank, Blank));
    }

    #[test]
    fn approximate_majority_converges_with_margin() {
        // 7 X vs 2 Y: margin large enough that failures are vanishingly
        // rare at this seed count.
        let inputs: Vec<MajorityOpinion> = std::iter::repeat_n(MajorityOpinion::X, 7)
            .chain(std::iter::repeat_n(MajorityOpinion::Y, 2))
            .collect();
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, ApproximateMajority)
            .config(ApproximateMajority.initial_configuration(&inputs))
            .seed(5)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(1),
                Stop::until(200_000, |c: &Configuration<_>| {
                    c.as_slice().iter().all(|q| *q == MajorityState::X)
                }),
            )
            .unwrap();
        assert!(out.is_satisfied());
    }

    #[test]
    fn exact_cancellation_conserves_margin() {
        // #SX − #SY is invariant under every rule.
        let margin = |states: &[ExactMajorityState]| {
            states.iter().filter(|q| **q == SX).count() as i64
                - states.iter().filter(|q| **q == SY).count() as i64
        };
        for s in ExactMajority.states() {
            for r in ExactMajority.states() {
                let (s2, r2) = ExactMajority.delta(&s, &r);
                assert_eq!(
                    margin(&[s, r]),
                    margin(&[s2, r2]),
                    "rule ({s:?}, {r:?}) must conserve the margin"
                );
            }
        }
    }

    #[test]
    fn exact_majority_decides_correctly() {
        for (x, y) in [(3, 2), (2, 5), (6, 1)] {
            let inputs: Vec<MajorityOpinion> = std::iter::repeat_n(MajorityOpinion::X, x)
                .chain(std::iter::repeat_n(MajorityOpinion::Y, y))
                .collect();
            let expected = ExactMajority.expected(&inputs);
            let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, ExactMajority)
                .config(ExactMajority.initial_configuration(&inputs))
                .seed(100 + x as u64 * 10 + y as u64)
                .build()
                .unwrap();
            let out = runner
                .run(
                    Batched(1),
                    Stop::until(500_000, |c| {
                        unanimous_output(c, |q| ExactMajority.output(q)) == Some(expected)
                    }),
                )
                .unwrap();
            assert!(out.is_satisfied(), "{x} X vs {y} Y");
        }
    }

    #[test]
    #[should_panic(expected = "ties")]
    fn exact_majority_rejects_ties() {
        let _ = ExactMajority.expected(&[MajorityOpinion::X, MajorityOpinion::Y]);
    }

    #[test]
    fn outputs_partition_states() {
        assert_eq!(ExactMajority.output(&SX), MajorityOpinion::X);
        assert_eq!(ExactMajority.output(&WX), MajorityOpinion::X);
        assert_eq!(ExactMajority.output(&SY), MajorityOpinion::Y);
        assert_eq!(ExactMajority.output(&WY), MajorityOpinion::Y);
    }

    #[test]
    fn approximate_table_port_runs_on_the_count_backend() {
        use ppfts_engine::convergence::stably;
        use ppfts_engine::StatsOnly;
        use ppfts_population::{CountConfiguration, TableProtocol};
        let table = TableProtocol::from_protocol(&ApproximateMajority);
        for s in ApproximateMajority.states() {
            for r in ApproximateMajority.states() {
                assert_eq!(table.delta(&s, &r), ApproximateMajority.delta(&s, &r));
            }
        }
        // 2:1 margin at n = 300: the minority dies out w.h.p.
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, table)
            .population(CountConfiguration::from_groups([
                (MajorityState::X, 200),
                (MajorityState::Y, 100),
            ]))
            .seed(3)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(256),
                Stop::until(
                    5_000_000,
                    stably(
                        |c: &CountConfiguration<MajorityState>| {
                            c.count_state(&MajorityState::X) == 300
                        },
                        2,
                    ),
                ),
            )
            .unwrap();
        assert!(out.is_satisfied());
    }

    #[test]
    fn exact_table_port_runs_on_the_count_backend() {
        use ppfts_engine::convergence::stably;
        use ppfts_engine::StatsOnly;
        use ppfts_population::{unanimous_output_counts, CountConfiguration, TableProtocol};
        let table = TableProtocol::from_protocol(&ExactMajority);
        for s in ExactMajority.states() {
            for r in ExactMajority.states() {
                assert_eq!(table.delta(&s, &r), ExactMajority.delta(&s, &r));
            }
        }
        // 26 X vs 24 Y: exact majority must decide X despite the margin
        // of only 2.
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, table)
            .population(CountConfiguration::from_groups([(SX, 26), (SY, 24)]))
            .seed(11)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(512),
                Stop::until(
                    20_000_000,
                    stably(
                        |c: &CountConfiguration<ExactMajorityState>| {
                            unanimous_output_counts(&c.counts(), |q| ExactMajority.output(q))
                                == Some(MajorityOpinion::X)
                        },
                        2,
                    ),
                ),
            )
            .unwrap();
        assert!(out.is_satisfied());
    }
}
