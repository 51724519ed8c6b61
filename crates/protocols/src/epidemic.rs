//! One-bit epidemic: the logical OR of the inputs.

use ppfts_population::{EnumerableStates, Semantics, TwoWayProtocol};

/// One-bit epidemic (logical OR).
///
/// An infected agent (state `true`) infects anyone it meets, in either
/// role:
///
/// ```text
/// (true, false) ↦ (true, true)       (false, true) ↦ (true, true)
/// ```
///
/// The population stably computes "is any input `true`?" — the simplest
/// non-trivial stable predicate, used throughout this workspace as the
/// smoke-test payload for simulators.
///
/// # Example
///
/// ```
/// use ppfts_population::{Semantics, TwoWayProtocol};
/// use ppfts_protocols::Epidemic;
///
/// assert_eq!(Epidemic.delta(&true, &false), (true, true));
/// assert_eq!(Epidemic.delta(&false, &false), (false, false));
/// assert!(Epidemic.expected(&[false, true, false]));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Epidemic;

impl TwoWayProtocol for Epidemic {
    type State = bool;

    fn delta(&self, s: &bool, r: &bool) -> (bool, bool) {
        let infected = *s || *r;
        (infected, infected)
    }
}

impl Semantics for Epidemic {
    type Input = bool;
    type Output = bool;

    fn encode(&self, input: &bool) -> bool {
        *input
    }

    fn output(&self, q: &bool) -> bool {
        *q
    }

    fn expected(&self, inputs: &[bool]) -> bool {
        inputs.iter().any(|b| *b)
    }
}

impl EnumerableStates for Epidemic {
    type State = bool;
    fn states(&self) -> Vec<bool> {
        vec![false, true]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_engine::{Batched, Stop, TwoWayModel, TwoWayRunner};
    use ppfts_population::unanimous_output;

    #[test]
    fn infection_is_symmetric() {
        assert!(Epidemic.is_symmetric_on(&true, &false));
        assert_eq!(Epidemic.delta(&false, &true), (true, true));
    }

    #[test]
    fn stably_computes_or_under_tw() {
        for inputs in [
            vec![false, false, false],
            vec![true, false, false, false, false],
            vec![true, true],
        ] {
            let expected = Epidemic.expected(&inputs);
            let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
                .config(Epidemic.initial_configuration(&inputs))
                .seed(17)
                .build()
                .unwrap();
            let out = runner
                .run(
                    Batched(1),
                    Stop::until(50_000, |c| {
                        unanimous_output(c, |q| Epidemic.output(q)) == Some(expected)
                    }),
                )
                .unwrap();
            assert!(out.is_satisfied(), "inputs {inputs:?}");
        }
    }

    #[test]
    fn all_false_is_already_stable() {
        let c = Epidemic.initial_configuration(&[false, false]);
        assert_eq!(unanimous_output(&c, |q| Epidemic.output(q)), Some(false));
    }

    #[test]
    fn table_port_runs_on_the_count_backend() {
        use ppfts_engine::StatsOnly;
        use ppfts_population::{CountConfiguration, TableProtocol};
        let table = TableProtocol::from_protocol(&Epidemic);
        for s in [false, true] {
            for r in [false, true] {
                assert_eq!(table.delta(&s, &r), Epidemic.delta(&s, &r));
            }
        }
        let n = 500;
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, table)
            .population(CountConfiguration::from_groups([(true, 1), (false, n - 1)]))
            .seed(9)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(256),
                Stop::until(2_000_000, |c: &CountConfiguration<bool>| {
                    c.count_state(&true) == n
                }),
            )
            .unwrap();
        assert!(out.is_satisfied());
    }
}
