//! Classic leader election.

use ppfts_population::{Configuration, CountConfiguration, EnumerableStates, TwoWayProtocol};

/// State of a [`LeaderElection`] agent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LeaderState {
    /// Still a leader candidate.
    Leader,
    /// Demoted to follower.
    Follower,
}

/// The classic one-rule leader-election protocol.
///
/// ```text
/// (L, L) ↦ (L, F)
/// ```
///
/// Starting from all-`Leader`, the number of leaders decreases by one each
/// time two leaders meet, and never increases; under global fairness it
/// stabilizes at exactly one. The specification is the configuration
/// predicate "exactly one `Leader` remains", not a consensus output —
/// which is why this protocol exercises a different corner of the
/// simulation checkers than the predicate protocols.
///
/// # Example
///
/// ```
/// use ppfts_population::TwoWayProtocol;
/// use ppfts_protocols::{LeaderElection, LeaderState::*};
///
/// assert_eq!(LeaderElection.delta(&Leader, &Leader), (Leader, Follower));
/// assert_eq!(LeaderElection.delta(&Leader, &Follower), (Leader, Follower));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeaderElection;

impl LeaderElection {
    /// The all-candidates initial configuration for `n` agents.
    pub fn initial(n: usize) -> Configuration<LeaderState> {
        Configuration::uniform(LeaderState::Leader, n)
    }

    /// The all-candidates initial population for `n` agents, count-backed
    /// — O(1) memory however large the flock.
    pub fn initial_counts(n: usize) -> CountConfiguration<LeaderState> {
        CountConfiguration::uniform(LeaderState::Leader, n)
    }
}

impl TwoWayProtocol for LeaderElection {
    type State = LeaderState;

    fn delta(&self, s: &LeaderState, r: &LeaderState) -> (LeaderState, LeaderState) {
        use LeaderState::*;
        match (s, r) {
            (Leader, Leader) => (Leader, Follower),
            _ => (*s, *r),
        }
    }
}

impl EnumerableStates for LeaderElection {
    type State = LeaderState;
    fn states(&self) -> Vec<LeaderState> {
        vec![LeaderState::Leader, LeaderState::Follower]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_engine::{Batched, Stop, TwoWayModel, TwoWayRunner};

    fn leader_count(config: &Configuration<LeaderState>) -> usize {
        config.count_state(&LeaderState::Leader)
    }

    fn is_elected(config: &Configuration<LeaderState>) -> bool {
        leader_count(config) == 1
    }

    #[test]
    fn followers_never_return() {
        use LeaderState::*;
        for r in [Leader, Follower] {
            assert_eq!(LeaderElection.delta(&Follower, &r).0, Follower);
            assert_eq!(LeaderElection.delta(&r, &Follower).1, Follower);
        }
    }

    #[test]
    fn leader_count_is_monotonically_decreasing() {
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, LeaderElection)
            .config(LeaderElection::initial(8))
            .seed(2)
            .build()
            .unwrap();
        let mut last = 8;
        for _ in 0..5000 {
            runner.step().unwrap();
            let now = leader_count(runner.config());
            assert!(now <= last && now >= 1);
            last = now;
        }
    }

    #[test]
    fn elects_exactly_one_leader() {
        for n in [2, 5, 16] {
            let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, LeaderElection)
                .config(LeaderElection::initial(n))
                .seed(n as u64)
                .build()
                .unwrap();
            let out = runner
                .run(Batched(1), Stop::until(100_000, is_elected))
                .unwrap();
            assert!(out.is_satisfied(), "n = {n}");
        }
    }

    #[test]
    fn table_port_runs_on_the_count_backend() {
        use ppfts_engine::convergence::stably;
        use ppfts_engine::StatsOnly;
        use ppfts_population::TableProtocol;
        let table = TableProtocol::from_protocol(&LeaderElection);
        for s in LeaderElection.states() {
            for r in LeaderElection.states() {
                assert_eq!(table.delta(&s, &r), LeaderElection.delta(&s, &r));
            }
        }
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, table)
            .population(LeaderElection::initial_counts(300))
            .seed(4)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(512),
                Stop::until(
                    10_000_000,
                    stably(
                        |c: &CountConfiguration<LeaderState>| {
                            c.count_state(&LeaderState::Leader) == 1
                        },
                        2,
                    ),
                ),
            )
            .unwrap();
        assert!(out.is_satisfied());
        assert_eq!(runner.config().count_state(&LeaderState::Follower), 299);
    }

    #[test]
    fn single_leader_is_stable() {
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, LeaderElection)
            .config(Configuration::from_groups([
                (LeaderState::Leader, 1),
                (LeaderState::Follower, 3),
            ]))
            .seed(0)
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(2000)).unwrap();
        assert!(is_elected(runner.config()));
    }
}
