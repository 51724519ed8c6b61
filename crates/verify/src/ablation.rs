//! Ablation studies of the simulators' design choices (DESIGN.md D1/D2).
//!
//! The paper's simulators contain two easy-to-underestimate mechanisms:
//! `SKnO`'s Rummy-style joker re-minting and `SID`'s rollback rule
//! (Figure 3 lines 14–16). This module removes each one and exhibits the
//! resulting failure — statistically for the Rummy ablation (a liveness
//! gap across seeds) and *exactly* for the rollback ablation (its tests
//! have `ppfts-analyze`'s explorer find a terminal component in which the
//! simulated protocol is permanently stuck).

use ppfts_core::{project, JokerBookkeeping, Skno};
use ppfts_engine::{Batched, BoundedStrategy, OneWayModel, OneWayRunner, Stop};
use ppfts_protocols::{Pairing, PairingState};

/// Result of the Rummy-bookkeeping ablation (D1): how many seeds
/// converged with the paper's scheme vs the naive one, on identical
/// schedules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RummyAblation {
    /// Seeds tested.
    pub seeds: u64,
    /// Converged with Rummy bookkeeping.
    pub rummy_converged: u64,
    /// Converged with naive bookkeeping.
    pub naive_converged: u64,
}

/// Runs the Pairing workload under identical seeds with both joker
/// bookkeeping policies and reports the convergence counts.
///
/// Expected outcome (asserted by this crate's tests): Rummy converges on
/// every seed; the naive policy loses some runs — jokers spent on tokens
/// that were merely late cannot cover later real losses.
pub fn rummy_ablation(seeds: u64, o: u32, budget: u64) -> RummyAblation {
    let sims: Vec<PairingState> = Pairing::initial(3, 3).as_slice().to_vec();
    let run = |seed: u64, bookkeeping: JokerBookkeeping| -> bool {
        let skno = Skno::with_bookkeeping(Pairing, o, bookkeeping);
        let mut runner = OneWayRunner::builder(OneWayModel::I3, skno)
            .config(Skno::<Pairing>::initial(&sims))
            .adversary(BoundedStrategy::new(0.25, o as u64))
            .seed(seed)
            .build()
            .expect("valid population");
        runner
            .run(
                Batched(1),
                Stop::until(budget, |c| {
                    project(c).count_state(&PairingState::Paired) == 3
                }),
            )
            .expect("bounded I3 omissions stay in the model's relation")
            .is_satisfied()
    };
    let mut rummy = 0;
    let mut naive = 0;
    for seed in 0..seeds {
        rummy += run(seed, JokerBookkeeping::Rummy) as u64;
        naive += run(seed, JokerBookkeeping::Naive) as u64;
    }
    RummyAblation {
        seeds,
        rummy_converged: rummy,
        naive_converged: naive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_analyze::{check, Exploration};
    use ppfts_core::{RollbackPolicy, Sid, SidState, SimulatorState};
    use ppfts_engine::OneWayFault;
    use ppfts_protocols::{LeaderElection, LeaderState};

    /// Explores `SID` (with the given rollback policy) simulating leader
    /// election from all-leaders on `n` agents, checking that every GF
    /// execution ends with exactly one simulated leader.
    fn sid_leader_check(
        n: usize,
        rollback: RollbackPolicy,
        max_nodes: usize,
    ) -> Exploration<SidState<LeaderState>, OneWayFault> {
        check(
            OneWayModel::Io,
            &Sid::with_rollback_policy(LeaderElection, rollback),
            Sid::<LeaderElection>::initial(&vec![LeaderState::Leader; n]).as_slice(),
            0,
            max_nodes,
            |m| {
                m.iter()
                    .filter(|q| *q.simulated() == LeaderState::Leader)
                    .count()
                    == 1
            },
        )
        .unwrap()
    }

    #[test]
    fn d1_naive_joker_bookkeeping_loses_runs() {
        let report = rummy_ablation(16, 2, 600_000);
        assert_eq!(
            report.rummy_converged, report.seeds,
            "the paper's scheme must converge on every seed"
        );
        assert!(
            report.naive_converged < report.seeds,
            "the naive scheme should stall on some seed (got {}/{})",
            report.naive_converged,
            report.seeds
        );
    }

    #[test]
    fn d2_rollback_is_necessary_exact() {
        // With rollback: every GF execution of the 3-agent system elects
        // exactly one leader — proved exhaustively.
        let with = sid_leader_check(3, RollbackPolicy::Enabled, 2_000_000);
        assert!(with.verdict.is_proved());

        // Without rollback: some terminal component keeps ≥ 2 leaders
        // forever (a locked leader can never interact again).
        let without = sid_leader_check(3, RollbackPolicy::Disabled, 2_000_000);
        assert!(
            !without.verdict.is_proved(),
            "removing lines 14–16 must break liveness"
        );
    }

    #[test]
    fn d2_rollback_graphs_differ_in_size() {
        let with = sid_leader_check(2, RollbackPolicy::Enabled, 500_000);
        let without = sid_leader_check(2, RollbackPolicy::Disabled, 500_000);
        // The no-rollback system has dead-end configurations the real one
        // escapes; both graphs are finite and explorable.
        assert!(with.configs > 0 && without.configs > 0);
    }
}
