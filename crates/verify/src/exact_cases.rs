//! Exact-exploration cases for the protocols this crate audits: Pairing
//! liveness and safety, SID simulating Pairing, epidemic, leader election,
//! and the node cap, decided by `ppfts-analyze`'s explorer.

mod tests {
    use ppfts_analyze::{check, ExploreError};
    use ppfts_core::{Sid, SidState, SimulatorState};
    use ppfts_engine::{OneWayModel, TwoWayModel};
    use ppfts_population::Multiset;
    use ppfts_protocols::{Epidemic, LeaderElection, LeaderState, Pairing, PairingState};

    /// Agents of `c` in state `q`.
    fn count<Q: PartialEq>(c: &[Q], q: &Q) -> usize {
        c.iter().filter(|s| *s == q).count()
    }

    #[test]
    fn epidemic_always_stabilizes_to_or() {
        let c0 = [true, false, false, false];
        let infected = check(TwoWayModel::Tw, &Epidemic, &c0, 0, 1000, |c| {
            count(c, &true) == 4
        })
        .unwrap();
        assert!(infected.verdict.is_proved());

        let all_false = [false, false, false];
        let check = check(TwoWayModel::Tw, &Epidemic, &all_false, 0, 1000, |c| {
            count(c, &false) == 3
        })
        .unwrap();
        assert!(check.verdict.is_proved());
    }

    #[test]
    fn pairing_liveness_and_safety_proved_for_small_n() {
        for (c, p) in [(2usize, 2usize), (3, 1), (1, 3), (2, 3)] {
            let expected = c.min(p);
            let paired = |m: &[PairingState]| count(m, &PairingState::Paired);
            let check = check(
                TwoWayModel::Tw,
                &Pairing,
                Pairing::initial(c, p).as_slice(),
                0,
                100_000,
                |m| paired(m) == expected,
            )
            .unwrap();
            assert!(check.verdict.is_proved(), "{c} consumers / {p} producers");
            assert!(check.invariant(|m| paired(m) <= p));
        }
    }

    #[test]
    fn leader_election_terminal_components_have_one_leader() {
        let check = check(
            TwoWayModel::Tw,
            &LeaderElection,
            LeaderElection::initial(4).as_slice(),
            0,
            1000,
            |m| count(m, &LeaderState::Leader) == 1,
        )
        .unwrap();
        assert!(check.verdict.is_proved());
        // 4 reachable multisets: 4, 3, 2, 1 leaders. Only the last has one
        // leader, so the proof leaves it the single terminal component.
        assert_eq!(check.configs, 4);
        use LeaderState::{Follower, Leader};
        let elected: Multiset<_> = [Leader, Follower, Follower, Follower].into_iter().collect();
        assert!(check.is_reachable(&elected));
    }

    #[test]
    fn sid_simulation_of_pairing_proved_for_two_agents() {
        // Exact GF verification of SID on a 2-agent system: every terminal
        // SCC has the simulated pair transitioned.
        let c0 = Sid::<Pairing>::initial(&[PairingState::Consumer, PairingState::Producer]);
        let check = check(
            OneWayModel::Io,
            &Sid::new(Pairing),
            c0.as_slice(),
            0,
            100_000,
            |m: &[SidState<PairingState>]| {
                let simulated = |q| m.iter().filter(|s| *s.simulated() == q).count();
                simulated(PairingState::Paired) == 1 && simulated(PairingState::Spent) == 1
            },
        )
        .unwrap();
        assert!(check.verdict.is_proved());
    }

    #[test]
    fn config_cap_is_enforced() {
        let err = check(
            TwoWayModel::Tw,
            &Pairing,
            Pairing::initial(3, 3).as_slice(),
            0,
            2, // absurdly small
            |_| true,
        )
        .unwrap_err();
        assert_eq!(err, ExploreError::TooManyNodes { limit: 2 });
    }

    #[test]
    fn graph_statistics_are_consistent() {
        let check = check(TwoWayModel::Tw, &Epidemic, &[true, false], 0, 100, |_| true).unwrap();
        // {T,F} → {T,T}: two canonical configs, over two states.
        assert_eq!(check.configs, 2);
        assert_eq!(check.nodes, 2);
        let states: Multiset<bool> = check.reachable().flatten().collect();
        assert_eq!(states.distinct(), 2);
        assert!(check.is_reachable(&[true, true].into_iter().collect()));
    }
}
