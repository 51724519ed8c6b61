//! Running one-way simulators inside two-way models via `EmbedOneWay` —
//! the executable form of Figure 1's `IT → TW` inclusion.

use ppfts::core::{project, Sid, Skno};
use ppfts::engine::{
    Batched, BoundedStrategy, EmbedOneWay, RunOutcome, SidePolicy, Stop, TwoWayFault, TwoWayModel,
    TwoWayRunner,
};
use ppfts::protocols::{Pairing, PairingState};

fn sims(c: usize, p: usize) -> Vec<PairingState> {
    Pairing::initial(c, p).as_slice().to_vec()
}

#[test]
fn skno_embedded_in_t3_survives_reactor_side_omissions() {
    // Reactor-side T3 omissions are exactly I3 omissions for an embedded
    // one-way program, so SKnO's guarantee carries over verbatim.
    let o = 2;
    let mut runner =
        TwoWayRunner::builder(TwoWayModel::T3, EmbedOneWay::new(Skno::new(Pairing, o)))
            .config(Skno::<Pairing>::initial(&sims(2, 2)))
            .adversary(BoundedStrategy::new(0.03, o as u64))
            .side_policy(SidePolicy::Always(TwoWayFault::Reactor))
            .seed(3)
            .build()
            .unwrap();
    let out = runner
        .run(
            Batched(1),
            Stop::until(2_000_000, |c| {
                project(c).count_state(&PairingState::Paired) == 2
            }),
        )
        .unwrap();
    assert!(out.is_satisfied());
    assert!(project(runner.config()).count_state(&PairingState::Paired) <= 2);
}

#[test]
fn skno_embedded_budget_must_cover_double_minting_for_both_sides() {
    // A both-sides T3 omission fires *both* detection hooks, minting two
    // jokers; with the budget doubled accordingly the embedded simulator
    // still converges.
    let o = 2u32;
    let adversary_budget = 1u64; // 1 both-sides omission = 2 jokers ≤ o
    let mut runner =
        TwoWayRunner::builder(TwoWayModel::T3, EmbedOneWay::new(Skno::new(Pairing, o)))
            .config(Skno::<Pairing>::initial(&sims(2, 2)))
            .adversary(BoundedStrategy::new(0.03, adversary_budget))
            .side_policy(SidePolicy::Always(TwoWayFault::Both))
            .seed(4)
            .build()
            .unwrap();
    let out = runner
        .run(
            Batched(1),
            Stop::until(2_000_000, |c| {
                project(c).count_state(&PairingState::Paired) == 2
            }),
        )
        .unwrap();
    assert!(out.is_satisfied());
}

#[test]
fn sid_embedded_in_fault_free_tw_works() {
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, EmbedOneWay::new(Sid::new(Pairing)))
        .config(Sid::<Pairing>::initial(&sims(3, 2)))
        .seed(5)
        .build()
        .unwrap();
    let out = runner
        .run(
            Batched(1),
            Stop::until(2_000_000, |c| {
                project(c).count_state(&PairingState::Paired) == 2
            }),
        )
        .unwrap();
    assert!(out.is_satisfied());
}

#[test]
fn embedded_and_native_runs_coincide_without_faults() {
    use ppfts::engine::{OneWayModel, OneWayRunner};
    let c0 = Skno::<Pairing>::initial(&sims(2, 2));
    let mut two = TwoWayRunner::builder(TwoWayModel::Tw, EmbedOneWay::new(Skno::new(Pairing, 1)))
        .config(c0.clone())
        .seed(77)
        .build()
        .unwrap();
    let mut one = OneWayRunner::builder(OneWayModel::It, Skno::new(Pairing, 1))
        .config(c0)
        .seed(77)
        .build()
        .unwrap();
    two.run(Batched(1), Stop::steps(500)).unwrap();
    one.run(Batched(1), Stop::steps(500)).unwrap();
    assert_eq!(
        project(two.config()).as_slice(),
        project(one.config()).as_slice(),
        "same seed, same trajectory: the embedding is exact when fault-free"
    );
}

#[test]
fn stability_detection_works_on_two_way_runners() {
    // Note: SID itself never goes quiet (it keeps handshaking identity
    // transitions forever), so observed stability needs a program whose
    // *simulator states* stabilize — a plain one-way gossip embedded in
    // TW does.
    use ppfts::engine::OneWayProgram;
    struct Gossip;
    impl OneWayProgram for Gossip {
        type State = u32;
        fn on_receive(&self, s: &u32, r: &u32) -> u32 {
            (*s).max(*r)
        }
    }
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, EmbedOneWay::new(Gossip))
        .config(ppfts::population::Configuration::new(vec![7u32, 3, 5]))
        .seed(6)
        .build()
        .unwrap();
    let out = runner.run(Batched(1), Stop::quiet(500_000, 500)).unwrap();
    // Pinned: the step at which the per-step quiet window closes.
    assert_eq!(out, RunOutcome::Satisfied { steps: 508 });
    assert!(runner.config().as_slice().iter().all(|&v| v == 7));
}

#[test]
fn sid_simulators_are_never_silent_by_design() {
    // The flip side, documented as a test: SID keeps cycling its
    // handshake even after the simulated protocol stabilized, so observed
    // stability must be judged on the *projection*, not the raw states.
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, EmbedOneWay::new(Sid::new(Pairing)))
        .config(Sid::<Pairing>::initial(&sims(1, 1)))
        .seed(6)
        .build()
        .unwrap();
    let out = runner.run(Batched(1), Stop::quiet(20_000, 500)).unwrap();
    assert_eq!(
        out,
        RunOutcome::Exhausted { steps: 20_000 },
        "SID handshakes forever"
    );
    assert_eq!(runner.stats().changed_steps, 14_974, "pinned");
    // Yet the simulated protocol has long stabilized.
    assert_eq!(
        project(runner.config()).count_state(&PairingState::Paired),
        1
    );
}
