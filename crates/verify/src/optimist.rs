//! `Optimist` — a retransmission-based strawman simulator for the weak
//! omissive models I1/I2.
//!
//! Theorem 3.2 of the paper says simulation in I1 and I2 is impossible
//! even against an adversary inserting a *single* omission. The proof is a
//! dichotomy: a candidate simulator either fails to make progress under
//! one omission (it is not NO1-resilient), or — if it is — the
//! construction of Theorem 3.2 turns its resilience into a Pairing safety
//! violation using **no omissions at all**.
//!
//! `Optimist` realizes the second horn. It is the natural "just keep
//! retransmitting" design: an agent broadcasts, round-robin and forever,
//! its own state announcement plus every completion notice it has
//! witnessed, so any lost transmission is eventually re-sent and the
//! simulator tolerates *any* finite number of omissions. The price is
//! exactly what the theorem predicts: announcements are not consumed
//! atomically, so two different reactors can consume copies of the same
//! announcement, and the Theorem 3.2 redirection produces more paired
//! consumers than producers without a single omission. The
//! [`attack`](crate::attack) module demonstrates this concretely.

use std::collections::VecDeque;

use ppfts_core::{Commit, Role, SimulatorState};
use ppfts_engine::OneWayProgram;
use ppfts_population::{Configuration, State, TwoWayProtocol};

/// A message broadcast by [`Optimist`] agents.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum OptimistMsg<Q> {
    /// "I am in simulated state `q`" (re-sent indefinitely).
    Announce(Q),
    /// "Some reactor consumed announce(`starter`) while in state
    /// `reactor`" (re-sent indefinitely by everyone who has seen it).
    Done {
        /// The consumed starter state.
        starter: Q,
        /// The consuming reactor's old state.
        reactor: Q,
    },
}

/// Per-agent state of the [`Optimist`] simulator.
///
/// Equality/hashing exclude the ghost commit fields, as for the real
/// simulators.
#[derive(Clone, Debug)]
pub struct OptimistState<Q> {
    sim: Q,
    pending: bool,
    dones: VecDeque<(Q, Q)>,
    cursor: u32,
    commit: Option<Commit<Q>>,
    commits: u64,
}

impl<Q: PartialEq> PartialEq for OptimistState<Q> {
    fn eq(&self, other: &Self) -> bool {
        self.sim == other.sim
            && self.pending == other.pending
            && self.dones == other.dones
            && self.cursor == other.cursor
    }
}

impl<Q: Eq> Eq for OptimistState<Q> {}

impl<Q: std::hash::Hash> std::hash::Hash for OptimistState<Q> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sim.hash(state);
        self.pending.hash(state);
        self.dones.hash(state);
        self.cursor.hash(state);
    }
}

impl<Q: State> OptimistState<Q> {
    /// Initial state around simulated state `q`.
    pub fn new(q: Q) -> Self {
        OptimistState {
            sim: q,
            pending: false,
            dones: VecDeque::new(),
            cursor: 0,
            commit: None,
            commits: 0,
        }
    }

    /// Whether this agent has an announcement outstanding.
    pub fn is_pending(&self) -> bool {
        self.pending
    }
}

/// The optimistic retransmitting simulator (see module docs). Works in
/// any one-way model; *unsafe by design* beyond two agents — that is the
/// point of Theorem 3.2.
#[derive(Clone, Debug)]
pub struct Optimist<P> {
    protocol: P,
}

impl<P: TwoWayProtocol> Optimist<P> {
    /// Creates the simulator for `protocol`.
    pub fn new(protocol: P) -> Self {
        Optimist { protocol }
    }

    /// The simulated protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Initial configuration wrapping the given simulated states.
    pub fn initial(sim_states: &[P::State]) -> Configuration<OptimistState<P::State>> {
        sim_states.iter().cloned().map(OptimistState::new).collect()
    }

    /// The message the starter in state `s` transmits next: slot
    /// `cursor mod (dones + 1)` of its broadcast cycle, where the extra
    /// slot is its own announcement.
    fn outgoing(&self, s: &OptimistState<P::State>) -> OptimistMsg<P::State> {
        let slots = s.dones.len() as u32 + 1;
        let slot = s.cursor % slots;
        match s.dones.get(slot as usize) {
            Some((q_s, q_r)) => OptimistMsg::Done {
                starter: q_s.clone(),
                reactor: q_r.clone(),
            },
            None => OptimistMsg::Announce(s.sim.clone()),
        }
    }

    fn remember_done(state: &mut OptimistState<P::State>, done: (P::State, P::State)) {
        if !state.dones.contains(&done) {
            state.dones.push_back(done);
        }
    }
}

impl<P: TwoWayProtocol> OneWayProgram for Optimist<P> {
    type State = OptimistState<P::State>;

    /// `g`: advance the broadcast cursor; announcing marks the agent
    /// pending.
    fn on_proximity(&self, s: &Self::State) -> Self::State {
        let mut s2 = s.clone();
        if matches!(self.outgoing(s), OptimistMsg::Announce(_)) {
            s2.pending = true;
        }
        s2.cursor = s2.cursor.wrapping_add(1);
        s2
    }

    /// `f`: consume the starter's message.
    fn on_receive(&self, s: &Self::State, r: &Self::State) -> Self::State {
        let mut r2 = r.clone();
        match self.outgoing(s) {
            OptimistMsg::Announce(q_s) => {
                // Optimistically play the simulated reactor immediately —
                // without knowing whether someone else already did.
                if !self.protocol.is_noop(&q_s, &r2.sim) {
                    let old = r2.sim.clone();
                    r2.sim = self.protocol.reactor_out(&q_s, &old);
                    Self::remember_done(&mut r2, (q_s.clone(), old.clone()));
                    r2.commit = Some(Commit {
                        role: Role::Reactor,
                        partner: q_s,
                        partner_id: None,
                        seq: r2.commits,
                    });
                    r2.commits += 1;
                }
            }
            OptimistMsg::Done { starter, reactor } => {
                if r2.pending && starter == r2.sim {
                    // Our announcement was consumed: play the simulated
                    // starter.
                    let old = r2.sim.clone();
                    r2.sim = self.protocol.starter_out(&old, &reactor);
                    r2.pending = false;
                    r2.commit = Some(Commit {
                        role: Role::Starter,
                        partner: reactor.clone(),
                        partner_id: None,
                        seq: r2.commits,
                    });
                    r2.commits += 1;
                }
                // Either way, gossip the notice onward.
                Self::remember_done(&mut r2, (starter, reactor));
            }
        }
        r2
    }

    // No omission-detection hooks: in I1 the reactor never notices, and
    // the starter cannot tell an omission from a delivery — retransmission
    // is the only defence available in the weak models, and `Optimist`
    // embraces it.
}

impl<Q: State> SimulatorState for OptimistState<Q> {
    type Simulated = Q;

    fn simulated(&self) -> &Q {
        &self.sim
    }

    fn commit_count(&self) -> u64 {
        self.commits
    }

    fn last_commit(&self) -> Option<&Commit<Q>> {
        self.commit.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_core::project;
    use ppfts_engine::{Batched, OmissionSchedule, OneWayModel, OneWayRunner, Stop};
    use ppfts_protocols::{Pairing, PairingState};

    fn sims(c: usize, p: usize) -> Vec<PairingState> {
        Pairing::initial(c, p).as_slice().to_vec()
    }

    fn fully_paired(c: &Configuration<OptimistState<PairingState>>) -> bool {
        let p = project(c);
        p.count_state(&PairingState::Paired) == 1 && p.count_state(&PairingState::Spent) == 1
    }

    #[test]
    fn two_agents_complete_without_omissions() {
        let mut runner = OneWayRunner::builder(OneWayModel::I1, Optimist::new(Pairing))
            .config(Optimist::<Pairing>::initial(&sims(1, 1)))
            .seed(1)
            .build()
            .unwrap();
        let out = runner
            .run(Batched(1), Stop::until(10_000, fully_paired))
            .unwrap();
        assert!(out.is_satisfied());
    }

    #[test]
    fn no1_resilient_on_two_agents() {
        // One omission anywhere in the first 12 steps cannot stop the full
        // two-way simulation: everything is eventually re-sent.
        for omitted_step in 0..12 {
            let mut runner = OneWayRunner::builder(OneWayModel::I1, Optimist::new(Pairing))
                .config(Optimist::<Pairing>::initial(&sims(1, 1)))
                .adversary(OmissionSchedule::at_steps([omitted_step]))
                .seed(3)
                .build()
                .unwrap();
            let out = runner
                .run(Batched(1), Stop::until(10_000, fully_paired))
                .unwrap();
            assert!(out.is_satisfied(), "omission at step {omitted_step}");
        }
    }

    #[test]
    fn resilient_in_i2_as_well() {
        for omitted_step in 0..8 {
            let mut runner = OneWayRunner::builder(OneWayModel::I2, Optimist::new(Pairing))
                .config(Optimist::<Pairing>::initial(&sims(1, 1)))
                .adversary(OmissionSchedule::at_steps([omitted_step]))
                .seed(9)
                .build()
                .unwrap();
            let out = runner
                .run(Batched(1), Stop::until(10_000, fully_paired))
                .unwrap();
            assert!(out.is_satisfied(), "omission at step {omitted_step}");
        }
    }

    #[test]
    fn optimism_is_unsafe_beyond_two_agents() {
        // Even without the Theorem 3.2 construction, duplicated
        // announcements over-pair some schedule: with 3 consumers and 1
        // producer, several consumers can consume the producer's re-sent
        // announcement.
        let mut over_paired = false;
        for seed in 0..20 {
            let mut runner = OneWayRunner::builder(OneWayModel::I1, Optimist::new(Pairing))
                .config(Optimist::<Pairing>::initial(&sims(3, 1)))
                .seed(seed)
                .build()
                .unwrap();
            runner.run(Batched(1), Stop::steps(5_000)).unwrap();
            if project(runner.config()).count_state(&PairingState::Paired) > 1 {
                over_paired = true;
                break;
            }
        }
        assert!(over_paired, "optimist should over-pair for some schedule");
    }

    #[test]
    fn done_gossip_is_deduplicated() {
        let opt = Optimist::new(Pairing);
        let mut r = OptimistState::new(PairingState::Consumer);
        Optimist::<Pairing>::remember_done(
            &mut r,
            (PairingState::Producer, PairingState::Consumer),
        );
        Optimist::<Pairing>::remember_done(
            &mut r,
            (PairingState::Producer, PairingState::Consumer),
        );
        assert_eq!(r.dones.len(), 1);
        let _ = opt.protocol();
    }
}
