//! `SID` — the ID-based locking simulator for Immediate Observation
//! (paper §4.2, Figure 3, Theorem 4.5).
//!
//! `SID` simulates any two-way protocol on the fault-free **IO** model,
//! assuming the agents carry unique IDs in their initial state. It is a
//! pure IO program: only the reactor of an interaction changes state, and
//! the starter is completely unaware.
//!
//! The mechanism is a three-step locking handshake driven entirely by
//! observations:
//!
//! 1. an `available` reactor that observes an `available` starter enters
//!    `pairing`, remembering the starter's ID and simulated state
//!    (Figure 3 lines 3–5);
//! 2. an `available` reactor that observes someone `pairing` *with its own
//!    ID and current simulated state* enters `locked` and commits
//!    `fs = δ_P(·,·)[0]` (lines 6–9);
//! 3. a `pairing` reactor that observes its partner `locked` on itself
//!    commits `fr = δ_P(·,·)[1]` and returns to `available` (lines 10–13);
//!    the locked partner rolls back to `available` the next time it
//!    observes the (now moved-on) agent (lines 14–16), as does a `pairing`
//!    agent whose target has paired elsewhere.
//!
//! Note the role inversion: the agent that *locks* (step 2) plays the
//! simulated **starter**, and the agent that initiated the pairing plays
//! the simulated **reactor**.
//!
//! ## Erratum applied (documented in DESIGN.md)
//!
//! Figure 3 line 13 computes the reactor's transition as
//! `δ_P(state_P^s, state_P)[1]` from the *observed* (current) state of the
//! locked partner — but the partner already applied `fs` at lock time, so
//! its current simulated state is no longer the `q_s` the transition must
//! be computed against (check on Pairing: `δ(cs, p)` is an identity). We
//! use the reactor's *saved* `state_other`, which equals the partner's
//! simulated state at pairing time, validated at lock time by the line-6
//! guard.

use ppfts_engine::OneWayProgram;
use ppfts_population::{Configuration, State, Topology, TwoWayProtocol};

use crate::{updated, Commit, Role, SimulatorState};

/// Phase of the `SID` locking handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SidPhase {
    /// Free to start or accept a pairing.
    Available,
    /// Soft-committed to a specific partner, waiting for its lock.
    Pairing,
    /// Hard-committed: `fs` applied, waiting for the partner to finish.
    Locked,
}

/// Per-agent state of the [`Sid`] simulator.
///
/// Equality and hashing are **behavioral**: the ghost verification fields
/// (the commit log exposed through
/// [`SimulatorState`](crate::SimulatorState)) are excluded, since they
/// never influence the dynamics. This keeps state-space exploration (FTT
/// search, model checking) finite.
#[derive(Clone, Debug)]
pub struct SidState<Q> {
    id: u64,
    sim: Q,
    phase: SidPhase,
    other_id: Option<u64>,
    other_state: Option<Q>,
    /// Ghost commit log head, stored inline: written only on the two
    /// commit arms and read only by verification. Inline widens the state
    /// (64 rather than 40 bytes for `Q = bool`) but spares every commit an
    /// allocation and a free, which measured cheaper on the `SID` hot path
    /// (EXPERIMENTS.md E17). The commit count is derived from it: the
    /// last commit's `seq + 1`, or 0 before the first.
    commit: Option<Commit<Q>>,
}

impl<Q: PartialEq> PartialEq for SidState<Q> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.sim == other.sim
            && self.phase == other.phase
            && self.other_id == other.other_id
            && self.other_state == other.other_state
    }
}

impl<Q: Eq> Eq for SidState<Q> {}

impl<Q: std::hash::Hash> std::hash::Hash for SidState<Q> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
        self.sim.hash(state);
        self.phase.hash(state);
        self.other_id.hash(state);
        self.other_state.hash(state);
    }
}

impl<Q: State> SidState<Q> {
    /// Creates the initial state of an agent with unique ID `id` and
    /// simulated initial state `q`.
    pub fn new(id: u64, q: Q) -> Self {
        SidState {
            id,
            sim: q,
            phase: SidPhase::Available,
            other_id: None,
            other_state: None,
            commit: None,
        }
    }

    /// The agent's unique identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The handshake phase.
    pub fn phase(&self) -> SidPhase {
        self.phase
    }

    /// The partner this agent is paired or locked with, if any.
    pub fn partner_id(&self) -> Option<u64> {
        self.other_id
    }
}

/// The `SID` simulator: wraps a [`TwoWayProtocol`] into an IO program,
/// given unique agent IDs.
///
/// The reactor's transition `f` is written once, as
/// [`on_receive_in_place`](OneWayProgram::on_receive_in_place): a no-op
/// screen in front of Figure 3. The pure
/// [`on_receive`](OneWayProgram::on_receive) applies it to a clone.
///
/// # Example
///
/// ```
/// use ppfts_core::{project, Sid};
/// use ppfts_engine::{Batched, OneWayModel, OneWayRunner, Stop};
/// use ppfts_protocols::Epidemic;
///
/// let sid = Sid::new(Epidemic);
/// let mut runner = OneWayRunner::builder(OneWayModel::Io, sid)
///     .config(Sid::<Epidemic>::initial(&[true, false, false, false]))
///     .seed(11)
///     .build()?;
/// let out = runner.run(Batched(1), Stop::until(300_000, |c| {
///     project(c).as_slice().iter().all(|b| *b)
/// }))?;
/// assert!(out.is_satisfied());
/// # Ok::<(), ppfts_engine::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Sid<P> {
    protocol: P,
    rollback: RollbackPolicy,
    topology: Option<Topology>,
    /// Precomputed "the graph actually restricts something": lets the
    /// per-observation adjacency guards short-circuit without touching
    /// the topology at all in anonymous and complete-graph runs — the
    /// hot path of every `SID` step at scale.
    filtering: bool,
}

/// Whether the lines 14–16 rollback of Figure 3 is active (DESIGN.md
/// ablation D2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RollbackPolicy {
    /// The paper's rule: an agent tracking a partner that has moved on
    /// resets to `available`. Required for progress.
    #[default]
    Enabled,
    /// Ablation: no rollback. Locked agents stay locked forever once
    /// their partner finishes, and pairing agents whose target paired
    /// elsewhere starve — the `ppfts-verify` ablation tests exhibit the
    /// resulting liveness failure by exact model checking.
    Disabled,
}

impl<P: TwoWayProtocol> Sid<P> {
    /// Creates the simulator for `protocol`.
    pub fn new(protocol: P) -> Self {
        Sid {
            protocol,
            rollback: RollbackPolicy::Enabled,
            topology: None,
            filtering: false,
        }
    }

    /// Creates the simulator with an explicit rollback policy;
    /// [`RollbackPolicy::Disabled`] exists for the D2 ablation only.
    pub fn with_rollback_policy(protocol: P, rollback: RollbackPolicy) -> Self {
        Sid {
            protocol,
            rollback,
            topology: None,
            filtering: false,
        }
    }

    /// Creates the **graphical** simulator: the handshake only pairs and
    /// locks agents whose IDs are adjacent in `topology` (ID = graph
    /// vertex, the layout [`Sid::initial`] produces).
    ///
    /// Under the scheduler the builder negotiates for this topology the
    /// guard is defense in depth — every physical meeting is already a
    /// graph arc, and `SID`'s simulated interactions pair exactly the
    /// agents that physically met — but it also makes the restriction
    /// *semantic*: an off-graph interaction injected past the scheduler
    /// (e.g. via `apply_planned`) produces no pairing, no lock and no
    /// commit, which the `ppfts-verify` simulation audit and the
    /// deliberate-injection tests rely on.
    ///
    /// On [`Topology::complete`] the guard is vacuous and the simulator
    /// is bit-identical (states and RNG stream) to [`Sid::new`];
    /// the `anonymous_eq_graphical_sid_*` rows of `tests/differential.rs`
    /// certify it.
    pub fn graphical(protocol: P, topology: Topology) -> Self {
        let filtering = !topology.is_complete();
        Sid {
            protocol,
            rollback: RollbackPolicy::Enabled,
            topology: Some(topology),
            filtering,
        }
    }

    /// The interaction graph this simulator is bound to, if graphical.
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// Whether two protocol IDs may simulate an interaction: graph
    /// adjacency of their vertices in graphical mode, always otherwise.
    /// The cached `filtering` flag keeps anonymous and complete-graph
    /// runs from paying the topology lookup (`contains_arc` on the
    /// complete graph is constant-true, but reaching it is not free).
    #[inline]
    fn adjacent(&self, a: u64, b: u64) -> bool {
        !self.filtering
            || self
                .topology
                .as_ref()
                .expect("filtering implies a bound topology")
                .contains_arc(a as usize, b as usize)
    }

    /// The simulated protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The initial configuration wrapping the given simulated states, with
    /// IDs assigned by agent index (`0, 1, 2, …`).
    pub fn initial(sim_states: &[P::State]) -> Configuration<SidState<P::State>> {
        sim_states
            .iter()
            .enumerate()
            .map(|(i, q)| SidState::new(i as u64, q.clone()))
            .collect()
    }

    /// The no-op screen in front of [`act`](Sid::act). Most observations
    /// match no arm (about three steps in four of a sparse-graph run), and
    /// the short-circuit guards of `act`'s match reach that verdict
    /// through a chain of unpredictable branches. Each arm's phase and ID
    /// guard, computed eagerly with `&` and `|`, admits a superset of the
    /// steps the arm acts on, so a closed screen skips only steps `act`
    /// would leave unchanged. The saved-state and adjacency tests stay in
    /// the arms they guard.
    #[inline]
    fn may_act(&self, s: &SidState<P::State>, r: &SidState<P::State>) -> bool {
        let r_tracks_s = r.other_id == Some(s.id);
        let s_tracks_r = s.other_id == Some(r.id);
        let r_available = r.phase == SidPhase::Available;
        let pair = r_available & (s.phase == SidPhase::Available);
        let lock = r_available & (s.phase == SidPhase::Pairing) & s_tracks_r;
        let finish = (r.phase == SidPhase::Pairing)
            & (s.phase == SidPhase::Locked)
            & r_tracks_s
            & s_tracks_r;
        let rollback = (self.rollback == RollbackPolicy::Enabled) & r_tracks_s & !s_tracks_r;
        pair | lock | finish | rollback
    }

    /// One observation: the full reactor logic of Figure 3, applied to
    /// the reactor state in place. Returns whether it changed
    /// behaviourally; every arm that acts does change it.
    fn act(&self, s: &SidState<P::State>, r: &mut SidState<P::State>) -> bool {
        match r.phase {
            // Lines 3–5: start pairing with an available starter — a
            // graph-adjacent one, in graphical mode.
            SidPhase::Available if s.phase == SidPhase::Available && self.adjacent(s.id, r.id) => {
                r.phase = SidPhase::Pairing;
                r.other_id = Some(s.id);
                r.other_state = Some(s.sim.clone());
                true
            }
            // Lines 6–9: the starter of the simulated interaction locks.
            SidPhase::Available
                if s.phase == SidPhase::Pairing
                    && s.other_id == Some(r.id)
                    && s.other_state.as_ref() == Some(&r.sim)
                    && self.adjacent(s.id, r.id) =>
            {
                let sim = self.protocol.starter_out(&r.sim, &s.sim);
                r.phase = SidPhase::Locked;
                r.other_id = Some(s.id);
                r.other_state = Some(s.sim.clone());
                r.sim = sim;
                r.commit = Some(Commit {
                    role: Role::Starter,
                    partner: s.sim.clone(),
                    partner_id: Some(s.id),
                    seq: r.commit_count(),
                });
                true
            }
            // Lines 10–13: the reactor of the simulated interaction
            // finishes against its *saved* partner state (see erratum).
            SidPhase::Pairing
                if r.other_id == Some(s.id)
                    && s.other_id == Some(r.id)
                    && s.phase == SidPhase::Locked =>
            {
                let q_s = r
                    .other_state
                    .take()
                    .expect("pairing state always stores the partner state");
                r.sim = self.protocol.reactor_out(&q_s, &r.sim);
                r.phase = SidPhase::Available;
                r.other_id = None;
                r.commit = Some(Commit {
                    role: Role::Reactor,
                    partner: q_s,
                    partner_id: Some(s.id),
                    seq: r.commit_count(),
                });
                true
            }
            // Lines 14–16: rollback — the tracked partner has moved on.
            // Unlocks a locked agent whose partner finished, and frees a
            // pairing agent whose target paired elsewhere.
            _ if self.rollback == RollbackPolicy::Enabled
                && r.other_id == Some(s.id)
                && s.other_id != Some(r.id) =>
            {
                r.phase = SidPhase::Available;
                r.other_id = None;
                r.other_state = None;
                true
            }
            _ => false,
        }
    }
}

impl<P: TwoWayProtocol> OneWayProgram for Sid<P> {
    type State = SidState<P::State>;

    // `on_proximity` keeps its identity default: SID is a valid IO
    // program (the starter never even notices the interaction).

    /// `f`, derived from [`on_receive_in_place`](Self::on_receive_in_place).
    fn on_receive(&self, s: &Self::State, r: &Self::State) -> Self::State {
        updated(r, |r| self.on_receive_in_place(s, r))
    }

    /// In-place `g`: the identity, so never a change and never a clone.
    fn on_proximity_in_place(&self, _q: &mut Self::State) -> bool {
        false
    }

    /// In-place `f`, the one body of the locking handshake: the no-op
    /// screen, then Figure 3 applied directly to the reactor, so a no-op
    /// observation (by far the most common step at scale) costs no state
    /// construction at all.
    fn on_receive_in_place(&self, s: &Self::State, r: &mut Self::State) -> bool {
        self.may_act(s, r) && self.act(s, r)
    }

    /// Graphical simulators are bound to their interaction graph; the
    /// builder refuses any scheduler that deals a different law.
    fn required_topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }
}

impl<Q: State> SimulatorState for SidState<Q> {
    type Simulated = Q;

    fn simulated(&self) -> &Q {
        &self.sim
    }

    fn commit_count(&self) -> u64 {
        self.commit.as_ref().map_or(0, |c| c.seq + 1)
    }

    fn last_commit(&self) -> Option<&Commit<Q>> {
        self.commit.as_ref()
    }

    fn protocol_id(&self) -> Option<u64> {
        Some(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project;
    use ppfts_engine::{validate_io_program, Batched, OneWayModel, OneWayRunner, Planned, Stop};
    use ppfts_population::{Interaction, TableProtocol};

    fn pairing() -> TableProtocol<char> {
        TableProtocol::builder(vec!['s', 'c', 'p', '_'])
            .rule(('c', 'p'), ('s', '_'))
            .rule(('p', 'c'), ('_', 's'))
            .build()
    }

    fn i(s: usize, r: usize) -> Interaction {
        Interaction::new(s, r).unwrap()
    }

    #[test]
    fn sid_is_a_valid_io_program() {
        let sid = Sid::new(pairing());
        let sample = vec![
            SidState::new(0, 'c'),
            SidState::new(1, 'p'),
            SidState::new(2, 's'),
        ];
        assert!(validate_io_program(&sid, sample).is_empty());
    }

    #[test]
    fn three_observations_complete_one_simulated_interaction() {
        // FTT(SID) = 3: pair, lock (fs), complete (fr).
        let sid = Sid::new(pairing());
        let mut runner = OneWayRunner::builder(OneWayModel::Io, sid)
            .config(Sid::<TableProtocol<char>>::initial(&['c', 'p']))
            .build()
            .unwrap();
        // a1 observes a0 → pairing; a0 observes a1 → locks, commits fs;
        // a1 observes a0 → commits fr.
        runner
            .apply_planned([
                Planned::ok(i(0, 1)),
                Planned::ok(i(1, 0)),
                Planned::ok(i(0, 1)),
            ])
            .unwrap();
        // a0 locked, so a0 played the simulated starter: δ(c, p) = (cs, ⊥).
        assert_eq!(project(runner.config()).as_slice(), &['s', '_']);
        let states = runner.config().as_slice();
        assert_eq!(states[0].last_commit().unwrap().role, Role::Starter);
        assert_eq!(states[1].last_commit().unwrap().role, Role::Reactor);
        assert_eq!(states[0].last_commit().unwrap().partner_id, Some(1));
        assert_eq!(states[1].last_commit().unwrap().partner_id, Some(0));
    }

    #[test]
    fn locked_agent_unlocks_after_partner_finishes() {
        let sid = Sid::new(pairing());
        let mut runner = OneWayRunner::builder(OneWayModel::Io, sid)
            .config(Sid::<TableProtocol<char>>::initial(&['c', 'p']))
            .build()
            .unwrap();
        runner
            .apply_planned([
                Planned::ok(i(0, 1)),
                Planned::ok(i(1, 0)),
                Planned::ok(i(0, 1)),
                // a0 is still locked; observing a1 (now free) unlocks it.
                Planned::ok(i(1, 0)),
            ])
            .unwrap();
        let states = runner.config().as_slice();
        assert_eq!(states[0].phase(), SidPhase::Available);
        assert_eq!(states[1].phase(), SidPhase::Available);
        // Unlocking is not a commit.
        assert_eq!(states[0].commit_count(), 1);
    }

    #[test]
    fn stale_pairing_rolls_back() {
        // a2 pairs with a0; a0 then pairs-and-locks with a1 instead. When
        // a2 next observes a0 (whose other_id is now 1 ≠ 2), it rolls
        // back without committing anything.
        let sid = Sid::new(pairing());
        let mut runner = OneWayRunner::builder(OneWayModel::Io, sid)
            .config(Sid::<TableProtocol<char>>::initial(&['c', 'p', 'p']))
            .build()
            .unwrap();
        runner
            .apply_planned([
                Planned::ok(i(0, 2)), // a2 pairs with a0
                Planned::ok(i(1, 0)), // a0 pairs with a1
                Planned::ok(i(0, 1)), // a1 locks onto a0? no — a1 must be available; a1 IS available; a0 is pairing with a1 → a1 locks, commits fs
            ])
            .unwrap();
        let states = runner.config().as_slice();
        assert_eq!(states[1].phase(), SidPhase::Locked);
        assert_eq!(states[2].phase(), SidPhase::Pairing);
        // Now a2 observes a0: a0's other_id is 1, not 2 → rollback.
        runner.apply_planned([Planned::ok(i(0, 2))]).unwrap();
        let states = runner.config().as_slice();
        assert_eq!(states[2].phase(), SidPhase::Available);
        assert_eq!(states[2].commit_count(), 0);
    }

    #[test]
    fn lock_requires_matching_saved_state() {
        // a1 pairs with a0 while a0 holds 'c'. If a0's simulated state
        // changes before it sees the pairing, the line-6 guard must fail.
        let sid = Sid::new(pairing());
        let s_pairing = {
            let mut s = SidState::new(1, 'p');
            s.phase = SidPhase::Pairing;
            s.other_id = Some(0);
            s.other_state = Some('c');
            s
        };
        // a0 still in 'c': lock fires.
        let a0 = SidState::new(0, 'c');
        let locked = sid.on_receive(&s_pairing, &a0);
        assert_eq!(locked.phase(), SidPhase::Locked);
        assert_eq!(locked.simulated(), &'s'); // δ(c, p)[0] = cs

        // a0 moved to '_' meanwhile: guard fails, nothing happens.
        let a0_moved = SidState::new(0, '_');
        let unchanged = sid.on_receive(&s_pairing, &a0_moved);
        assert_eq!(unchanged.phase(), SidPhase::Available);
        assert_eq!(unchanged.commit_count(), 0);
    }

    #[test]
    fn pairing_protocol_full_run_converges() {
        for seed in 0..5 {
            let sid = Sid::new(pairing());
            let sims = ['c', 'c', 'c', 'p', 'p', 'p', 'p'];
            let mut runner = OneWayRunner::builder(OneWayModel::Io, sid)
                .config(Sid::<TableProtocol<char>>::initial(&sims))
                .seed(seed)
                .build()
                .unwrap();
            let out = runner
                .run(
                    Batched(1),
                    Stop::until(500_000, |c| {
                        let p = project(c);
                        p.count_state(&'s') == 3 && p.count_state(&'_') == 3
                    }),
                )
                .unwrap();
            assert!(out.is_satisfied(), "seed {seed}");
            assert!(project(runner.config()).count_state(&'s') <= 4);
        }
    }

    #[test]
    fn mutual_pairing_is_impossible() {
        // If r observes s while s is pairing (not with r), r in available
        // does *not* enter pairing — line 3 requires s available.
        let sid = Sid::new(pairing());
        let mut s = SidState::new(0, 'c');
        s.phase = SidPhase::Pairing;
        s.other_id = Some(9);
        s.other_state = Some('p');
        let r = SidState::new(1, 'p');
        let r2 = sid.on_receive(&s, &r);
        assert_eq!(r2.phase(), SidPhase::Available);
    }

    /// Every state agent `id` can be given: each phase, each tracked ID
    /// (none, `partner`, itself, `third`), each simulated state and each
    /// saved partner state. All carry an earlier ghost commit, so a
    /// missed or spurious overwrite of the log shows.
    fn all_states(id: u64, partner: u64, third: u64) -> Vec<SidState<char>> {
        let mut out = Vec::new();
        for phase in [SidPhase::Available, SidPhase::Pairing, SidPhase::Locked] {
            for other_id in [None, Some(partner), Some(id), Some(third)] {
                for sim in ['c', 'p'] {
                    for other_state in [None, Some('c'), Some('p')] {
                        out.push(SidState {
                            id,
                            sim,
                            phase,
                            other_id,
                            other_state,
                            commit: Some(Commit {
                                role: Role::Reactor,
                                partner: '_',
                                partner_id: Some(third),
                                seq: 6,
                            }),
                        });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn in_place_hook_matches_pure_hook_on_every_state_pair() {
        // On the ring 0-1-2-3-4-0, starter 1 is adjacent to reactor 0 and
        // starter 2 is not; agent 3 is the third party.
        let ring = || Topology::ring(5).unwrap();
        let sids = [
            Sid::new(pairing()),
            Sid::with_rollback_policy(pairing(), RollbackPolicy::Disabled),
            Sid::graphical(pairing(), ring()),
            Sid {
                rollback: RollbackPolicy::Disabled,
                ..Sid::graphical(pairing(), ring())
            },
        ];
        let (reactor, third) = (0, 3);
        let mut changed_steps = 0;
        for sid in &sids {
            let (graphical, rollback) = (sid.filtering, sid.rollback);
            for starter in [1, 2] {
                let reactors = all_states(reactor, starter, third);
                for s in &all_states(starter, reactor, third) {
                    for r in &reactors {
                        // Unreachable: pairing always saves the partner
                        // state, and both hooks would panic finishing.
                        if r.phase == SidPhase::Pairing && r.other_state.is_none() {
                            continue;
                        }
                        let mut body = r.clone();
                        let acted = sid.act(s, &mut body);
                        let mut screened = r.clone();
                        let changed = sid.on_receive_in_place(s, &mut screened);
                        let at = format!("s = {s:?}, r = {r:?}, {graphical}, {rollback:?}");
                        assert_eq!(screened, body, "{at}");
                        assert_eq!(screened.last_commit(), body.last_commit(), "{at}");
                        assert_eq!(screened.commit_count(), body.commit_count(), "{at}");
                        assert_eq!(changed, screened != *r, "{at}");
                        assert_eq!(acted, body != *r, "{at}");
                        let pure = sid.on_receive(s, r);
                        assert_eq!(pure, screened, "{at}");
                        assert_eq!(pure.last_commit(), screened.last_commit(), "{at}");
                        changed_steps += usize::from(changed);
                    }
                }
            }
        }
        assert!(changed_steps > 0);
    }
}
