//! `Nn` — naming with knowledge of `n`, composed with `SID`
//! (paper §4.3, Lemma 3, Theorem 4.6).
//!
//! With knowledge of the population size `n` (and Θ(log n) extra bits),
//! anonymous agents can *name themselves* in the IO model and then run
//! [`Sid`](crate::Sid) on top of the acquired IDs, yielding a two-way
//! simulator that needs neither a priori IDs nor omission bounds — in the
//! fault-free IO model.
//!
//! The naming rule is collision-driven: every agent starts with
//! `my_id = 1`; a reactor that observes a starter with its *own* current
//! `my_id` increments it; and `max_id` gossips the largest ID seen. The
//! key invariant (verified in the tests as well as Lemma 3) is that every
//! value `1..=M` stays occupied once reached — an ID can only leave a
//! level if two agents share it, and one of them stays — so when
//! `max_id = n` is observed anywhere, the IDs necessarily form a stable
//! permutation of `1..=n` and are safe to hand to `SID`.
//!
//! ## Erratum applied (documented in DESIGN.md)
//!
//! The paper's pseudocode says the agent invokes `start_sim(max_id)`; all
//! agents would then enter the simulation with the same ID `n`. The intent
//! is plainly `start_sim(my_id)` (the agent's own — now provably unique —
//! name), which is what we implement.

use ppfts_engine::OneWayProgram;
use ppfts_population::{Configuration, State, Topology, TwoWayProtocol};

use crate::{updated, Commit, Sid, SidState, SimulatorState};

/// Per-agent state of the [`NamedSid`] simulator.
///
/// Equality and hashing are inherited from [`SidState`] and are therefore
/// behavioral (ghost verification fields excluded).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum NamedState<Q> {
    /// Still acquiring a unique name.
    Naming {
        /// Current tentative name (`my_id`), in `1..=n`.
        my_id: u32,
        /// Largest name observed anywhere (`max_id`).
        max_id: u32,
        /// The simulated initial state, carried untouched until the
        /// simulation starts.
        init: Q,
    },
    /// Naming finished (`max_id = n` observed); running `SID`.
    Simulating {
        /// The inner `SID` state (its `id` is the acquired name).
        sid: SidState<Q>,
    },
}

impl<Q: State> NamedState<Q> {
    /// Creates the initial state for an agent with simulated input `q`.
    pub fn new(q: Q) -> Self {
        NamedState::Naming {
            my_id: 1,
            max_id: 1,
            init: q,
        }
    }

    /// The agent's current tentative or final name.
    pub fn my_id(&self) -> u32 {
        match self {
            NamedState::Naming { my_id, .. } => *my_id,
            NamedState::Simulating { sid } => sid.id() as u32,
        }
    }

    /// Whether the agent has started simulating.
    pub fn is_simulating(&self) -> bool {
        matches!(self, NamedState::Simulating { .. })
    }

    fn observed_ids(&self, n: u32) -> (u32, u32) {
        match self {
            NamedState::Naming { my_id, max_id, .. } => (*my_id, *max_id),
            NamedState::Simulating { sid } => (sid.id() as u32, n),
        }
    }
}

/// The naming-composed simulator: `Nn` below, [`Sid`] on top.
///
/// Its transition `f` is written once, as
/// [`on_receive_in_place`](OneWayProgram::on_receive_in_place); the pure
/// [`on_receive`](OneWayProgram::on_receive) applies it to a clone.
///
/// # Example
///
/// ```
/// use ppfts_core::{project, NamedSid};
/// use ppfts_engine::{Batched, OneWayModel, OneWayRunner, Stop};
/// use ppfts_protocols::Epidemic;
///
/// let sim = NamedSid::new(Epidemic, 4); // n = 4 is known
/// let mut runner = OneWayRunner::builder(OneWayModel::Io, sim)
///     .config(NamedSid::<Epidemic>::initial(&[true, false, false, false]))
///     .seed(5)
///     .build()?;
/// let out = runner.run(Batched(1), Stop::until(500_000, |c| {
///     project(c).as_slice().iter().all(|b| *b)
/// }))?;
/// assert!(out.is_satisfied());
/// # Ok::<(), ppfts_engine::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct NamedSid<P> {
    sid: Sid<P>,
    n: usize,
    gossip: GossipPolicy,
    topology: Option<Topology>,
}

/// Whether agents that already simulate keep revealing `max_id = n` to
/// still-naming observers (DESIGN.md ablation D4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum GossipPolicy {
    /// The correct behaviour: a simulating starter is observed as
    /// `(my_id, n)`, so late namers learn that naming has finished.
    #[default]
    Enabled,
    /// Ablation: simulating agents reveal nothing to naming observers. A
    /// late namer surrounded by simulating agents never sees
    /// `max_id = n` and is stranded forever — exhibited by the D4 tests.
    Disabled,
}

impl<P: TwoWayProtocol> NamedSid<P> {
    /// Creates the simulator for `protocol` with known population size
    /// `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(protocol: P, n: usize) -> Self {
        Self::with_gossip_policy(protocol, n, GossipPolicy::Enabled)
    }

    /// Creates the simulator with an explicit gossip policy;
    /// [`GossipPolicy::Disabled`] exists for the D4 ablation only.
    fn with_gossip_policy(protocol: P, n: usize, gossip: GossipPolicy) -> Self {
        assert!(n >= 2, "population size must be at least 2");
        NamedSid {
            sid: Sid::new(protocol),
            n,
            gossip,
            topology: None,
        }
    }

    /// Creates the **graphical** naming-composed simulator over
    /// `topology` (the known `n` is the graph's vertex count).
    ///
    /// The acquired names are a permutation of `1..=n` and are *not*
    /// graph vertices, so — unlike [`Sid::graphical`] — the inner `SID`
    /// cannot check adjacency by ID. It does not need to: every `SID`
    /// handshake pairs exactly the two agents of a physical meeting, and
    /// the builder's topology negotiation pins physical meetings to the
    /// graph's arcs, so every simulated interaction is automatically an
    /// edge of `topology`. (This also means the inner `SID` is always
    /// constructed topology-free and takes the non-filtering fast path
    /// of its adjacency guard unconditionally.)
    ///
    /// **Caveat — naming needs collisions to happen.** The `Nn` rule
    /// only separates two same-named agents when they *meet*; Lemma 3's
    /// termination argument therefore assumes every pair can interact.
    /// On a restricted graph a locally collision-free naming (no two
    /// *adjacent* agents sharing a name) with `max_id < n` is an
    /// absorbing state, so naming stalls with positive probability on
    /// sparse families — on a ring, almost surely. Graphical `NamedSid`
    /// is faithful to the paper on the complete graph and is otherwise
    /// offered for graphs dense enough that collisions keep occurring;
    /// use [`Sid::graphical`] (a priori IDs) when names cannot be
    /// acquired on the target graph.
    pub fn graphical(protocol: P, topology: Topology) -> Self {
        let n = topology.len();
        NamedSid {
            sid: Sid::new(protocol),
            n,
            gossip: GossipPolicy::Enabled,
            topology: Some(topology),
        }
    }

    /// The interaction graph this simulator is bound to, if graphical.
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// The simulated protocol.
    pub fn protocol(&self) -> &P {
        self.sid.protocol()
    }

    /// The initial configuration wrapping the given simulated states.
    pub fn initial(sim_states: &[P::State]) -> Configuration<NamedState<P::State>> {
        sim_states.iter().cloned().map(NamedState::new).collect()
    }
}

impl<P: TwoWayProtocol> OneWayProgram for NamedSid<P> {
    type State = NamedState<P::State>;

    // `on_proximity` keeps its identity default: this is an IO program.

    /// `f`, derived from [`on_receive_in_place`](Self::on_receive_in_place).
    fn on_receive(&self, s: &Self::State, r: &Self::State) -> Self::State {
        updated(r, |r| self.on_receive_in_place(s, r))
    }

    /// In-place `g`: the identity, so never a change and never a clone.
    fn on_proximity_in_place(&self, _q: &mut Self::State) -> bool {
        false
    }

    /// In-place `f`, the one body of the composed transition: naming
    /// updates two counters, simulation defers to `SID`'s in-place
    /// handshake, so the no-op and counter-bump steps that dominate at
    /// scale construct no state.
    fn on_receive_in_place(&self, s: &Self::State, r: &mut Self::State) -> bool {
        let n = self.n as u32;
        let (s_my, s_max) = s.observed_ids(n);
        // D4 ablation: a gossip-silent simulating starter is invisible to
        // naming reactors.
        if self.gossip == GossipPolicy::Disabled && s.is_simulating() && !r.is_simulating() {
            return false;
        }
        match r {
            NamedState::Naming {
                my_id,
                max_id,
                init,
            } => {
                // Collision rule: bump my_id when the starter shares it.
                let mut my = *my_id;
                if s_my == my {
                    my += 1;
                }
                let max = (*max_id).max(s_max).max(my).max(s_my);
                if max >= n {
                    // Lemma 3: max_id = n certifies that all names are a
                    // stable permutation of 1..=n — safe to start SID
                    // with our own name (erratum: not with max_id).
                    *r = NamedState::Simulating {
                        sid: SidState::new(my as u64, init.clone()),
                    };
                    true
                } else {
                    let changed = my != *my_id || max != *max_id;
                    *my_id = my;
                    *max_id = max;
                    changed
                }
            }
            NamedState::Simulating { sid: r_sid } => match s {
                // Both simulating: plain SID observation.
                NamedState::Simulating { sid: s_sid } => self.sid.on_receive_in_place(s_sid, r_sid),
                // A still-naming starter carries no SID state to observe.
                NamedState::Naming { .. } => false,
            },
        }
    }

    /// Graphical simulators are bound to their interaction graph; the
    /// builder refuses any scheduler that deals a different law.
    fn required_topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }
}

impl<Q: State> SimulatorState for NamedState<Q> {
    type Simulated = Q;

    fn simulated(&self) -> &Q {
        match self {
            NamedState::Naming { init, .. } => init,
            NamedState::Simulating { sid } => sid.simulated(),
        }
    }

    fn commit_count(&self) -> u64 {
        match self {
            NamedState::Naming { .. } => 0,
            NamedState::Simulating { sid } => sid.commit_count(),
        }
    }

    fn last_commit(&self) -> Option<&Commit<Q>> {
        match self {
            NamedState::Naming { .. } => None,
            NamedState::Simulating { sid } => sid.last_commit(),
        }
    }

    fn protocol_id(&self) -> Option<u64> {
        match self {
            NamedState::Naming { .. } => None,
            NamedState::Simulating { sid } => sid.protocol_id(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project;
    use ppfts_engine::{Batched, OneWayModel, OneWayRunner, Stop};
    use ppfts_population::{Configuration, TableProtocol};
    use std::collections::HashSet;

    fn pairing() -> TableProtocol<char> {
        TableProtocol::builder(vec!['s', 'c', 'p', '_'])
            .rule(('c', 'p'), ('s', '_'))
            .rule(('p', 'c'), ('_', 's'))
            .build()
    }

    fn naming_runner(n: usize, seed: u64) -> OneWayRunner<NamedSid<TableProtocol<char>>> {
        let sims: Vec<char> = (0..n).map(|k| if k % 2 == 0 { 'c' } else { 'p' }).collect();
        OneWayRunner::builder(OneWayModel::Io, NamedSid::new(pairing(), n))
            .config(NamedSid::<TableProtocol<char>>::initial(&sims))
            .seed(seed)
            .build()
            .unwrap()
    }

    fn all_named(c: &Configuration<NamedState<char>>) -> bool {
        c.as_slice().iter().all(super::NamedState::is_simulating)
    }

    #[test]
    fn naming_terminates_with_a_permutation() {
        for n in [2usize, 3, 5, 9] {
            let mut runner = naming_runner(n, n as u64);
            let out = runner
                .run(Batched(1), Stop::until(2_000_000, all_named))
                .unwrap();
            assert!(out.is_satisfied(), "n = {n}");
            let ids: HashSet<u32> = runner
                .config()
                .as_slice()
                .iter()
                .map(super::NamedState::my_id)
                .collect();
            assert_eq!(
                ids,
                (1..=n as u32).collect::<HashSet<u32>>(),
                "ids must form a permutation of 1..={n}"
            );
        }
    }

    #[test]
    fn every_reached_level_stays_occupied() {
        // The Lemma 3 invariant that justifies starting SID at max_id = n.
        let mut runner = naming_runner(6, 77);
        let mut reached: HashSet<u32> = HashSet::new();
        for _ in 0..30_000 {
            runner.step().unwrap();
            let ids: Vec<u32> = runner
                .config()
                .as_slice()
                .iter()
                .map(super::NamedState::my_id)
                .collect();
            for &v in &ids {
                reached.insert(v);
            }
            for &v in &reached {
                assert!(ids.contains(&v), "level {v} became unoccupied: {ids:?}");
            }
            if all_named(runner.config()) {
                break;
            }
        }
    }

    #[test]
    fn ids_never_exceed_n() {
        let mut runner = naming_runner(4, 9);
        for _ in 0..20_000 {
            runner.step().unwrap();
            for q in runner.config().as_slice() {
                assert!(q.my_id() >= 1 && q.my_id() <= 4);
            }
            if all_named(runner.config()) {
                break;
            }
        }
        assert!(all_named(runner.config()));
    }

    #[test]
    fn simulation_starts_and_converges_after_naming() {
        for seed in [1u64, 2, 3] {
            let mut runner = naming_runner(6, seed); // 3 consumers, 3 producers
            let out = runner
                .run(
                    Batched(1),
                    Stop::until(3_000_000, |c| {
                        let p = project(c);
                        p.count_state(&'s') == 3 && p.count_state(&'_') == 3
                    }),
                )
                .unwrap();
            assert!(out.is_satisfied(), "seed {seed}");
        }
    }

    #[test]
    fn late_namers_catch_up_through_simulating_starters() {
        // Once an agent simulates, its observed (my_id, max_id) is
        // (id, n), so a still-naming reactor learns max_id = n from it.
        let sim = NamedSid::new(pairing(), 3);
        let simulating = NamedState::Simulating {
            sid: SidState::new(3, 'p'),
        };
        let naming = NamedState::new('c'); // my_id = 1, max_id = 1
        let after = sim.on_receive(&simulating, &naming);
        assert!(after.is_simulating());
        assert_eq!(after.my_id(), 1);
    }

    #[test]
    fn collision_bumps_reactor_only() {
        let sim = NamedSid::new(pairing(), 5);
        let a = NamedState::new('c'); // my_id 1
        let b = NamedState::new('p'); // my_id 1
        let after = sim.on_receive(&a, &b);
        assert_eq!(after.my_id(), 2);
        // Starter unchanged by IO semantics (checked at the engine level,
        // but the program itself must not rely on touching it).
        assert_eq!(a.my_id(), 1);
    }

    #[test]
    fn naming_agents_do_not_commit() {
        let q = NamedState::new('c');
        assert_eq!(q.commit_count(), 0);
        assert!(q.last_commit().is_none());
        assert_eq!(q.simulated(), &'c');
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_populations_rejected() {
        let _ = NamedSid::new(pairing(), 1);
    }

    #[test]
    fn d4_without_gossip_late_namers_are_stranded() {
        // One agent already simulates with id 2 (n = 2); the other is
        // still naming. Without gossip, observing the simulating starter
        // teaches it nothing, forever.
        let sim = NamedSid::with_gossip_policy(pairing(), 2, GossipPolicy::Disabled);
        let simulating = NamedState::Simulating {
            sid: SidState::new(2, 'p'),
        };
        let mut naming = NamedState::new('c');
        for _ in 0..1_000 {
            naming = sim.on_receive(&simulating, &naming);
        }
        assert!(!naming.is_simulating(), "stranded: never sees max_id = n");
        // Flip the policy back on: one observation suffices.
        let healthy = NamedSid::new(pairing(), 2);
        let after = healthy.on_receive(&simulating, &naming);
        assert!(after.is_simulating());
    }
}
