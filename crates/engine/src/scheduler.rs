//! Schedulers: who meets whom next.
//!
//! The PP literature abstracts agent mobility as an adversarial but
//! *globally fair* (GF) scheduler. The workhorse here is
//! [`UniformScheduler`]: picking each ordered pair uniformly at random
//! yields a globally fair execution with probability 1 (every configuration
//! set that stays reachable infinitely often is entered infinitely often),
//! which is the standard probabilistic realization of GF used throughout
//! the literature. [`TopologyScheduler`] generalizes it to restricted
//! interaction graphs (uniform random edge, both orientations) — the
//! uniform scheduler *is* its complete-graph instance, bit-identically.
//! [`RoundRobinScheduler`] provides a deterministic fair rotation useful in
//! ablation benches. The *specific* interaction sequences of the paper's
//! impossibility constructions are not dealt by a scheduler: they are
//! replayed, faults included, by
//! [`Runner::apply_planned`](crate::Runner::apply_planned).
//!
//! Schedulers advertise their [`InteractionLaw`], the typed capability
//! that backends and builders negotiate over: a count-based population
//! backend can only realize the uniform complete-graph law, and a
//! topology-bound scheduler pins the population size — both mismatches
//! are rejected when the runner is built, not mid-run.

use ppfts_population::{Interaction, Topology};
use rand::{Rng, RngCore};

/// The probability law a [`Scheduler`] deals interactions from — the
/// typed half of backend/scheduler capability negotiation.
///
/// Runner builders consult this instead of probing behavior: a
/// count-based population backend
/// ([`CountConfiguration`](ppfts_population::CountConfiguration)) has no
/// agent identities and realizes the interaction distribution directly
/// from state counts, which is only possible for
/// [`Uniform`](InteractionLaw::Uniform); assembling it with any other law
/// fails at `build()` with
/// [`EngineError::CompleteInteractionLawRequired`](crate::EngineError::CompleteInteractionLawRequired).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InteractionLaw {
    /// Uniform over all ordered pairs — the complete-graph law, stateless
    /// in the agent indices it deals. The only law a count-based backend
    /// can realize from state multiplicities alone.
    Uniform,
    /// Uniform over the arcs of a fixed, non-complete interaction
    /// [`Topology`]. Requires per-agent identities (which pairs may meet
    /// depends on *which* agents hold which states).
    Topological,
    /// Distinguishes agents by index — rotations, or any other stateful
    /// index-addressed dealing.
    IndexAddressed,
}

impl InteractionLaw {
    /// Whether a count-based backend can realize this law from state
    /// multiplicities alone (true only for the uniform complete-graph
    /// law).
    pub fn count_realizable(self) -> bool {
        matches!(self, InteractionLaw::Uniform)
    }
}

impl std::fmt::Display for InteractionLaw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InteractionLaw::Uniform => write!(f, "uniform (complete graph)"),
            InteractionLaw::Topological => write!(f, "topological (restricted graph)"),
            InteractionLaw::IndexAddressed => write!(f, "index-addressed"),
        }
    }
}

/// A source of interactions for a population of `n` agents.
///
/// Implementations must return a valid interaction for the given `n`
/// (distinct endpoints, both `< n`). The runner passes its own seeded RNG,
/// so schedulers themselves stay stateless with respect to randomness and
/// runs remain reproducible from a single seed.
pub trait Scheduler {
    /// Produces the next interaction for a population of `n` agents.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `n < 2`; runners validate population
    /// size at construction.
    fn next_interaction(&mut self, n: usize, rng: &mut dyn RngCore) -> Interaction;

    /// The probability law this scheduler deals from; see
    /// [`InteractionLaw`] for how builders negotiate over it.
    ///
    /// The conservative default is
    /// [`IndexAddressed`](InteractionLaw::IndexAddressed) — custom
    /// schedulers that do realize the uniform law must override this to
    /// become eligible for count-based backends.
    fn law(&self) -> InteractionLaw {
        InteractionLaw::IndexAddressed
    }

    /// The explicit interaction graph this scheduler deals the arcs of,
    /// if it is graph-bound ([`TopologyScheduler`] returns its topology).
    ///
    /// This is the scheduler half of *program-side* topology negotiation:
    /// a graphical simulator (one whose
    /// [`required_topology`](crate::OneWayProgram::required_topology) is
    /// `Some`) only builds against a scheduler dealing exactly that graph
    /// — the builder compares this value structurally and rejects
    /// mismatches with
    /// [`EngineError::ProgramTopologyMismatch`](crate::EngineError::ProgramTopologyMismatch).
    /// Its size is also the population the scheduler is bound to: builders
    /// reject a runner whose population size disagrees
    /// ([`EngineError::TopologySizeMismatch`](crate::EngineError::TopologySizeMismatch))
    /// instead of letting `next_interaction` panic mid-run.
    fn dealt_topology(&self) -> Option<&Topology> {
        None
    }

    /// Deals `k` interactions into `out` (appending), consuming the RNG
    /// stream exactly as `k` successive
    /// [`next_interaction`](Scheduler::next_interaction) calls would.
    ///
    /// The default loops over `next_interaction`; [`UniformScheduler`]
    /// and [`TopologyScheduler`] override it with monomorphized draws
    /// (no per-draw virtual call, loop-hoisted validation) — the batched
    /// fast path [`Batched`](crate::Batched) uses when the fault stream
    /// permits bulk pair drawing. Bit-identity to the per-draw stream is
    /// part of the contract; the `step_eq_batched_*` and
    /// `uniform_eq_complete_*` rows of `tests/differential.rs` and the
    /// in-module tests certify it for the built-in schedulers.
    ///
    /// `where Self: Sized` keeps the trait object-safe; `&mut dyn
    /// Scheduler` callers simply keep the per-draw entry point.
    fn next_interactions_into<R: RngCore>(
        &mut self,
        out: &mut Vec<Interaction>,
        k: usize,
        n: usize,
        rng: &mut R,
    ) where
        Self: Sized,
    {
        out.reserve(k);
        for _ in 0..k {
            out.push(self.next_interaction(n, rng));
        }
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn next_interaction(&mut self, n: usize, rng: &mut dyn RngCore) -> Interaction {
        (**self).next_interaction(n, rng)
    }
    fn law(&self) -> InteractionLaw {
        (**self).law()
    }
    fn dealt_topology(&self) -> Option<&Topology> {
        (**self).dealt_topology()
    }
}

/// Uniform-random ordered pairs: the probabilistic realization of global
/// fairness.
///
/// This is exactly the complete-graph instance of [`TopologyScheduler`]
/// — `TopologyScheduler::new(Topology::complete(n)?)` deals the same
/// interactions from the same RNG stream — kept as a zero-size,
/// population-size-agnostic type because it is the default of every
/// runner builder.
///
/// # Example
///
/// ```
/// use ppfts_engine::{Scheduler, UniformScheduler};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let mut sched = UniformScheduler::new();
/// let i = sched.next_interaction(5, &mut rng);
/// assert_ne!(i.starter(), i.reactor());
/// assert!(i.starter().index() < 5 && i.reactor().index() < 5);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformScheduler;

impl UniformScheduler {
    /// Creates a uniform scheduler.
    pub fn new() -> Self {
        UniformScheduler
    }
}

impl Scheduler for UniformScheduler {
    fn next_interaction(&mut self, n: usize, rng: &mut dyn RngCore) -> Interaction {
        assert!(n >= 2, "population must have at least 2 agents");
        Interaction::sample(n, rng)
    }

    fn law(&self) -> InteractionLaw {
        InteractionLaw::Uniform
    }

    fn next_interactions_into<R: RngCore>(
        &mut self,
        out: &mut Vec<Interaction>,
        k: usize,
        n: usize,
        rng: &mut R,
    ) {
        assert!(n >= 2, "population must have at least 2 agents");
        out.reserve(k);
        for _ in 0..k {
            out.push(Interaction::sample(n, rng));
        }
    }
}

/// Uniform random edges of an arbitrary interaction [`Topology`], dealt
/// in both orientations — the graph-aware generalization of
/// [`UniformScheduler`].
///
/// Each call draws one *arc* (ordered edge) uniformly from the topology's
/// CSR arc array, so restricted-graph scheduling costs the same O(1) per
/// step as complete-graph scheduling. On the complete topology the draw
/// consumes the RNG exactly like [`UniformScheduler`], making
/// complete-topology runs bit-identical to classic uniform runs
/// (the `uniform_eq_complete_*` rows of `tests/differential.rs`
/// certify this).
///
/// On a connected topology every arc has probability `1/2m` per step, so
/// every edge is scheduled infinitely often in expectation — the
/// globally-fair-with-probability-1 argument for the uniform scheduler
/// carries over verbatim (see `ppfts-verify`'s coverage audit).
///
/// # Example
///
/// ```
/// use ppfts_engine::{Scheduler, TopologyScheduler};
/// use ppfts_population::Topology;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let ring = Topology::ring(6)?;
/// let mut sched = TopologyScheduler::new(ring);
/// let mut rng = SmallRng::seed_from_u64(5);
/// let i = sched.next_interaction(6, &mut rng);
/// let (s, r) = (i.starter().index(), i.reactor().index());
/// assert!(sched.topology().contains_arc(s, r));
/// # Ok::<(), ppfts_population::TopologyError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TopologyScheduler {
    topology: Topology,
}

impl TopologyScheduler {
    /// Creates a scheduler dealing uniform random arcs of `topology`.
    pub fn new(topology: Topology) -> Self {
        TopologyScheduler { topology }
    }

    /// The interaction graph being scheduled over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

impl Scheduler for TopologyScheduler {
    fn next_interaction(&mut self, n: usize, rng: &mut dyn RngCore) -> Interaction {
        assert_eq!(
            n,
            self.topology.len(),
            "topology built for {} agents, population has {n}; builders reject this",
            self.topology.len()
        );
        self.topology.sample_arc(rng)
    }

    fn law(&self) -> InteractionLaw {
        if self.topology.is_complete() {
            InteractionLaw::Uniform
        } else {
            InteractionLaw::Topological
        }
    }

    fn dealt_topology(&self) -> Option<&Topology> {
        Some(&self.topology)
    }

    fn next_interactions_into<R: RngCore>(
        &mut self,
        out: &mut Vec<Interaction>,
        k: usize,
        n: usize,
        rng: &mut R,
    ) {
        assert_eq!(
            n,
            self.topology.len(),
            "topology built for {} agents, population has {n}; builders reject this",
            self.topology.len()
        );
        self.topology.sample_arcs_into(out, k, rng);
    }
}

/// Deterministic fair rotation: deals every ordered pair once per round,
/// in a per-round shuffled order.
///
/// Unlike [`UniformScheduler`] this guarantees a hard fairness bound —
/// every ordered pair occurs exactly once every `n·(n-1)` steps — at the
/// cost of less realistic mobility. Used by the scheduler-ablation bench
/// (`ppfts-bench`'s `schedulers`).
///
/// # Example
///
/// ```
/// use ppfts_engine::{RoundRobinScheduler, Scheduler};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(3);
/// let mut sched = RoundRobinScheduler::new();
/// let mut seen = std::collections::HashSet::new();
/// for _ in 0..6 {
///     seen.insert(sched.next_interaction(3, &mut rng));
/// }
/// assert_eq!(seen.len(), 6); // all 3·2 ordered pairs in one round
/// ```
#[derive(Clone, Debug, Default)]
pub struct RoundRobinScheduler {
    round: Vec<Interaction>,
    n: usize,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler.
    pub fn new() -> Self {
        RoundRobinScheduler {
            round: Vec::new(),
            n: 0,
        }
    }

    fn refill(&mut self, n: usize, rng: &mut dyn RngCore) {
        self.n = n;
        self.round.clear();
        for s in 0..n {
            for r in 0..n {
                if s != r {
                    self.round
                        .push(Interaction::new(s, r).expect("distinct by construction"));
                }
            }
        }
        // Fisher–Yates using the shared RNG; drawing from the back below.
        for i in (1..self.round.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.round.swap(i, j);
        }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn next_interaction(&mut self, n: usize, rng: &mut dyn RngCore) -> Interaction {
        assert!(n >= 2, "population must have at least 2 agents");
        if self.round.is_empty() || self.n != n {
            self.refill(n, rng);
        }
        self.round.pop().expect("refilled above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_all_pairs() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut sched = UniformScheduler::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            seen.insert(sched.next_interaction(4, &mut rng));
        }
        assert_eq!(seen.len(), 12, "all 4·3 ordered pairs should appear");
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut sched = UniformScheduler::new();
        let mut counts = std::collections::HashMap::new();
        let trials = 12_000;
        for _ in 0..trials {
            *counts
                .entry(sched.next_interaction(3, &mut rng))
                .or_insert(0u32) += 1;
        }
        let expect = trials as f64 / 6.0;
        for (_, c) in counts {
            assert!((c as f64) > expect * 0.8 && (c as f64) < expect * 1.2);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 agents")]
    fn uniform_rejects_singleton() {
        let mut rng = SmallRng::seed_from_u64(0);
        UniformScheduler::new().next_interaction(1, &mut rng);
    }

    #[test]
    fn round_robin_round_is_a_permutation_of_all_pairs() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut sched = RoundRobinScheduler::new();
        for _round in 0..3 {
            let mut seen = std::collections::HashSet::new();
            for _ in 0..20 {
                assert!(seen.insert(sched.next_interaction(5, &mut rng)));
            }
        }
    }

    #[test]
    fn laws_classify_the_built_in_schedulers() {
        assert_eq!(UniformScheduler::new().law(), InteractionLaw::Uniform);
        assert!(UniformScheduler::new().law().count_realizable());
        assert_eq!(
            RoundRobinScheduler::new().law(),
            InteractionLaw::IndexAddressed
        );
        let complete = TopologyScheduler::new(Topology::complete(4).unwrap());
        assert_eq!(complete.law(), InteractionLaw::Uniform);
        assert_eq!(complete.dealt_topology().map(Topology::len), Some(4));
        let ring = TopologyScheduler::new(Topology::ring(5).unwrap());
        assert_eq!(ring.law(), InteractionLaw::Topological);
        assert!(!ring.law().count_realizable());
        assert_eq!(UniformScheduler::new().dealt_topology(), None);
    }

    #[test]
    fn topology_scheduler_on_complete_matches_uniform_bitwise() {
        let mut uniform = UniformScheduler::new();
        let mut topo = TopologyScheduler::new(Topology::complete(7).unwrap());
        let mut rng_a = SmallRng::seed_from_u64(23);
        let mut rng_b = SmallRng::seed_from_u64(23);
        for _ in 0..1_000 {
            assert_eq!(
                uniform.next_interaction(7, &mut rng_a),
                topo.next_interaction(7, &mut rng_b)
            );
        }
        assert_eq!(rng_a, rng_b, "identical RNG consumption");
    }

    #[test]
    fn topology_scheduler_deals_only_graph_arcs() {
        let ring = Topology::ring(6).unwrap();
        let mut sched = TopologyScheduler::new(ring.clone());
        let mut rng = SmallRng::seed_from_u64(8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3_000 {
            let i = sched.next_interaction(6, &mut rng);
            assert!(ring.contains_arc(i.starter().index(), i.reactor().index()));
            seen.insert(i);
        }
        assert_eq!(seen.len(), ring.arc_count(), "every arc dealt eventually");
    }

    #[test]
    #[should_panic(expected = "topology built for")]
    fn topology_scheduler_rejects_foreign_population_size() {
        let mut sched = TopologyScheduler::new(Topology::ring(6).unwrap());
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = sched.next_interaction(5, &mut rng);
    }

    #[test]
    fn batched_draws_match_per_draw_stream_bitwise() {
        // Uniform: override vs default per-draw loop, same seed.
        let mut one = SmallRng::seed_from_u64(41);
        let mut many = SmallRng::seed_from_u64(41);
        let mut sched = UniformScheduler::new();
        let singles: Vec<Interaction> = (0..257)
            .map(|_| sched.next_interaction(9, &mut one))
            .collect();
        let mut batch = Vec::new();
        sched.next_interactions_into(&mut batch, 257, 9, &mut many);
        assert_eq!(singles, batch);
        assert_eq!(one, many, "identical RNG consumption");

        // Topology (ring = CSR repr, and complete for the uniform law).
        for topo in [Topology::ring(9).unwrap(), Topology::complete(9).unwrap()] {
            let mut sched = TopologyScheduler::new(topo);
            let mut one = SmallRng::seed_from_u64(57);
            let mut many = SmallRng::seed_from_u64(57);
            let singles: Vec<Interaction> = (0..257)
                .map(|_| sched.next_interaction(9, &mut one))
                .collect();
            let mut batch = Vec::new();
            sched.next_interactions_into(&mut batch, 257, 9, &mut many);
            assert_eq!(singles, batch);
            assert_eq!(one, many, "identical RNG consumption");
        }
    }

    #[test]
    fn round_robin_adapts_to_population_change() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut sched = RoundRobinScheduler::new();
        let i = sched.next_interaction(6, &mut rng);
        assert!(i.check_bounds(6).is_ok());
        // Shrinking the population mid-run re-deals a fresh round in bounds.
        for _ in 0..10 {
            let j = sched.next_interaction(2, &mut rng);
            assert!(j.check_bounds(2).is_ok());
        }
    }
}
