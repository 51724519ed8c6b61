//! Execution-level population backends.
//!
//! [`ExecBackend`] is the engine-facing half of the population-backend
//! abstraction (the storage half is
//! [`Population`](ppfts_population::Population) in `ppfts-population`):
//! everything a runner needs to *drive* a population — draw the next
//! interacting pair, read its states, and commit an outcome — expressed
//! so that both the dense per-agent vector and the count-based multiset
//! can implement it.
//!
//! The two implementations differ in what a "pair" is:
//!
//! * [`Configuration`] — a pair is an [`Interaction`] (two agent
//!   indices) produced by the runner's [`Scheduler`]. All per-agent
//!   machinery (step records, scripted schedules, planned sequences)
//!   is available.
//! * [`CountConfiguration`] — a pair is the two drawn *states*; agent
//!   identities never exist. Pairs are sampled straight from the counts
//!   with exactly the uniform scheduler's law (see
//!   [`CountConfiguration::sample_pair`]), so only schedulers whose
//!   [`law`](Scheduler::law) is count-realizable
//!   ([`InteractionLaw::Uniform`](crate::InteractionLaw::Uniform)) are
//!   accepted — builders reject anything else with
//!   [`EngineError::CompleteInteractionLawRequired`] before the run
//!   starts. Operations that name agents return
//!   [`EngineError::PerAgentBackendRequired`].

use ppfts_population::{Configuration, CountConfiguration, Interaction, Population, State};
use rand::RngCore;

use crate::{EngineError, Scheduler};

/// What a runner needs from a population backend, beyond the storage view
/// of [`Population`].
///
/// The in-place contract of [`update_pair`](ExecBackend::update_pair)
/// mirrors the program hooks: `f` receives mutable access to the two
/// endpoint states, mutates them to the post-interaction states, and
/// reports `(starter_changed, reactor_changed)` under the state's
/// `PartialEq`. The backend is responsible for making those mutations
/// visible — directly for dense storage, via count adjustment for the
/// count backend.
pub trait ExecBackend: Population {
    /// Address of an interacting pair: agent indices for the dense
    /// backend ([`Interaction`]), the drawn states themselves for the
    /// count backend.
    type Pair: Clone + std::fmt::Debug;

    /// Whether this backend has per-agent identities.
    ///
    /// Builders use this to reject incompatible assemblies *at
    /// construction* instead of mid-run: a backend without agent
    /// identities cannot feed a recording [`TraceSink`] (a `StepRecord`
    /// names its endpoints) and cannot realize an index-addressed
    /// (non-uniform) [`Scheduler`].
    ///
    /// [`TraceSink`]: crate::TraceSink
    const PER_AGENT: bool;

    /// Whether pairs drawn now remain valid addresses after *other*
    /// pairs are applied.
    ///
    /// Index-addressed backends are stable: agent 3 is agent 3 no matter
    /// what happened in between, so a whole batch of pairs can be drawn
    /// up front. State-addressed pairs are not: applying one interaction
    /// changes the counts the next draw must see (and could even consume
    /// the last copy of a drawn state). Runners fall back to interleaved
    /// draw-and-apply — the exact sequential law, with every draw
    /// collision-aware by construction — when this is `false`.
    const STABLE_PAIRS: bool;

    /// Draws the next interacting pair through the scheduler layer,
    /// monomorphized over the scheduler and RNG types so the draw
    /// inlines end to end.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than two agents, or (count
    /// backend) if `scheduler` does not realize the uniform law.
    fn draw_pair<S: Scheduler, R: RngCore>(&self, scheduler: &mut S, rng: &mut R) -> Self::Pair;

    /// Draws `k` pairs into `out` (appending), consuming the RNG stream
    /// exactly as `k` successive [`draw_pair`](ExecBackend::draw_pair)
    /// calls would.
    ///
    /// Only meaningful on [`STABLE_PAIRS`](ExecBackend::STABLE_PAIRS)
    /// backends — drawn pairs must stay valid while the rest of the
    /// batch is drawn. The dense backend routes this through
    /// [`Scheduler::next_interactions_into`], the schedulers' hoisted
    /// monomorphized bulk path; the default loops over
    /// [`draw_pair`](ExecBackend::draw_pair).
    fn draw_pairs_into<S: Scheduler, R: RngCore>(
        &self,
        out: &mut Vec<Self::Pair>,
        k: usize,
        scheduler: &mut S,
        rng: &mut R,
    ) where
        Self: Sized,
    {
        out.reserve(k);
        for _ in 0..k {
            out.push(self.draw_pair(scheduler, rng));
        }
    }

    /// Borrows the states of both endpoints of `pair`.
    ///
    /// # Errors
    ///
    /// Returns an error if the pair does not address two agents of this
    /// population (dense: an endpoint out of bounds).
    fn pair_states<'a>(
        &'a self,
        pair: &'a Self::Pair,
    ) -> Result<(&'a Self::State, &'a Self::State), EngineError>;

    /// Writes the outcome pair to the endpoints of `pair`, returning the
    /// replaced states (free for the dense backend, which swaps them out
    /// by move; the count backend clones them from the pair).
    ///
    /// # Errors
    ///
    /// Same conditions as [`pair_states`](ExecBackend::pair_states);
    /// count backend additionally if the addressed states are not
    /// present with sufficient multiplicity.
    fn commit_pair(
        &mut self,
        pair: &Self::Pair,
        outcome: (Self::State, Self::State),
    ) -> Result<(Self::State, Self::State), EngineError>;

    /// In-place update: hands `f` mutable access to both endpoint states
    /// and commits whatever `f` leaves behind, forwarding its
    /// `(starter_changed, reactor_changed)` report.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error (nothing is committed then) and the same
    /// addressing conditions as [`pair_states`](ExecBackend::pair_states).
    fn update_pair(
        &mut self,
        pair: &Self::Pair,
        f: impl FnOnce(&mut Self::State, &mut Self::State) -> Result<(bool, bool), EngineError>,
    ) -> Result<(bool, bool), EngineError>;

    /// The pair as a per-agent [`Interaction`], if this backend has agent
    /// identities — `None` on the count backend, which makes the runner
    /// surface [`EngineError::PerAgentBackendRequired`] wherever a step
    /// record would be built.
    fn interaction_of(pair: &Self::Pair) -> Option<Interaction>;

    /// The pair addressed by a per-agent [`Interaction`], for replaying
    /// planned sequences.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PerAgentBackendRequired`] on backends
    /// without agent identities.
    fn pair_of(&self, interaction: Interaction) -> Result<Self::Pair, EngineError>;
}

impl<Q: State> ExecBackend for Configuration<Q> {
    type Pair = Interaction;

    const PER_AGENT: bool = true;
    const STABLE_PAIRS: bool = true;

    fn draw_pair<S: Scheduler, R: RngCore>(&self, scheduler: &mut S, rng: &mut R) -> Interaction {
        scheduler.next_interaction(Configuration::len(self), rng)
    }

    fn draw_pairs_into<S: Scheduler, R: RngCore>(
        &self,
        out: &mut Vec<Interaction>,
        k: usize,
        scheduler: &mut S,
        rng: &mut R,
    ) {
        scheduler.next_interactions_into(out, k, Configuration::len(self), rng);
    }

    fn pair_states<'a>(&'a self, pair: &'a Interaction) -> Result<(&'a Q, &'a Q), EngineError> {
        Ok(Configuration::pair_states(self, *pair)?)
    }

    fn commit_pair(&mut self, pair: &Interaction, outcome: (Q, Q)) -> Result<(Q, Q), EngineError> {
        Ok(self.write_pair(*pair, outcome)?)
    }

    fn update_pair(
        &mut self,
        pair: &Interaction,
        f: impl FnOnce(&mut Q, &mut Q) -> Result<(bool, bool), EngineError>,
    ) -> Result<(bool, bool), EngineError> {
        let (s, r) = self.pair_states_mut(*pair)?;
        f(s, r)
    }

    fn interaction_of(pair: &Interaction) -> Option<Interaction> {
        Some(*pair)
    }

    fn pair_of(&self, interaction: Interaction) -> Result<Interaction, EngineError> {
        Ok(interaction)
    }
}

impl<Q: State> ExecBackend for CountConfiguration<Q> {
    /// The drawn (starter, reactor) states; no agent identities exist.
    type Pair = (Q, Q);

    const PER_AGENT: bool = false;
    const STABLE_PAIRS: bool = false;

    fn draw_pair<S: Scheduler, R: RngCore>(&self, scheduler: &mut S, rng: &mut R) -> (Q, Q) {
        // Builders refuse to assemble this combination
        // (EngineError::CompleteInteractionLawRequired); the assert only
        // guards direct ExecBackend callers.
        assert!(
            scheduler.law().count_realizable(),
            "count-based populations sample pairs from state counts and can only \
             realize the uniform complete-graph law; use the dense backend for \
             restricted topologies and index-addressed schedules"
        );
        self.sample_pair(rng)
    }

    fn pair_states<'a>(&'a self, pair: &'a (Q, Q)) -> Result<(&'a Q, &'a Q), EngineError> {
        Ok((&pair.0, &pair.1))
    }

    fn commit_pair(&mut self, pair: &(Q, Q), outcome: (Q, Q)) -> Result<(Q, Q), EngineError> {
        self.apply_outcome(&pair.0, &pair.1, outcome)?;
        Ok(pair.clone())
    }

    fn update_pair(
        &mut self,
        pair: &(Q, Q),
        f: impl FnOnce(&mut Q, &mut Q) -> Result<(bool, bool), EngineError>,
    ) -> Result<(bool, bool), EngineError> {
        let (mut s, mut r) = pair.clone();
        let (s_changed, r_changed) = f(&mut s, &mut r)?;
        if s_changed || r_changed {
            self.apply_outcome(&pair.0, &pair.1, (s, r))?;
        }
        Ok((s_changed, r_changed))
    }

    fn interaction_of(_pair: &(Q, Q)) -> Option<Interaction> {
        None
    }

    fn pair_of(&self, _interaction: Interaction) -> Result<(Q, Q), EngineError> {
        Err(EngineError::PerAgentBackendRequired {
            operation: "replaying a planned interaction sequence",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoundRobinScheduler, UniformScheduler};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn dense_pairs_are_scheduler_interactions() {
        let config = Configuration::new(vec!['a', 'b', 'c']);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sched = UniformScheduler::new();
        let pair = config.draw_pair(&mut sched, &mut rng);
        assert!(pair.check_bounds(3).is_ok());
        assert_eq!(Configuration::<char>::interaction_of(&pair), Some(pair));
        assert_eq!(config.pair_of(pair).unwrap(), pair);
    }

    #[test]
    fn count_pairs_are_state_pairs() {
        let config = CountConfiguration::from_groups([('a', 2), ('b', 1)]);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sched = UniformScheduler::new();
        let pair = config.draw_pair(&mut sched, &mut rng);
        let (s, r) = config.pair_states(&pair).unwrap();
        assert!(['a', 'b'].contains(s) && ['a', 'b'].contains(r));
        assert_eq!(CountConfiguration::<char>::interaction_of(&pair), None);
        assert!(matches!(
            config.pair_of(Interaction::new(0, 1).unwrap()),
            Err(EngineError::PerAgentBackendRequired { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "uniform complete-graph law")]
    fn count_backend_rejects_non_uniform_schedulers() {
        let config = CountConfiguration::from_groups([('a', 2)]);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sched = RoundRobinScheduler::new();
        let _ = config.draw_pair(&mut sched, &mut rng);
    }

    #[test]
    fn count_update_pair_commits_only_changes() {
        let mut config = CountConfiguration::from_groups([(1u8, 2), (2u8, 2)]);
        let pair = (1u8, 2u8);
        // A no-op report leaves counts untouched.
        let (cs, cr) = config
            .update_pair(&pair, |_s, _r| Ok((false, false)))
            .unwrap();
        assert!(!cs && !cr);
        assert_eq!(config.count_state(&1), 2);
        // A change moves counts to the mutated states.
        config
            .update_pair(&pair, |s, r| {
                *s = 9;
                *r = 9;
                Ok((true, true))
            })
            .unwrap();
        assert_eq!(config.count_state(&9), 2);
        assert_eq!(config.count_state(&1), 1);
        assert_eq!(config.count_state(&2), 1);
    }
}
