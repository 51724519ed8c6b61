//! Omission adversaries.
//!
//! The paper distinguishes adversaries by *how long* they may keep
//! inserting omissive interactions:
//!
//! * **UO** (Unfair Omissive, Definition 1) — may insert finite bursts of
//!   omissive interactions between any two consecutive interactions of the
//!   run, forever → [`RateStrategy`];
//! * **NO** (Eventually Non-Omissive, Definition 2) — inserts omissions
//!   only before finitely many positions → [`HorizonStrategy`] and
//!   [`BoundedStrategy`];
//! * **NO1** — at most one omission in the whole run →
//!   [`AtMostOneStrategy`];
//! * the assumption of simulator `SKnO` — at most `o` omissions ever →
//!   [`BoundedStrategy`];
//! * exact fault schedules for the impossibility constructions →
//!   [`ScriptedOmissions`].
//!
//! Strategies decide only *whether* an interaction is omissive. For
//! two-way models, *which side* loses the transmission is sampled by a
//! [`SidePolicy`].

use std::collections::BTreeSet;

use rand::{Rng, RngCore};

use crate::{Family, TwoWayFault, TwoWayModel};

/// Decision process for omission insertion.
///
/// `decide` is called once per upcoming interaction (in fault-capable
/// models) and returns `true` to make it omissive. Implementations must
/// count their own injections so that experiment reports can audit the
/// number of faults against the assumption under test (e.g. SKnO's bound
/// `o`).
pub trait OmissionStrategy {
    /// Decides whether interaction number `step` is omissive.
    fn decide(&mut self, step: u64, rng: &mut dyn RngCore) -> bool;

    /// Decides whether interaction number `step` is omissive, with sight
    /// of the drawn pair.
    ///
    /// Runners call this entry point, passing the interaction they just
    /// drew when the backend exposes agent identities (`None` on the
    /// anonymous count backend). The default ignores the pair and
    /// forwards to [`decide`](Self::decide), so existing strategies are
    /// unaffected; only *targeted* strategies (e.g. the schedule
    /// compiler's cut-vertex events) override it. On a backend that
    /// passes `None` (the count backend has no agent identities to
    /// target) a targeted strategy degrades to its untargeted behaviour.
    fn decide_at(
        &mut self,
        step: u64,
        interaction: Option<ppfts_population::Interaction>,
        rng: &mut dyn RngCore,
    ) -> bool {
        let _ = interaction;
        self.decide(step, rng)
    }

    /// Total omissions injected so far.
    fn injected(&self) -> u64;

    /// Upper bound on the total omissions this strategy will ever inject,
    /// if one exists (`None` for UO-style strategies).
    fn budget(&self) -> Option<u64> {
        None
    }

    /// The fixed i.i.d. per-interaction omission probability this strategy
    /// realizes, if it is expressible as one (`None` otherwise).
    ///
    /// The batch-epoch path ([`Epochs`](crate::Epochs))
    /// applies many interactions at once, so it cannot consult
    /// [`decide`](Self::decide) per interaction; instead it thins each bulk
    /// pair-group binomially at this rate. Strategies whose decisions depend
    /// on the step index or on history (horizons, budgets, bursts, scripts)
    /// return `None` and are rejected by the epoch path with
    /// [`EngineError::EpochIncompatible`](crate::EngineError::EpochIncompatible).
    fn iid_rate(&self) -> Option<f64> {
        None
    }

    /// Whether [`decide`](OmissionStrategy::decide) may ever consume the
    /// RNG.
    ///
    /// Runners interleave one fault decision after each pair draw on the
    /// shared RNG stream, so pairs can only be drawn in bulk (the batched
    /// fast path) when the fault decisions between them are RNG-free.
    /// The conservative default is `true` (no bulk drawing); strategies
    /// that decide deterministically — [`NoOmissions`],
    /// [`AtMostOneStrategy`], [`ScriptedOmissions`] — override to
    /// `false`. Overriding falsely on a strategy that *does* draw would
    /// silently reorder the RNG stream; the `step_eq_batched_*` rows of
    /// the differential harness (`tests/differential.rs`) pin the
    /// built-in strategies' answers.
    fn uses_rng(&self) -> bool {
        true
    }
}

impl<A: OmissionStrategy + ?Sized> OmissionStrategy for &mut A {
    fn decide(&mut self, step: u64, rng: &mut dyn RngCore) -> bool {
        (**self).decide(step, rng)
    }
    fn decide_at(
        &mut self,
        step: u64,
        interaction: Option<ppfts_population::Interaction>,
        rng: &mut dyn RngCore,
    ) -> bool {
        (**self).decide_at(step, interaction, rng)
    }
    fn injected(&self) -> u64 {
        (**self).injected()
    }
    fn budget(&self) -> Option<u64> {
        (**self).budget()
    }
    fn iid_rate(&self) -> Option<f64> {
        (**self).iid_rate()
    }
    fn uses_rng(&self) -> bool {
        (**self).uses_rng()
    }
}

/// The trivial adversary: never inserts omissions.
///
/// Running an omissive model with `NoOmissions` realizes the collapse
/// arrows of Figure 1 (`T_k → TW`, `I_k → IT`): the adversary simply avoids
/// omissions.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoOmissions;

impl OmissionStrategy for NoOmissions {
    fn decide(&mut self, _step: u64, _rng: &mut dyn RngCore) -> bool {
        false
    }
    fn injected(&self) -> u64 {
        0
    }
    fn budget(&self) -> Option<u64> {
        Some(0)
    }
    fn iid_rate(&self) -> Option<f64> {
        Some(0.0)
    }
    fn uses_rng(&self) -> bool {
        false
    }
}

/// **UO adversary**: each interaction is independently omissive with
/// probability `rate`, forever.
///
/// # Example
///
/// ```
/// use ppfts_engine::{OmissionStrategy, RateStrategy};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut uo = RateStrategy::new(0.5);
/// let flips: u32 = (0..1000).map(|t| uo.decide(t, &mut rng) as u32).sum();
/// assert!(flips > 400 && flips < 600);
/// assert_eq!(uo.injected(), flips as u64);
/// assert_eq!(uo.budget(), None); // unbounded
/// ```
#[derive(Clone, Debug)]
pub struct RateStrategy {
    rate: f64,
    injected: u64,
}

impl RateStrategy {
    /// Creates a UO adversary with the given omission probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn new(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        RateStrategy { rate, injected: 0 }
    }

    /// The configured omission probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl OmissionStrategy for RateStrategy {
    fn decide(&mut self, _step: u64, rng: &mut dyn RngCore) -> bool {
        let omissive = rng.gen_bool(self.rate);
        self.injected += omissive as u64;
        omissive
    }
    fn injected(&self) -> u64 {
        self.injected
    }
    fn iid_rate(&self) -> Option<f64> {
        Some(self.rate)
    }
}

/// **NO adversary**: omissive with probability `rate`, but only before
/// interaction `horizon`; afterwards it never interferes again.
#[derive(Clone, Debug)]
pub struct HorizonStrategy {
    rate: f64,
    horizon: u64,
    injected: u64,
}

impl HorizonStrategy {
    /// Creates an NO adversary active before `horizon` with the given rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn new(rate: f64, horizon: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        HorizonStrategy {
            rate,
            horizon,
            injected: 0,
        }
    }

    /// First step index at which this adversary is guaranteed quiet.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }
}

impl OmissionStrategy for HorizonStrategy {
    fn decide(&mut self, step: u64, rng: &mut dyn RngCore) -> bool {
        if step >= self.horizon {
            return false;
        }
        let omissive = rng.gen_bool(self.rate);
        self.injected += omissive as u64;
        omissive
    }
    fn injected(&self) -> u64 {
        self.injected
    }
    fn budget(&self) -> Option<u64> {
        Some(self.horizon)
    }
}

/// Budgeted adversary: omissive with probability `rate` until `limit`
/// total omissions have been injected — the fault assumption of simulator
/// `SKnO` ("at most `o` omissions in the whole run").
///
/// # Example
///
/// ```
/// use ppfts_engine::{BoundedStrategy, OmissionStrategy};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut adv = BoundedStrategy::new(1.0, 3);
/// let total: u64 = (0..100).map(|t| adv.decide(t, &mut rng) as u64).sum();
/// assert_eq!(total, 3);
/// assert_eq!(adv.budget(), Some(3));
/// ```
#[derive(Clone, Debug)]
pub struct BoundedStrategy {
    rate: f64,
    limit: u64,
    injected: u64,
}

impl BoundedStrategy {
    /// Creates an adversary that injects at most `limit` omissions, each
    /// eligible interaction independently with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn new(rate: f64, limit: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        BoundedStrategy {
            rate,
            limit,
            injected: 0,
        }
    }

    /// Omissions still available to the adversary.
    pub fn remaining(&self) -> u64 {
        self.limit - self.injected
    }
}

impl OmissionStrategy for BoundedStrategy {
    fn decide(&mut self, _step: u64, rng: &mut dyn RngCore) -> bool {
        if self.injected >= self.limit {
            return false;
        }
        let omissive = rng.gen_bool(self.rate);
        self.injected += omissive as u64;
        omissive
    }
    fn injected(&self) -> u64 {
        self.injected
    }
    fn budget(&self) -> Option<u64> {
        Some(self.limit)
    }
}

/// **NO1 adversary**: exactly one omission, at a chosen step.
///
/// # Example
///
/// ```
/// use ppfts_engine::{AtMostOneStrategy, OmissionStrategy};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut no1 = AtMostOneStrategy::at_step(5);
/// let hits: Vec<u64> = (0..10).filter(|&t| no1.decide(t, &mut rng)).collect();
/// assert_eq!(hits, vec![5]);
/// ```
#[derive(Clone, Debug)]
pub struct AtMostOneStrategy {
    target_step: u64,
    injected: u64,
}

impl AtMostOneStrategy {
    /// The single omission hits interaction number `step`.
    pub fn at_step(step: u64) -> Self {
        AtMostOneStrategy {
            target_step: step,
            injected: 0,
        }
    }
}

impl OmissionStrategy for AtMostOneStrategy {
    fn decide(&mut self, step: u64, _rng: &mut dyn RngCore) -> bool {
        if self.injected == 0 && step == self.target_step {
            self.injected = 1;
            true
        } else {
            false
        }
    }
    fn injected(&self) -> u64 {
        self.injected
    }
    fn budget(&self) -> Option<u64> {
        Some(1)
    }
    fn uses_rng(&self) -> bool {
        false
    }
}

/// **UO adversary, burst form** (Definition 1 verbatim): between
/// consecutive interactions of the underlying run, insert a finite
/// sequence of omissive interactions — realized as geometric bursts: with
/// probability `burst_rate` a burst starts, and it continues with
/// probability `continue_rate` per step.
///
/// # Example
///
/// ```
/// use ppfts_engine::{BurstStrategy, OmissionStrategy};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(5);
/// let mut adv = BurstStrategy::new(0.1, 0.7);
/// let pattern: Vec<bool> = (0..2000).map(|t| adv.decide(t, &mut rng)).collect();
/// // Bursts exist: some omission is followed by another omission.
/// assert!(pattern.windows(2).any(|w| w[0] && w[1]));
/// assert!(adv.injected() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct BurstStrategy {
    burst_rate: f64,
    continue_rate: f64,
    in_burst: bool,
    injected: u64,
}

impl BurstStrategy {
    /// Creates a burst adversary: bursts start with probability
    /// `burst_rate` and continue with probability `continue_rate`.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are probabilities and
    /// `continue_rate < 1.0` (bursts must be finite almost surely).
    pub fn new(burst_rate: f64, continue_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&burst_rate),
            "burst rate must be a probability"
        );
        assert!(
            (0.0..1.0).contains(&continue_rate),
            "continue rate must be a probability below 1"
        );
        BurstStrategy {
            burst_rate,
            continue_rate,
            in_burst: false,
            injected: 0,
        }
    }
}

impl OmissionStrategy for BurstStrategy {
    fn decide(&mut self, _step: u64, rng: &mut dyn RngCore) -> bool {
        let omissive = if self.in_burst {
            rng.gen_bool(self.continue_rate)
        } else {
            rng.gen_bool(self.burst_rate)
        };
        self.in_burst = omissive;
        self.injected += omissive as u64;
        omissive
    }
    fn injected(&self) -> u64 {
        self.injected
    }
}

/// Exact fault schedule: omissive precisely at the listed step indices.
///
/// The attack builders of `ppfts-verify` translate the paper's
/// constructions into a [`ScriptedScheduler`](crate::ScriptedScheduler)
/// plus a `ScriptedOmissions`.
#[derive(Clone, Debug, Default)]
pub struct ScriptedOmissions {
    steps: BTreeSet<u64>,
    injected: u64,
}

impl ScriptedOmissions {
    /// Creates a schedule that makes exactly the listed interaction indices
    /// omissive.
    pub fn new(steps: impl IntoIterator<Item = u64>) -> Self {
        ScriptedOmissions {
            steps: steps.into_iter().collect(),
            injected: 0,
        }
    }

    /// Number of scheduled omissions (injected or not).
    pub fn scheduled(&self) -> usize {
        self.steps.len()
    }
}

impl OmissionStrategy for ScriptedOmissions {
    fn decide(&mut self, step: u64, _rng: &mut dyn RngCore) -> bool {
        let omissive = self.steps.contains(&step);
        self.injected += omissive as u64;
        omissive
    }
    fn injected(&self) -> u64 {
        self.injected
    }
    fn budget(&self) -> Option<u64> {
        Some(self.steps.len() as u64)
    }
    fn uses_rng(&self) -> bool {
        false
    }
}

/// How a two-way runner chooses *which side* an omissive interaction hits.
///
/// One-way models have a single possible omission (the lone `s → r`
/// transmission), but in T1–T3 the adversary additionally picks the side.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum SidePolicy {
    /// Sample uniformly among the omissive faults the model permits.
    #[default]
    Uniform,
    /// Always the same side (must be permitted by the model, or the step
    /// fails with [`EngineError::FaultNotInRelation`]).
    ///
    /// [`EngineError::FaultNotInRelation`]: crate::EngineError::FaultNotInRelation
    Always(TwoWayFault),
}

impl SidePolicy {
    /// Concretizes an omission decision into a fault for `model`.
    pub fn pick(self, model: TwoWayModel, rng: &mut dyn RngCore) -> TwoWayFault {
        crate::model::choose(model.omissions(&self), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn no_omissions_never_fires() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut adv = NoOmissions;
        assert!((0..100).all(|t| !adv.decide(t, &mut rng)));
        assert_eq!(adv.budget(), Some(0));
    }

    #[test]
    fn horizon_strategy_goes_quiet() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut adv = HorizonStrategy::new(1.0, 4);
        let pattern: Vec<bool> = (0..8).map(|t| adv.decide(t, &mut rng)).collect();
        assert_eq!(
            pattern,
            [true, true, true, true, false, false, false, false]
        );
        assert_eq!(adv.injected(), 4);
    }

    #[test]
    fn bounded_strategy_respects_budget() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut adv = BoundedStrategy::new(1.0, 2);
        let total: u64 = (0..50).map(|t| adv.decide(t, &mut rng) as u64).sum();
        assert_eq!(total, 2);
        assert_eq!(adv.remaining(), 0);
    }

    #[test]
    fn at_most_one_fires_once_even_if_step_repeats() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut adv = AtMostOneStrategy::at_step(3);
        assert!(!adv.decide(2, &mut rng));
        assert!(adv.decide(3, &mut rng));
        assert!(!adv.decide(3, &mut rng));
        assert_eq!(adv.injected(), 1);
    }

    #[test]
    fn scripted_hits_exactly_listed_steps() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut adv = ScriptedOmissions::new([1, 4]);
        let hits: Vec<u64> = (0..6).filter(|&t| adv.decide(t, &mut rng)).collect();
        assert_eq!(hits, vec![1, 4]);
        assert_eq!(adv.scheduled(), 2);
        assert_eq!(adv.budget(), Some(2));
    }

    #[test]
    fn side_policy_uniform_only_picks_permitted_faults() {
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..200 {
            let f = SidePolicy::Uniform.pick(TwoWayModel::T1, &mut rng);
            assert!(TwoWayModel::T1.permitted_faults().contains(&f));
            assert_ne!(f, TwoWayFault::Both, "T1 prunes both-sides omissions");
        }
        let f = SidePolicy::Always(TwoWayFault::Both).pick(TwoWayModel::T3, &mut rng);
        assert_eq!(f, TwoWayFault::Both);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rate_must_be_probability() {
        let _ = RateStrategy::new(1.5);
    }

    #[test]
    fn uses_rng_classifies_the_built_in_strategies() {
        // Deterministic deciders — eligible for bulk pair drawing.
        assert!(!NoOmissions.uses_rng());
        assert!(!AtMostOneStrategy::at_step(3).uses_rng());
        assert!(!ScriptedOmissions::new([1, 4]).uses_rng());
        // Probabilistic deciders — must stay interleaved.
        assert!(RateStrategy::new(0.1).uses_rng());
        assert!(HorizonStrategy::new(0.1, 10).uses_rng());
        assert!(BoundedStrategy::new(0.1, 2).uses_rng());
        assert!(BurstStrategy::new(0.1, 0.5).uses_rng());
    }

    #[test]
    fn iid_rates_identify_epoch_compatible_strategies() {
        assert_eq!(NoOmissions.iid_rate(), Some(0.0));
        assert_eq!(RateStrategy::new(0.25).iid_rate(), Some(0.25));
        // History- and step-dependent strategies are not i.i.d.
        assert_eq!(HorizonStrategy::new(0.5, 10).iid_rate(), None);
        assert_eq!(BoundedStrategy::new(0.5, 3).iid_rate(), None);
        assert_eq!(AtMostOneStrategy::at_step(1).iid_rate(), None);
        assert_eq!(BurstStrategy::new(0.1, 0.5).iid_rate(), None);
        assert_eq!(ScriptedOmissions::new([2]).iid_rate(), None);
        // The blanket &mut impl forwards: passing `&mut adv` by value
        // makes `A = &mut RateStrategy`, the impl under test.
        #[allow(clippy::needless_pass_by_value)]
        fn rate_of<A: OmissionStrategy>(adv: A) -> Option<f64> {
            adv.iid_rate()
        }
        let mut adv = RateStrategy::new(0.75);
        assert_eq!(rate_of(&mut adv), Some(0.75));
    }

    #[test]
    fn bursts_are_finite_and_counted() {
        let mut rng = SmallRng::seed_from_u64(21);
        let mut adv = BurstStrategy::new(0.05, 0.5);
        let mut longest = 0u32;
        let mut current = 0u32;
        for t in 0..20_000 {
            if adv.decide(t, &mut rng) {
                current += 1;
                longest = longest.max(current);
            } else {
                current = 0;
            }
        }
        assert!(longest >= 2, "bursts should occasionally chain");
        assert!(longest < 100, "bursts are almost surely short");
        assert!(adv.injected() > 0);
        assert_eq!(adv.budget(), None);
    }

    #[test]
    #[should_panic(expected = "below 1")]
    fn burst_continue_rate_must_be_below_one() {
        let _ = BurstStrategy::new(0.1, 1.0);
    }
}
