//! Convergence detection helpers.
//!
//! A population protocol never halts — it *stabilizes*: eventually no
//! reachable interaction changes any state (the configuration is
//! **silent**), or at least the output stops changing. This module offers
//! the exact, protocol-level silence checks that complement the runners'
//! observational [`Stop::quiet`](crate::Stop::quiet) heuristic, plus the
//! [`stably`] predicate combinator that makes sampled convergence checks
//! quiescence-aware.

use ppfts_population::Population;

use crate::{Family, Program};

/// Whether `config` is **silent** under `program`: no ordered pair of
/// (distinct) present states changes under any fault `model` permits.
///
/// Cost: O(d² · f) where `d` is the number of *distinct* states present
/// and `f` the number of permitted faults — silence is a property of the
/// multiset, not of agent identities.
///
/// # Example
///
/// ```
/// use ppfts_engine::convergence::silent;
/// use ppfts_engine::TwoWayModel;
/// use ppfts_population::{Configuration, FunctionProtocol};
///
/// let or = FunctionProtocol::new(
///     |s: &bool, r: &bool| *s || *r,
///     |s: &bool, r: &bool| *s || *r,
/// );
/// assert!(silent(TwoWayModel::Tw, &or, &Configuration::uniform(true, 4)));
/// assert!(!silent(TwoWayModel::Tw, &or, &Configuration::new(vec![true, false])));
/// ```
pub fn silent<M: Family, P: Program<M>>(
    model: M,
    program: &P,
    config: &impl Population<State = P::State>,
) -> bool {
    let counts = config.counts();
    let noop = |s: &P::State, r: &P::State| {
        model.permitted_faults().iter().all(|&fault| {
            let (s2, r2) = program
                .outcome(model, s, r, fault)
                .expect("fault permitted by the model");
            s2 == *s && r2 == *r
        })
    };
    for (s, cs) in counts.iter() {
        for (r, _) in counts.iter() {
            if s == r && cs < 2 {
                continue; // a lone agent cannot meet itself
            }
            if !noop(s, r) {
                return false;
            }
        }
    }
    true
}

/// Wraps a configuration predicate so it only reports `true` after
/// holding at `window` *consecutive* checks — the quiescence-aware
/// convergence combinator.
///
/// A raw predicate like `|c| paired(c) == k` can be satisfied by a
/// configuration sampled *mid-handshake*: the projected count momentarily
/// reads `k` while a counterpart agent is still inside a simulated
/// interaction, so stopping there hands back a non-quiescent state
/// (the per-step sampling hazard the ROADMAP records). Requiring the
/// predicate to survive a window of consecutive samples filters those
/// transients out: under [`Stop::until`](crate::Stop::until) the window
/// is counted in the driver's boundaries — steps under `Batched(1)`,
/// batches under `Batched(b)` (i.e. `window × b` engine steps), epochs
/// and event steps under `Epochs`.
///
/// `window` of 1 is the raw predicate; a `window` of 0 is rejected.
///
/// # Example
///
/// ```
/// use ppfts_engine::convergence::stably;
/// use ppfts_population::Configuration;
///
/// let mut pred = stably(|c: &Configuration<u8>| c.count_state(&1) == 2, 2);
/// let target = Configuration::new(vec![1, 1]);
/// assert!(!pred(&target)); // first hit: not yet stable
/// assert!(pred(&target));  // second consecutive hit: stable
///
/// let mut pred = stably(|c: &Configuration<u8>| c.count_state(&1) == 2, 2);
/// assert!(!pred(&target));
/// assert!(!pred(&Configuration::new(vec![1, 0]))); // transient dip resets
/// assert!(!pred(&target));
/// assert!(pred(&target));
/// ```
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn stably<C>(mut predicate: impl FnMut(&C) -> bool, window: u64) -> impl FnMut(&C) -> bool {
    assert!(window > 0, "stability window must be positive");
    let mut streak = 0u64;
    move |config| {
        if predicate(config) {
            streak += 1;
        } else {
            streak = 0;
        }
        streak >= window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Batched, OneWayModel, OneWayProgram, Stop, TwoWayModel, TwoWayProgram};
    use ppfts_population::{Configuration, FunctionProtocol};

    fn epidemic() -> impl TwoWayProgram<State = bool> {
        FunctionProtocol::new(|s: &bool, r: &bool| *s || *r, |s: &bool, r: &bool| *s || *r)
    }

    struct OneWayOr;
    impl OneWayProgram for OneWayOr {
        type State = bool;
        fn on_receive(&self, s: &bool, r: &bool) -> bool {
            *s || *r
        }
    }

    #[test]
    fn all_infected_is_silent() {
        assert!(silent(
            TwoWayModel::Tw,
            &epidemic(),
            &Configuration::uniform(true, 5)
        ));
        assert!(silent(
            OneWayModel::Io,
            &OneWayOr,
            &Configuration::uniform(true, 5)
        ));
    }

    #[test]
    fn mixed_is_not_silent() {
        assert!(!silent(
            TwoWayModel::Tw,
            &epidemic(),
            &Configuration::new(vec![true, false, false])
        ));
        assert!(!silent(
            OneWayModel::Io,
            &OneWayOr,
            &Configuration::new(vec![false, true])
        ));
    }

    #[test]
    fn all_clear_is_silent_too() {
        assert!(silent(
            TwoWayModel::Tw,
            &epidemic(),
            &Configuration::uniform(false, 3)
        ));
    }

    #[test]
    fn lone_state_needs_two_copies_to_self_meet() {
        // A protocol where (q, q) reacts but nothing else: a single copy
        // of q is silent, two copies are not.
        let p = FunctionProtocol::new(
            |s: &u8, r: &u8| if *s == 1 && *r == 1 { 2 } else { *s },
            |s: &u8, r: &u8| if *s == 1 && *r == 1 { 2 } else { *r },
        );
        assert!(silent(TwoWayModel::Tw, &p, &Configuration::new(vec![1, 0])));
        assert!(!silent(
            TwoWayModel::Tw,
            &p,
            &Configuration::new(vec![1, 1])
        ));
    }

    #[test]
    fn omissive_models_check_faulty_outcomes_as_well() {
        // A program whose omission-detection hook changes state: silent
        // under TW dynamics but not under T3, where the adversary can
        // trigger `h`.
        struct Detect;
        impl TwoWayProgram for Detect {
            type State = u8;
            fn starter_update(&self, s: &u8, _r: &u8) -> u8 {
                *s
            }
            fn reactor_update(&self, _s: &u8, r: &u8) -> u8 {
                *r
            }
            fn reactor_omission(&self, r: &u8) -> u8 {
                r + 1
            }
        }
        let c = Configuration::new(vec![0u8, 0]);
        assert!(silent(TwoWayModel::Tw, &Detect, &c));
        assert!(!silent(TwoWayModel::T3, &Detect, &c));
    }

    #[test]
    fn stably_requires_a_consecutive_streak() {
        let hot = Configuration::new(vec![true, true]);
        let cold = Configuration::new(vec![true, false]);
        let mut pred = stably(|c: &Configuration<bool>| c.count_state(&true) == 2, 3);
        assert!(!pred(&hot));
        assert!(!pred(&hot));
        assert!(pred(&hot), "third consecutive success fires");
        assert!(pred(&hot), "and stays fired while the predicate holds");
        assert!(!pred(&cold), "a miss resets the streak");
        assert!(!pred(&hot));
        assert!(!pred(&hot));
        assert!(pred(&hot));
    }

    #[test]
    #[should_panic(expected = "stability window")]
    fn stably_rejects_zero_window() {
        let _ = stably(|_: &Configuration<bool>| true, 0)(&Configuration::uniform(true, 2));
    }

    #[test]
    fn stably_filters_batched_transients() {
        // An epidemic under Batched(32) with stably(…, 2): the
        // outcome steps land on a batch boundary and the predicate held at
        // two consecutive boundaries.
        use crate::{OneWayRunner, StatsOnly};
        struct Or;
        impl OneWayProgram for Or {
            type State = bool;
            fn on_receive(&self, s: &bool, r: &bool) -> bool {
                *s || *r
            }
        }
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Or)
            .config(Configuration::new(vec![true, false, false, false]))
            .seed(6)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let everyone = |c: &Configuration<bool>| c.as_slice().iter().all(|b| *b);
        let out = runner
            .run(Batched(32), Stop::until(100_000, stably(everyone, 2)))
            .unwrap();
        assert!(out.is_satisfied());
        assert!(out.steps().is_multiple_of(32));
        assert!(out.steps() >= 64, "needs two boundary confirmations");
    }

    #[test]
    fn runners_detect_observed_stability() {
        use crate::{OneWayRunner, RunOutcome};
        let mut runner = OneWayRunner::builder(OneWayModel::Io, OneWayOr)
            .config(Configuration::new(vec![true, false, false]))
            .seed(4)
            .build()
            .unwrap();
        let out = runner.run(Batched(1), Stop::quiet(100_000, 200)).unwrap();
        // Pinned: the step at which the per-step quiet window closes.
        assert_eq!(out, RunOutcome::Satisfied { steps: 204 });
        // Once observationally stable here, truly silent too.
        assert!(silent(OneWayModel::Io, &OneWayOr, runner.config()));
    }
}
