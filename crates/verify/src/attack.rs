//! Executable impossibility constructions (paper §3).
//!
//! Every impossibility proof in the paper follows the same recipe, built
//! around the Pairing protocol (Definition 5) and the simulator's FTT
//! (Definition 7):
//!
//! 1. find the fastest fault-free two-agent schedule `I` in which the
//!    simulator completes one simulated `(producer, consumer)` transition
//!    — `t = FTT` interactions;
//! 2. for each `k < t`, build the two-agent run `I_k`: the first `k`
//!    steps of `I`, one omissive interaction, then a fair continuation
//!    until the consumer reaches the irrevocable `cs` state (a working
//!    simulator must get there — it cannot distinguish `I_k` from a run
//!    in which the omission never happened);
//! 3. assemble `I*` on `2t+2` agents (`t` producers, `t+2` consumers):
//!    each pair `(a_2k, a_2k+1)` replays `I_k`, with the omissive step
//!    *redirected* so that `a_2t` receives a real transmission and
//!    `a_2t+1` plays the omission generator;
//! 4. run `I*`: the `t` paired consumers plus `a_2t` all reach `cs` —
//!    `t+1 > t = |producers|`, violating Pairing safety.
//!
//! [`lemma1_attack`] implements steps 1–4 against omissive-model
//! simulators (Lemma 1 / Theorem 3.1; demonstrated against `SKnO` run past
//! its omission budget). [`thm32_attack`] implements the Theorem 3.2
//! variant for the weak models I1/I2, in which the redirected interactions
//! are all *real* — the final run contains **zero** omissions, which is
//! why even the NO1 adversary (and in fact no adversary at all) is needed
//! to break any NO1-resilient candidate (demonstrated against
//! [`Optimist`](crate::Optimist)).

use std::error::Error;
use std::fmt;

use ppfts_core::{fastest_transition_time, project, shortest_schedule, step_pair, SimulatorState};
use ppfts_engine::{OneWayFault, OneWayModel, OneWayProgram, OneWayRunner, Planned};
use ppfts_population::{Configuration, Interaction, State};
use ppfts_protocols::{Pairing, PairingState};

/// How an attack ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttackOutcome {
    /// Pairing safety was violated: more consumers were irrevocably paired
    /// than producers exist — the simulator was fooled (the paper's
    /// impossibility materialized).
    SafetyViolated {
        /// Final count of `cs` agents.
        paired: usize,
        /// Number of producers (the bound that was exceeded).
        producers: usize,
    },
    /// The candidate failed to complete a simulated transition under a
    /// single omission — it is not even NO1-resilient, which for the weak
    /// models is the *other* horn of Theorem 3.2's dichotomy.
    NotResilient {
        /// The prefix length `k` whose run `I_k` never completed.
        failed_k: u32,
    },
    /// The construction did not break the simulator (not expected for
    /// a correct reproduction; kept for honesty of reporting).
    Withstood {
        /// Final count of `cs` agents.
        paired: usize,
    },
}

/// Report of one attack construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttackReport {
    /// The interaction model attacked.
    pub model: OneWayModel,
    /// The simulator's measured FTT `t` (Definition 7).
    pub ftt: u32,
    /// Producers in the attacked population (`t`).
    pub producers: usize,
    /// Consumers in the attacked population (`t + 2`).
    pub consumers: usize,
    /// Omissive interactions contained in the final run `I*`.
    pub omissions_in_run: u64,
    /// Total planned interactions executed.
    pub plan_len: usize,
    /// The verdict.
    pub outcome: AttackOutcome,
}

impl AttackReport {
    /// Whether the attack produced the paper's predicted safety violation.
    pub fn violated_safety(&self) -> bool {
        matches!(self.outcome, AttackOutcome::SafetyViolated { .. })
    }
}

/// Attack construction failed structurally.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttackError {
    /// No fault-free two-agent schedule completed a simulated transition
    /// within the search depth — FTT is undefined for this candidate.
    NoTransition {
        /// The depth that was searched.
        max_depth: u32,
    },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::NoTransition { max_depth } => write!(
                f,
                "candidate never simulates a transition within {max_depth} fault-free steps"
            ),
        }
    }
}

impl Error for AttackError {}

/// How the omissive step of each `I_k` is redirected in `I*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Redirect {
    /// Lemma 1 for I3 (reactor-side detection): the `I_k` omission is
    /// oriented `d0 → d1`; in `I*`, a real transmission goes to `a_2t`
    /// (the starter cannot tell the difference) and an omissive one from
    /// `a_2t+1` hits the paired consumer, which detects it like `d1` did.
    Lemma1I3,
    /// Lemma 1 for I4 (starter-side detection), by the paper's symmetry:
    /// the `I_k` omission is oriented `d1 → d0` (so `d1` detects); in
    /// `I*`, the producer's real transmission still goes to `a_2t` (the
    /// reactor of an I4 omission applies the same `g` as the starter of a
    /// real interaction), and the paired consumer *starts* an omissive
    /// interaction towards `a_2t+1`, detecting the loss like `d1` did.
    Lemma1I4,
    /// Theorem 3.2 for I1: a single real transmission to `a_2t` (the
    /// consumer notices nothing on omission, so nothing replaces it).
    Thm32I1,
    /// Theorem 3.2 for I2: real transmissions to `a_2t` and from the
    /// paired consumer to `a_2t+1` (both parties apply the proximity hook
    /// on an I2 omission).
    Thm32I2,
}

impl Redirect {
    /// Orientation of the single omissive interaction appended to each
    /// `I_k` in the two-agent world (0 = `d0`, 1 = `d1`).
    fn omission_orientation(self) -> (usize, usize) {
        match self {
            Redirect::Lemma1I4 => (1, 0),
            _ => (0, 1),
        }
    }
}

fn plan_interaction(s: usize, r: usize) -> Interaction {
    Interaction::new(s, r).expect("attack plans never use self-interactions")
}

/// Simulates the two-agent pair through `schedule` (interaction plus
/// fault decoration per step), returning the final state pair.
fn replay_pair<Sim>(
    model: OneWayModel,
    sim: &Sim,
    d0: Sim::State,
    d1: Sim::State,
    schedule: &[(Interaction, OneWayFault)],
) -> (Sim::State, Sim::State)
where
    Sim: OneWayProgram,
{
    schedule
        .iter()
        .fold((d0, d1), |pair, &(interaction, fault)| {
            step_pair(model, sim, &pair, interaction, fault)
                .expect("fault permitted by construction")
        })
}

/// Builds and executes the paper's `I*` against a candidate simulator of
/// the Pairing protocol, returning the forensic report.
///
/// * With `Redirect::Lemma1` (via [`lemma1_attack`]) this is the Lemma 1 /
///   Theorem 3.1 construction for omissive models.
/// * With the Theorem 3.2 redirects (via [`thm32_attack`]) the final run
///   is omission-free.
fn build_and_run<Sim>(
    model: OneWayModel,
    sim: Sim,
    make_state: impl Fn(PairingState) -> Sim::State,
    redirect: Redirect,
    max_depth: u32,
    extension_cap: u32,
) -> Result<AttackReport, AttackError>
where
    Sim: OneWayProgram + Clone,
    Sim::State: SimulatorState<Simulated = PairingState> + State,
{
    let d0 = make_state(PairingState::Producer);
    let d1 = make_state(PairingState::Consumer);

    // Step 1: FTT and its witness schedule `I`.
    let witness = fastest_transition_time(model, &sim, &Pairing, d0.clone(), d1.clone(), max_depth)
        .ok_or(AttackError::NoTransition { max_depth })?;
    let t = witness.steps;
    let schedule_i = witness.schedule;

    // Step 2: continuations of each `I_k` until the consumer pairs. The
    // paper extends `I_k` to an arbitrary globally fair run without
    // further omissions; we search the fault-free schedule tree for a
    // completing continuation (BFS), which exists iff the candidate
    // really tolerates the single omission.
    let (om_s, om_r) = redirect.omission_orientation();
    let omission_step = plan_interaction(om_s, om_r);
    let mut continuations: Vec<Vec<Interaction>> = Vec::with_capacity(t as usize);
    for k in 0..t {
        let mut prefix: Vec<(Interaction, OneWayFault)> = schedule_i[..k as usize]
            .iter()
            .map(|&i| (i, OneWayFault::None))
            .collect();
        prefix.push((omission_step, OneWayFault::Omission)); // the single omission of I_k
        let (a, b) = replay_pair(model, &sim, d0.clone(), d1.clone(), &prefix);

        let consumer_paired =
            |_: &Sim::State, b: &Sim::State| *b.simulated() == PairingState::Paired;
        match shortest_schedule(model, &sim, a, b, extension_cap, consumer_paired) {
            Some(continuation) => continuations.push(continuation),
            None => {
                return Ok(AttackReport {
                    model,
                    ftt: t,
                    producers: t as usize,
                    consumers: t as usize + 2,
                    omissions_in_run: 0,
                    plan_len: 0,
                    outcome: AttackOutcome::NotResilient { failed_k: k },
                });
            }
        }
    }

    // Step 3: assemble `I*` on 2t+2 agents. Producers at even indices
    // below 2t; consumers at odd indices, plus a_2t and a_2t+1.
    let t_us = t as usize;
    let receiver = 2 * t_us; // a_2t: the extra consumer to be fooled
    let generator = 2 * t_us + 1; // a_2t+1: the omission generator
    let mut plan: Vec<Planned<OneWayFault>> = Vec::new();
    let mut omissions = 0u64;
    let map_pair = |i: Interaction, k: usize| {
        let (s, r) = (i.starter().index(), i.reactor().index());
        plan_interaction(
            if s == 0 { 2 * k } else { 2 * k + 1 },
            if r == 0 { 2 * k } else { 2 * k + 1 },
        )
    };
    for k in 0..t_us {
        for &i in &schedule_i[..k] {
            plan.push(Planned::ok(map_pair(i, k)));
        }
        match redirect {
            Redirect::Lemma1I3 => {
                plan.push(Planned::ok(plan_interaction(2 * k, receiver)));
                plan.push(Planned::omission(plan_interaction(generator, 2 * k + 1)));
                omissions += 1;
            }
            Redirect::Lemma1I4 => {
                plan.push(Planned::ok(plan_interaction(2 * k, receiver)));
                plan.push(Planned::omission(plan_interaction(2 * k + 1, generator)));
                omissions += 1;
            }
            Redirect::Thm32I1 => {
                plan.push(Planned::ok(plan_interaction(2 * k, receiver)));
            }
            Redirect::Thm32I2 => {
                plan.push(Planned::ok(plan_interaction(2 * k, receiver)));
                plan.push(Planned::ok(plan_interaction(2 * k + 1, generator)));
            }
        }
        for &i in &continuations[k] {
            plan.push(Planned::ok(map_pair(i, k)));
        }
    }

    // Step 4: run `I*` and count irrevocably paired consumers.
    let mut states: Vec<Sim::State> = Vec::with_capacity(2 * t_us + 2);
    for _ in 0..t_us {
        states.push(make_state(PairingState::Producer)); // a_2k
        states.push(make_state(PairingState::Consumer)); // a_2k+1
    }
    states.push(make_state(PairingState::Consumer)); // a_2t
    states.push(make_state(PairingState::Consumer)); // a_2t+1
    let mut runner = OneWayRunner::builder(model, sim)
        .config(Configuration::new(states))
        .build()
        .expect("population of 2t+2 >= 2");
    let plan_len = plan.len();
    runner
        .apply_planned(plan)
        .expect("attack plans only use faults permitted by the model");

    let paired = project(runner.config()).count_state(&PairingState::Paired);
    let producers = t_us;
    let outcome = if paired > producers {
        AttackOutcome::SafetyViolated { paired, producers }
    } else {
        AttackOutcome::Withstood { paired }
    };
    Ok(AttackReport {
        model,
        ftt: t,
        producers,
        consumers: t_us + 2,
        omissions_in_run: omissions,
        plan_len,
        outcome,
    })
}

/// The Lemma 1 / Theorem 3.1 construction: builds `I*` with exactly
/// `FTT` omissions against a simulator for an omissive one-way model
/// (I3 or I4) and reports the resulting Pairing safety violation.
///
/// # Errors
///
/// Returns [`AttackError::NoTransition`] if the candidate cannot even
/// complete one fault-free simulated transition within `max_depth` steps.
///
/// # Example
///
/// ```
/// use ppfts_core::{Skno, SknoState};
/// use ppfts_engine::OneWayModel;
/// use ppfts_protocols::Pairing;
/// use ppfts_verify::lemma1_attack;
///
/// // SKnO tolerates 1 omission; Lemma 1 spends FTT = 4 of them.
/// let report = lemma1_attack(
///     OneWayModel::I3,
///     Skno::new(Pairing, 1),
///     SknoState::new,
///     64,
///     256,
/// )?;
/// assert_eq!(report.ftt, 4);
/// assert!(report.violated_safety());
/// # Ok::<(), ppfts_verify::attack::AttackError>(())
/// ```
pub fn lemma1_attack<Sim>(
    model: OneWayModel,
    sim: Sim,
    make_state: impl Fn(PairingState) -> Sim::State,
    max_depth: u32,
    extension_cap: u32,
) -> Result<AttackReport, AttackError>
where
    Sim: OneWayProgram + Clone,
    Sim::State: SimulatorState<Simulated = PairingState> + State,
{
    let redirect = match model {
        OneWayModel::I4 => Redirect::Lemma1I4,
        _ => Redirect::Lemma1I3,
    };
    build_and_run(model, sim, make_state, redirect, max_depth, extension_cap)
}

/// The Theorem 3.2 construction for the weak models I1/I2: the redirected
/// run `I*` contains **zero omissions**, so an NO1-resilient candidate is
/// broken without the adversary doing anything at all.
///
/// # Errors
///
/// Returns [`AttackError::NoTransition`] if the candidate cannot complete
/// one fault-free simulated transition within `max_depth` steps.
///
/// # Panics
///
/// Panics if `model` is not I1 or I2 (the theorem's scope).
pub fn thm32_attack<Sim>(
    model: OneWayModel,
    sim: Sim,
    make_state: impl Fn(PairingState) -> Sim::State,
    max_depth: u32,
    extension_cap: u32,
) -> Result<AttackReport, AttackError>
where
    Sim: OneWayProgram + Clone,
    Sim::State: SimulatorState<Simulated = PairingState> + State,
{
    let redirect = match model {
        OneWayModel::I1 => Redirect::Thm32I1,
        OneWayModel::I2 => Redirect::Thm32I2,
        other => panic!("Theorem 3.2 concerns I1/I2, not {other}"),
    };
    build_and_run(model, sim, make_state, redirect, max_depth, extension_cap)
}

/// Verdict of the Theorem 3.3 (graceful degradation) analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradationReport {
    /// Whether the candidate fully simulates under every single-omission
    /// schedule tested — the premise of a threshold `t_O ≥ 2`.
    pub tolerates_one_omission: bool,
    /// The Lemma 1 attack's outcome when the adversary spends `FTT`
    /// omissions.
    pub beyond_threshold: AttackOutcome,
}

/// Runs the Theorem 3.3 analysis against a candidate in an omissive
/// one-way model: check the single-omission premise with
/// [`no1_resilience`], then drive the Lemma 1 construction past it.
///
/// # Errors
///
/// Returns [`AttackError::NoTransition`] if the candidate never completes
/// a fault-free simulated transition.
pub fn degradation_report<Sim>(
    model: OneWayModel,
    sim: Sim,
    make_state: impl Fn(PairingState) -> Sim::State + Copy,
    max_depth: u32,
    extension_cap: u32,
) -> Result<DegradationReport, AttackError>
where
    Sim: OneWayProgram + Clone,
    Sim::State: SimulatorState<Simulated = PairingState> + State,
{
    let failures = no1_resilience(model, &sim, make_state, 6, 10_000);
    let report = lemma1_attack(model, sim, make_state, max_depth, extension_cap)?;
    Ok(DegradationReport {
        tolerates_one_omission: failures.is_empty(),
        beyond_threshold: report.outcome,
    })
}

/// Checks NO1-resilience of a candidate on two agents: for every omission
/// position in `0..positions` along an alternating prefix, the full
/// simulated `(producer, consumer)` transition must remain *reachable*
/// (searched by BFS within `max_steps` depth) — the faithful liveness
/// criterion under global fairness.
///
/// Returns the positions at which the candidate failed (empty = resilient).
pub fn no1_resilience<Sim>(
    model: OneWayModel,
    sim: &Sim,
    make_state: impl Fn(PairingState) -> Sim::State,
    positions: u32,
    max_steps: u32,
) -> Vec<u32>
where
    Sim: OneWayProgram,
    Sim::State: SimulatorState<Simulated = PairingState> + State,
{
    let forward = plan_interaction(0, 1);
    let backward = plan_interaction(1, 0);
    let fully_done = |a: &Sim::State, b: &Sim::State| {
        *a.simulated() == PairingState::Spent && *b.simulated() == PairingState::Paired
    };
    let mut failures = Vec::new();
    for omit_at in 0..positions {
        // Alternating prefix with the single omission at `omit_at`.
        let prefix: Vec<(Interaction, OneWayFault)> = (0..=omit_at)
            .map(|step| {
                let interaction = if step % 2 == 0 { forward } else { backward };
                let fault = if step == omit_at {
                    OneWayFault::Omission
                } else {
                    OneWayFault::None
                };
                (interaction, fault)
            })
            .collect();
        let (d0, d1) = replay_pair(
            model,
            sim,
            make_state(PairingState::Producer),
            make_state(PairingState::Consumer),
            &prefix,
        );
        if shortest_schedule(model, sim, d0, d1, max_steps, fully_done).is_none() {
            failures.push(omit_at);
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Optimist;
    use ppfts_core::{Skno, SknoState};
    use ppfts_verify_test_helpers::*;

    // Local alias module so the doctest-style helpers stay in one place.
    mod ppfts_verify_test_helpers {
        pub use crate::optimist::OptimistState;
    }

    #[test]
    fn lemma1_breaks_skno_beyond_its_budget() {
        for o in [1u32, 2] {
            let report = lemma1_attack(
                OneWayModel::I3,
                Skno::new(Pairing, o),
                SknoState::new,
                128,
                512,
            )
            .unwrap();
            assert_eq!(report.ftt, 2 * (o + 1));
            assert_eq!(report.omissions_in_run as u32, report.ftt);
            assert!(
                report.violated_safety(),
                "o = {o}: expected violation, got {:?}",
                report.outcome
            );
            if let AttackOutcome::SafetyViolated { paired, producers } = report.outcome {
                assert!(paired > producers, "Lemma 1 promises ≥ t+1 paired");
            }
        }
    }

    #[test]
    fn lemma1_also_breaks_skno_under_i4() {
        let report = lemma1_attack(
            OneWayModel::I4,
            Skno::new(Pairing, 1),
            SknoState::new,
            128,
            512,
        )
        .unwrap();
        assert!(report.violated_safety(), "got {:?}", report.outcome);
    }

    #[test]
    fn skno_is_not_resilient_in_i1_first_horn_of_thm32() {
        // In I1 nobody detects omissions, so SKnO never mints jokers and a
        // single lost token stalls it: the first horn of the dichotomy.
        let failures = no1_resilience(
            OneWayModel::I1,
            &Skno::new(Pairing, 1),
            SknoState::new,
            4,
            2_000,
        );
        assert!(!failures.is_empty());
    }

    #[test]
    fn optimist_is_resilient_but_thm32_breaks_it_with_zero_omissions() {
        // Second horn: Optimist *is* NO1-resilient…
        let failures = no1_resilience(
            OneWayModel::I1,
            &Optimist::new(Pairing),
            OptimistState::new,
            8,
            2_000,
        );
        assert!(failures.is_empty(), "optimist must be NO1-resilient");
        // …so the construction breaks its safety without any omission.
        let report = thm32_attack(
            OneWayModel::I1,
            Optimist::new(Pairing),
            OptimistState::new,
            64,
            256,
        )
        .unwrap();
        assert_eq!(report.omissions_in_run, 0);
        assert!(report.violated_safety(), "got {:?}", report.outcome);
    }

    #[test]
    fn thm32_variant_for_i2() {
        let report = thm32_attack(
            OneWayModel::I2,
            Optimist::new(Pairing),
            OptimistState::new,
            64,
            256,
        )
        .unwrap();
        assert_eq!(report.omissions_in_run, 0);
        assert!(report.violated_safety(), "got {:?}", report.outcome);
    }

    #[test]
    fn skno_within_budget_reports_not_resilient_rather_than_lying() {
        // SKnO with o = 0 claims nothing about omissions; the attack
        // discovers that I_k never completes and says so.
        let report = lemma1_attack(
            OneWayModel::I3,
            Skno::new(Pairing, 0),
            SknoState::new,
            64,
            128,
        )
        .unwrap();
        assert!(matches!(
            report.outcome,
            AttackOutcome::NotResilient { failed_k: 0 }
        ));
    }

    #[test]
    fn degradation_report_corroborates_thm33() {
        let report = degradation_report(
            OneWayModel::I3,
            Skno::new(Pairing, 1),
            SknoState::new,
            128,
            512,
        )
        .unwrap();
        assert!(report.tolerates_one_omission, "SKnO(1) meets the premise");
        assert!(matches!(
            report.beyond_threshold,
            AttackOutcome::SafetyViolated { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "Theorem 3.2 concerns I1/I2")]
    fn thm32_rejects_strong_models() {
        let _ = thm32_attack(
            OneWayModel::I3,
            Optimist::new(Pairing),
            OptimistState::new,
            16,
            64,
        );
    }
}
