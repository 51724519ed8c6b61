//! Step-wise auditing of the Pairing problem (paper Definition 5).
//!
//! The Pairing problem is the paper's universal counterexample: every
//! impossibility proof breaks a simulator by driving it into a *safety*
//! violation (more irrevocably-paired consumers than producers), and every
//! possibility proof must preserve all three properties. This module
//! audits an arbitrary execution of a *simulated* Pairing protocol against
//! all three:
//!
//! * **Irrevocability** — only consumers reach `cs`, and an agent in `cs`
//!   never leaves it;
//! * **Safety** — at every step, `#cs ≤ #producers(0)`;
//! * **Liveness** — by the end of the audited window, `#cs` equals
//!   `min(#consumers(0), #producers(0))` and the count is stable.

use ppfts_core::{project, SimulatorState};
use ppfts_engine::{
    Batched, EngineError, OmissionStrategy, OneWayFault, OneWayRunner, RunOutcome, Scheduler, Stop,
    TraceSink,
};
use ppfts_population::{AgentId, Configuration, State};
use ppfts_protocols::PairingState;

use ppfts_engine::convergence::stably;
use ppfts_engine::OneWayProgram;

/// A violation of the Pairing problem discovered by the audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PairingViolation {
    /// An agent left the irrevocable `cs` state.
    Revoked {
        /// The offending agent.
        agent: AgentId,
        /// Engine step at which it happened.
        step: u64,
    },
    /// A non-consumer reached `cs`.
    ForgedPairing {
        /// The offending agent.
        agent: AgentId,
        /// Engine step at which it happened.
        step: u64,
    },
    /// The number of `cs` agents exceeded the number of producers.
    SafetyExceeded {
        /// The observed `cs` count.
        paired: usize,
        /// The initial producer count (the bound).
        producers: usize,
        /// Engine step at which it happened.
        step: u64,
    },
}

/// Outcome of [`audit_pairing`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Initial number of consumers.
    pub consumers: usize,
    /// Initial number of producers.
    pub producers: usize,
    /// All violations found, in order of occurrence.
    pub violations: Vec<PairingViolation>,
    /// Final `cs` count.
    pub paired_final: usize,
    /// Whether liveness held: the final `cs` count equals
    /// `min(consumers, producers)`.
    pub live: bool,
    /// Steps executed.
    pub steps: u64,
}

impl AuditReport {
    /// Whether irrevocability and safety held throughout.
    pub fn safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether the execution solved the Pairing problem in the audited
    /// window.
    pub fn solved(&self) -> bool {
        self.safe() && self.live
    }
}

/// Runs `runner` for up to `max_steps`, auditing the projected Pairing
/// protocol at every step: [`audit_pairing_batched`] with batch size 1
/// (a `Batched(1)` step is bit-identical to
/// [`step`](ppfts_engine::Runner::step)).
///
/// The runner's simulator states must project onto [`PairingState`].
///
/// # Errors
///
/// The [`EngineError`] that ended the run, if one did; the runner keeps
/// the steps applied before it.
///
/// # Example
///
/// See `tests/simulation_correctness.rs` in the repository root, which
/// audits `SKnO` and `SID` end-to-end.
pub fn audit_pairing<P, S, A, T>(
    runner: &mut OneWayRunner<P, S, A, T>,
    max_steps: u64,
) -> Result<AuditReport, EngineError>
where
    P: OneWayProgram,
    P::State: SimulatorState<Simulated = PairingState> + State,
    S: Scheduler,
    A: OmissionStrategy,
    T: TraceSink<P::State, OneWayFault>,
{
    audit_pairing_batched(runner, max_steps, 1)
}

/// Drives the runner in [`Batched`] steps of `batch` and audits the
/// projected Pairing protocol at *batch boundaries*; stops early once
/// liveness is reached and the system has been stable for
/// `min(1000, max_steps/10)` further engine steps.
///
/// Sampled auditing trades resolution for speed: a violation that appears
/// and disappears strictly inside one batch escapes it, but Pairing's
/// interesting violations are sticky — `cs` is irrevocable, so a forged
/// or excess pairing persists to the next boundary. `batch = 1` is the
/// exact per-step [`audit_pairing`].
///
/// # Errors
///
/// The [`EngineError`] that ended the run, if one did — never a report
/// that reads like an exhausted budget. The runner keeps the steps
/// applied before the error, including those earlier in its batch.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn audit_pairing_batched<P, S, A, T>(
    runner: &mut OneWayRunner<P, S, A, T>,
    max_steps: u64,
    batch: u64,
) -> Result<AuditReport, EngineError>
where
    P: OneWayProgram,
    P::State: SimulatorState<Simulated = PairingState> + State,
    S: Scheduler,
    A: OmissionStrategy,
    T: TraceSink<P::State, OneWayFault>,
{
    assert!(batch > 0, "batch size must be positive");
    let mut monitor = PairingMonitor::new(runner.config());
    let stability_window = (max_steps / 10).clamp(1, 1000);
    let mut stable_steps = 0u64;
    let mut steps = 0u64;
    while steps < max_steps {
        let take = (max_steps - steps).min(batch);
        runner.run(Batched(take), Stop::steps(take))?;
        steps += take;
        let paired_now = monitor.observe(runner.config(), steps);
        if paired_now == monitor.expected {
            stable_steps += take;
            if stable_steps >= stability_window {
                break;
            }
        } else {
            stable_steps = 0;
        }
    }
    Ok(monitor.into_report(runner.config(), steps))
}

/// Convenience: run to completion with a plain convergence predicate, no
/// audit, and report whether Pairing stabilized. Runs on the batched
/// path with the predicate wrapped in [`stably`] so a mid-handshake
/// sample cannot end the run.
///
/// # Errors
///
/// The [`EngineError`] that ended the run, if one did.
pub fn pairing_converged<P, S, A, T>(
    runner: &mut OneWayRunner<P, S, A, T>,
    max_steps: u64,
) -> Result<RunOutcome, EngineError>
where
    P: OneWayProgram,
    P::State: SimulatorState<Simulated = PairingState> + State,
    S: Scheduler,
    A: OmissionStrategy,
    T: TraceSink<P::State, OneWayFault>,
{
    let initial = project(runner.config());
    let expected = initial
        .count_state(&PairingState::Consumer)
        .min(initial.count_state(&PairingState::Producer));
    runner.run(
        Batched(CONVERGED_BATCH),
        Stop::until(
            max_steps,
            stably(
                |c| project(c).count_state(&PairingState::Paired) == expected,
                2,
            ),
        ),
    )
}

/// Batch size of [`pairing_converged`]'s boundary checks.
const CONVERGED_BATCH: u64 = 256;

/// Shared audit state: the initial census plus the per-agent pairing
/// history the irrevocability check needs.
struct PairingMonitor {
    consumers: usize,
    producers: usize,
    expected: usize,
    was_paired: Vec<bool>,
    initially_consumer: Vec<bool>,
    violations: Vec<PairingViolation>,
}

impl PairingMonitor {
    fn new<Q>(config: &Configuration<Q>) -> Self
    where
        Q: SimulatorState<Simulated = PairingState> + State,
    {
        let initial = project(config);
        let consumers = initial.count_state(&PairingState::Consumer);
        let producers = initial.count_state(&PairingState::Producer);
        let mut was_paired = vec![false; initial.len()];
        let mut initially_consumer = vec![false; initial.len()];
        for (agent, q) in initial.iter() {
            initially_consumer[agent.index()] = *q == PairingState::Consumer;
            was_paired[agent.index()] = *q == PairingState::Paired;
        }
        PairingMonitor {
            consumers,
            producers,
            expected: consumers.min(producers),
            was_paired,
            initially_consumer,
            violations: Vec::new(),
        }
    }

    /// Audits the projected configuration at `step`, recording any
    /// violations, and returns the current paired count.
    fn observe<Q>(&mut self, config: &Configuration<Q>, step: u64) -> usize
    where
        Q: SimulatorState<Simulated = PairingState> + State,
    {
        let proj = project(config);
        let paired = proj.count_state(&PairingState::Paired);
        if paired > self.producers {
            self.violations.push(PairingViolation::SafetyExceeded {
                paired,
                producers: self.producers,
                step,
            });
        }
        for (agent, q) in proj.iter() {
            let is_paired = *q == PairingState::Paired;
            if self.was_paired[agent.index()] && !is_paired {
                self.violations
                    .push(PairingViolation::Revoked { agent, step });
            }
            if is_paired
                && !self.was_paired[agent.index()]
                && !self.initially_consumer[agent.index()]
            {
                self.violations
                    .push(PairingViolation::ForgedPairing { agent, step });
            }
            self.was_paired[agent.index()] = is_paired;
        }
        paired
    }

    fn into_report<Q>(self, config: &Configuration<Q>, steps: u64) -> AuditReport
    where
        Q: SimulatorState<Simulated = PairingState> + State,
    {
        let paired_final = project(config).count_state(&PairingState::Paired);
        AuditReport {
            consumers: self.consumers,
            producers: self.producers,
            violations: self.violations,
            paired_final,
            live: paired_final == self.expected,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_core::{Sid, Skno};
    use ppfts_engine::{BoundedStrategy, OneWayModel};
    use ppfts_population::Interaction;
    use ppfts_protocols::Pairing;

    fn sims(c: usize, p: usize) -> Vec<PairingState> {
        Pairing::initial(c, p).as_slice().to_vec()
    }

    #[test]
    fn sid_passes_the_full_audit() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
            .config(Sid::<Pairing>::initial(&sims(3, 2)))
            .seed(4)
            .build()
            .unwrap();
        let report = audit_pairing(&mut runner, 400_000).unwrap();
        assert!(report.safe(), "violations: {:?}", report.violations);
        assert!(report.live, "paired {} of 2", report.paired_final);
        assert!(report.solved());
    }

    #[test]
    fn skno_passes_within_its_omission_budget() {
        let o = 1;
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
            .config(Skno::<Pairing>::initial(&sims(2, 3)))
            .adversary(BoundedStrategy::new(0.02, o as u64))
            .seed(8)
            .build()
            .unwrap();
        let report = audit_pairing(&mut runner, 400_000).unwrap();
        assert!(report.safe(), "violations: {:?}", report.violations);
        assert!(report.live);
        assert_eq!(report.paired_final, 2);
    }

    #[test]
    fn batched_audit_matches_scalar_verdict() {
        use ppfts_engine::StatsOnly;
        let build = || {
            OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
                .config(Sid::<Pairing>::initial(&sims(3, 2)))
                .seed(4)
                .trace_sink(StatsOnly)
                .build()
                .unwrap()
        };
        let scalar = audit_pairing(&mut build(), 400_000).unwrap();
        let batched = audit_pairing_batched(&mut build(), 400_000, 128).unwrap();
        assert!(batched.safe(), "violations: {:?}", batched.violations);
        assert!(batched.live);
        assert!(batched.solved());
        assert_eq!(batched.paired_final, scalar.paired_final);
        assert_eq!(batched.consumers, scalar.consumers);
        assert_eq!(batched.producers, scalar.producers);
        assert!(
            batched.steps.is_multiple_of(128) || batched.steps == 400_000,
            "stops at batch boundaries, got {}",
            batched.steps
        );
    }

    /// Deals `(0, 1)` `k` times, then an arc to agent `n`, one past the
    /// population.
    struct OutOfRangeAfter(u64);

    impl Scheduler for OutOfRangeAfter {
        fn next_interaction(&mut self, n: usize, _: &mut dyn rand::RngCore) -> Interaction {
            let reactor = if self.0 == 0 { n } else { 1 };
            self.0 = self.0.saturating_sub(1);
            Interaction::new(0, reactor).unwrap()
        }
    }

    #[test]
    fn engine_errors_end_the_audit_as_errors() {
        // The out-of-range arc after 37 steps is an engine error, not a
        // budget miss: the audit returns it, per step and mid-batch
        // alike, with the steps before it applied.
        for batch in [1u64, 16] {
            let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
                .config(Sid::<Pairing>::initial(&sims(3, 2)))
                .scheduler(OutOfRangeAfter(37))
                .build()
                .unwrap();
            let err = audit_pairing_batched(&mut runner, 400_000, batch).unwrap_err();
            assert!(matches!(err, EngineError::Population(_)), "{err:?}");
            assert_eq!(runner.steps(), 37, "Batched({batch})");
        }
    }

    #[test]
    fn pairing_converged_stabilizes_on_the_batched_path() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
            .config(Sid::<Pairing>::initial(&sims(2, 2)))
            .seed(5)
            .build()
            .unwrap();
        let out = pairing_converged(&mut runner, 2_000_000).unwrap();
        assert!(out.is_satisfied());
        assert_eq!(
            project(runner.config()).count_state(&PairingState::Paired),
            2
        );
    }

    #[test]
    fn report_counts_initial_groups() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
            .config(Sid::<Pairing>::initial(&sims(4, 1)))
            .seed(2)
            .build()
            .unwrap();
        let report = audit_pairing(&mut runner, 200_000).unwrap();
        assert_eq!(report.consumers, 4);
        assert_eq!(report.producers, 1);
        assert_eq!(report.paired_final, 1);
    }
}
