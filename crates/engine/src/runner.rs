//! Execution drivers.
//!
//! A runner owns a configuration, a [`Scheduler`], an [`OmissionStrategy`],
//! a [`TraceSink`] and a seeded RNG, and drives a program under a fixed
//! interaction model. Runs are fully deterministic given the seed, which is
//! what makes the experiment harnesses and the adversarial constructions
//! reproducible.
//!
//! There is one [`Runner`] for both interaction families, generic over
//! the model: a [`Family`], implemented by [`OneWayModel`] and
//! [`TwoWayModel`] only, supplies the fault type, the fault decision,
//! the bulk-draw gate and the epoch fault mix, and the program reaches
//! the runner through the [`Program`] bridge, blanket-implemented for
//! every [`OneWayProgram`] and [`TwoWayProgram`]. [`OneWayRunner`],
//! [`TwoWayRunner`] and their builders are aliases that fix the family.
//! A runner has three ways to execute steps:
//!
//! * [`run`](Runner::run)`(exec, stop)` — the run driver. `exec` is
//!   [`Batched`]`(b)` on any backend or [`Epochs`] on count backends;
//!   `stop` is a step budget, optionally with a predicate
//!   ([`Stop::until`]) or a quiet window ([`Stop::quiet`]). Every engine
//!   error comes back as `Err`, with the steps before it applied and
//!   counted;
//! * [`step`](Runner::step) — execute one scheduled interaction through
//!   the pure-outcome path and return its full [`StepRecord`] (the scalar
//!   reference of the differential harness, `tests/differential.rs`);
//! * [`apply_planned`](Runner::apply_planned) — execute an exact
//!   sequence of (interaction, fault) pairs, bypassing scheduler and
//!   adversary. This is how the impossibility constructions of the paper
//!   (runs `I_k`, `I*`) are realized.

use ppfts_population::{Configuration, Interaction, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::epoch::EpochBackend;
use crate::{
    EngineError, ExecBackend, Family, NoOmissions, OmissionStrategy, OneWayFault, OneWayModel,
    OneWayProgram, Program, RunStats, Scheduler, SidePolicy, StatsOnly, StepRecord,
    TopologyScheduler, Trace, TraceSink, TwoWayModel, TwoWayProgram, UniformScheduler,
};

/// One pre-planned step: an interaction and its fault decoration.
///
/// # Example
///
/// ```
/// use ppfts_engine::{OneWayFault, Planned};
/// use ppfts_population::Interaction;
///
/// let ok: Planned<OneWayFault> = Planned::ok(Interaction::new(0, 1)?);
/// assert_eq!(ok.fault, OneWayFault::None);
/// let omissive = Planned::new(Interaction::new(0, 1)?, OneWayFault::Omission);
/// assert!(omissive.fault.is_omissive());
/// # Ok::<(), ppfts_population::PopulationError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Planned<F> {
    /// The interacting pair.
    pub interaction: Interaction,
    /// The fault decoration.
    pub fault: F,
}

impl<F> Planned<F> {
    /// Creates a planned step.
    pub fn new(interaction: Interaction, fault: F) -> Self {
        Planned { interaction, fault }
    }
}

impl<F: Default> Planned<F> {
    /// Creates a fault-free planned step.
    pub fn ok(interaction: Interaction) -> Self {
        Planned {
            interaction,
            fault: F::default(),
        }
    }
}

impl Planned<OneWayFault> {
    /// Creates a one-way omissive planned step.
    pub fn omission(interaction: Interaction) -> Self {
        Planned {
            interaction,
            fault: OneWayFault::Omission,
        }
    }
}

/// Why a [`run`](Runner::run) that did not fail stopped.
///
/// A run that fails returns its [`EngineError`] instead; the runner's
/// [`steps`](Runner::steps) and [`stats`](Runner::stats)
/// then count the steps applied before the failing one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The stop condition held: the predicate of [`Stop::until`] or the
    /// window of [`Stop::quiet`]. `steps` is the runner's total
    /// interaction count at that moment.
    Satisfied {
        /// Total interactions executed by the runner so far.
        steps: u64,
    },
    /// The step budget ran out first (always the case for
    /// [`Stop::steps`]).
    Exhausted {
        /// Total interactions executed by the runner so far.
        steps: u64,
    },
}

impl RunOutcome {
    /// Whether the stop condition held.
    pub fn is_satisfied(self) -> bool {
        matches!(self, RunOutcome::Satisfied { .. })
    }

    /// The runner's total interaction count when the run stopped.
    pub fn steps(self) -> u64 {
        match self {
            RunOutcome::Satisfied { steps } | RunOutcome::Exhausted { steps } => steps,
        }
    }
}

/// Execute in batches of `b` steps on any backend: each batch's pairs and
/// faults are drawn up front (interleaved on count backends, whose
/// state-addressed pairs must see every earlier step), then applied
/// through the in-place kernel. For the same seed every `b` gives the
/// same configuration, [`RunStats`] and trace as stepping through
/// [`step`](Runner::step); `b` only sets how often a
/// [`Stop::until`] predicate is sampled, and `Batched(1)` samples it
/// after every step. [`run`](Runner::run) panics if `b` is zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Batched(pub u64);

/// Execute through the batch-epoch path (see [`epoch`](crate::epoch)):
/// batches of ≈ 1.6·√n interactions, whose collision-free interactions
/// are sampled as bulk state splits and whose few collisions are drawn
/// one by one, or exact event steps where changes are sparse. Only
/// [`EpochBackend`]s accept it (a compile-time bound). It reproduces the
/// interleaved law in distribution, not bit for bit; omissions are
/// audited through [`RunStats::omissive_steps`], since bulk thinning
/// bypasses [`OmissionStrategy::decide`]. It fails with
/// [`EngineError::EpochIncompatible`] for an omissive model whose
/// adversary has no fixed i.i.d. rate, or for [`Stop::quiet`]; on error
/// the configuration is left at the last batch or event boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Epochs;

/// When a [`run`](Runner::run) stops: after `budget` further
/// interactions, or earlier when its condition holds.
pub struct Stop<'p, C> {
    budget: u64,
    rule: Rule<'p, C>,
}

enum Rule<'p, C> {
    Budget,
    Until(Box<dyn FnMut(&C) -> bool + 'p>),
    Quiet(u64),
}

impl<'p, C> Stop<'p, C> {
    /// Run exactly `budget` interactions.
    pub fn steps(budget: u64) -> Self {
        Stop {
            budget,
            rule: Rule::Budget,
        }
    }

    /// Run until `predicate` holds on the population — checked before
    /// the first step and then at every `Batched` or `Epochs` boundary — or
    /// `budget` interactions have executed.
    ///
    /// Under [`Batched`]`(b)` the stop overshoots the instant the
    /// predicate first holds by up to `b - 1` steps. Wrap the predicate
    /// in [`stably`](crate::convergence::stably) when a transiently true
    /// (mid-handshake) sample must not end the run. Under [`Epochs`] a
    /// boundary falls after each batch, after each event step, and every
    /// `⌈E[ℓ]⌉` interactions of a configuration no interaction can
    /// change; the step in flight when the budget runs out is truncated
    /// exactly at the budget.
    pub fn until(budget: u64, predicate: impl FnMut(&C) -> bool + 'p) -> Self {
        Stop {
            budget,
            rule: Rule::Until(Box::new(predicate)),
        }
    }

    /// Run until no interaction has changed any state for `window`
    /// consecutive steps ("observed stability"), or `budget`
    /// interactions have executed. Under [`Batched`]`(b)` the window
    /// counts whole batches without a change; [`Epochs`] rejects it.
    ///
    /// Observed stability is a heuristic: a silent window proves nothing
    /// for adversarial schedulers, though under the uniform scheduler
    /// the chance that a non-silent system stays quiet decays
    /// exponentially in the window. For exact convergence use the
    /// silence checks in [`convergence`](crate::convergence) or the
    /// model checker in `ppfts-analyze`.
    pub fn quiet(budget: u64, window: u64) -> Self {
        Stop {
            budget,
            rule: Rule::Quiet(window),
        }
    }
}

/// How [`run`](Runner::run) executes steps on runner `R` with
/// population backend `C`: implemented by [`Batched`] for every backend
/// and by [`Epochs`] for [`EpochBackend`]s only.
pub trait Exec<R, C> {
    /// Runs `runner` until `stop`. [`run`](Runner::run) calls
    /// this after checking a [`Stop::until`] predicate on the initial
    /// configuration; call `run`, not this.
    ///
    /// # Errors
    ///
    /// Any [`EngineError`] a step (or epoch) raises.
    fn drive(self, runner: &mut R, stop: Stop<'_, C>) -> Result<RunOutcome, EngineError>;
}

/// Execution driver for both interaction families: model `M` (a
/// [`Family`]: [`OneWayModel`] or [`TwoWayModel`]), program `P`,
/// scheduler `S`, omission adversary `A`, trace sink `T` and population
/// backend `C`. [`OneWayRunner`] and [`TwoWayRunner`] name the two
/// families.
///
/// See the `runner` module docs for the surface and the crate example
/// for end-to-end usage.
pub struct Runner<
    M: Family,
    P: Program<M>,
    S = UniformScheduler,
    A = NoOmissions,
    T = StatsOnly,
    C = Configuration<<P as Program<M>>::State>,
> {
    model: M,
    program: P,
    config: C,
    scheduler: S,
    adversary: A,
    side_policy: SidePolicy,
    rng: SmallRng,
    next_index: u64,
    stats: RunStats,
    sink: T,
}

/// Execution driver for the one-way family (IT, IO, I1–I4).
pub type OneWayRunner<
    P,
    S = UniformScheduler,
    A = NoOmissions,
    T = StatsOnly,
    C = Configuration<<P as OneWayProgram>::State>,
> = Runner<OneWayModel, P, S, A, T, C>;

/// Execution driver for the two-way family (TW, T1–T3).
///
/// In omissive two-way models the adversary decides *whether* a step is
/// omissive and the builder's [`SidePolicy`] decides *which side(s)*
/// lose the transmission.
pub type TwoWayRunner<
    P,
    S = UniformScheduler,
    A = NoOmissions,
    T = StatsOnly,
    C = Configuration<<P as TwoWayProgram>::State>,
> = Runner<TwoWayModel, P, S, A, T, C>;

/// The step record of a runner under model `M` running program `P`.
type Record<M, P> = StepRecord<<P as Program<M>>::State, <M as Family>::Fault>;

impl<M: Family, P: Program<M>> Runner<M, P> {
    /// Starts building a runner for `program` under `model`.
    pub fn builder(model: M, program: P) -> RunnerBuilder<M, P> {
        RunnerBuilder {
            model,
            program,
            config: None,
            scheduler: UniformScheduler::new(),
            adversary: NoOmissions,
            side_policy: SidePolicy::Uniform,
            seed: 0x9f75_53c1,
            sink: StatsOnly,
        }
    }
}

impl<M, P, S, A, T, C> Runner<M, P, S, A, T, C>
where
    M: Family,
    P: Program<M>,
    S: Scheduler,
    A: OmissionStrategy,
    T: TraceSink<P::State, M::Fault>,
    C: ExecBackend<State = P::State>,
{
    /// The interaction model in force.
    pub fn model(&self) -> M {
        self.model
    }

    /// The program being executed.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The current population (dense [`Configuration`] by default; see
    /// [`RunnerBuilder::population`] for the count backend).
    pub fn config(&self) -> &C {
        &self.config
    }

    /// Total interactions executed so far.
    pub fn steps(&self) -> u64 {
        self.next_index
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The adversary, e.g. to audit [`OmissionStrategy::injected`].
    pub fn adversary(&self) -> &A {
        &self.adversary
    }

    /// The trace sink.
    pub fn sink(&self) -> &T {
        &self.sink
    }

    /// The recorded trace so far, if the sink retains one.
    pub fn trace(&self) -> Option<&Trace<P::State, M::Fault>> {
        self.sink.trace()
    }

    /// Removes and returns the trace recorded so far, leaving an empty
    /// one in place (the sink keeps recording as before).
    pub fn take_trace(&mut self) -> Option<Trace<P::State, M::Fault>> {
        self.sink.take_trace()
    }

    /// Runs until `stop`, executing steps as `exec` says: [`Batched`]`(b)`
    /// on any backend, [`Epochs`] on count backends.
    ///
    /// # Errors
    ///
    /// Fault-relation violations (cannot happen with the built-in
    /// adversaries and side policies restricted to the model's permitted
    /// faults), bounds errors from custom schedulers, and for [`Epochs`]
    /// the conditions listed there. The steps before the failing one stay
    /// applied and counted in [`steps`](Self::steps) and
    /// [`stats`](Self::stats).
    ///
    /// # Panics
    ///
    /// Panics on `Batched(0)`.
    pub fn run<E: Exec<Self, C>>(
        &mut self,
        exec: E,
        mut stop: Stop<'_, C>,
    ) -> Result<RunOutcome, EngineError> {
        if let Rule::Until(predicate) = &mut stop.rule {
            if predicate(&self.config) {
                return Ok(self.outcome(true));
            }
        }
        exec.drive(self, stop)
    }

    /// Executes one scheduled interaction through the pure-outcome path
    /// and returns its record.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run);
    /// [`EngineError::PerAgentBackendRequired`] on count backends, whose
    /// steps name no agents.
    pub fn step(&mut self) -> Result<StepRecord<P::State, M::Fault>, EngineError> {
        let pair = self.config.draw_pair(&mut self.scheduler, &mut self.rng);
        let fault = self.decide_fault(self.next_index, C::interaction_of(&pair));
        Ok(self.execute(&pair, fault, true)?.expect("record requested"))
    }

    /// Executes an exact pre-planned sequence, bypassing the scheduler
    /// and the adversary. Used by the paper's adversarial constructions,
    /// where both the interactions and the omissions are chosen by the
    /// proof.
    ///
    /// # Errors
    ///
    /// Fails if a planned fault is outside the model's transition
    /// relation or an endpoint is out of bounds; earlier planned steps
    /// remain applied.
    pub fn apply_planned(
        &mut self,
        plan: impl IntoIterator<Item = Planned<M::Fault>>,
    ) -> Result<(), EngineError> {
        for p in plan {
            let pair = self.config.pair_of(p.interaction)?;
            self.apply_batch(std::slice::from_ref(&pair), std::iter::once(p.fault))?;
        }
        Ok(())
    }

    /// Benchmark shim: `run(Batched(batch), Stop::steps(steps))`.
    #[doc(hidden)]
    pub fn run_batched(&mut self, steps: u64, batch: u64) -> Result<(), EngineError> {
        self.run(Batched(batch), Stop::steps(steps)).map(drop)
    }

    /// Benchmark shim: `run(Batched(batch), Stop::until(..))`, reading an
    /// engine error as [`RunOutcome::Exhausted`].
    #[doc(hidden)]
    pub fn run_batched_until(
        &mut self,
        max_steps: u64,
        batch: u64,
        predicate: impl FnMut(&C) -> bool,
    ) -> RunOutcome {
        self.run(Batched(batch), Stop::until(max_steps, predicate))
            .unwrap_or(RunOutcome::Exhausted {
                steps: self.next_index,
            })
    }

    /// Benchmark shim: `run(Epochs, Stop::steps(steps))`.
    #[doc(hidden)]
    pub fn run_epochs(&mut self, steps: u64) -> Result<(), EngineError>
    where
        C: EpochBackend,
    {
        self.run(Epochs, Stop::steps(steps)).map(drop)
    }

    /// Benchmark shim: `run(Epochs, Stop::until(..))`.
    #[doc(hidden)]
    pub fn run_epochs_until(
        &mut self,
        max_steps: u64,
        predicate: impl FnMut(&C) -> bool,
    ) -> Result<RunOutcome, EngineError>
    where
        C: EpochBackend,
    {
        self.run(Epochs, Stop::until(max_steps, predicate))
    }

    fn outcome(&self, satisfied: bool) -> RunOutcome {
        let steps = self.next_index;
        if satisfied {
            RunOutcome::Satisfied { steps }
        } else {
            RunOutcome::Exhausted { steps }
        }
    }

    /// The record path: the pure outcome, then a compare-and-store.
    /// Serves [`step`](Self::step) (`want_record`) and batches whose sink
    /// is not passive.
    fn execute(
        &mut self,
        pair: &C::Pair,
        fault: M::Fault,
        want_record: bool,
    ) -> Result<Option<Record<M, P>>, EngineError> {
        // Records attribute the step to two agents, which only per-agent
        // backends can do.
        let interaction = C::interaction_of(pair).ok_or(EngineError::PerAgentBackendRequired {
            operation: "building step records",
        })?;
        let (new_s, new_r) = {
            let (s, r) = self.config.pair_states(pair)?;
            self.program.outcome(self.model, s, r, fault)?
        };
        let changed = {
            let (s, r) = self.config.pair_states(pair)?;
            new_s != *s || new_r != *r
        };
        let omissive = M::is_omissive(fault);
        let index = self.next_index;
        self.next_index += 1;
        self.stats.record(omissive, changed);
        let sink_wants = self.sink.wants_record(index, omissive, changed);
        if !want_record && !sink_wants {
            // Zero-clone fast path: nobody needs the record, and an
            // unchanged pair needs no write either.
            if changed {
                self.config.commit_pair(pair, (new_s, new_r))?;
            }
            return Ok(None);
        }
        let (old_starter, old_reactor) = self
            .config
            .commit_pair(pair, (new_s.clone(), new_r.clone()))?;
        let record = StepRecord {
            index,
            interaction,
            fault,
            old_starter,
            old_reactor,
            new_starter: new_s,
            new_reactor: new_r,
        };
        if !want_record {
            self.sink.accept(record);
            return Ok(None);
        }
        if sink_wants {
            self.sink.accept(record.clone());
        }
        Ok(Some(record))
    }

    fn decide_fault(&mut self, index: u64, interaction: Option<Interaction>) -> M::Fault {
        self.model.decide(
            &mut self.adversary,
            self.side_policy,
            index,
            interaction,
            &mut self.rng,
        )
    }

    /// Whether this run's fault decisions never consume the RNG, so a
    /// whole batch of pairs can be drawn in bulk (through the scheduler's
    /// monomorphized
    /// [`next_interactions_into`](Scheduler::next_interactions_into)
    /// path) and still consume the shared stream exactly as the
    /// interleaved pair/fault loop would.
    fn bulk_pairs_ok(&self) -> bool {
        self.model
            .rng_free_faults(&self.adversary, self.side_policy)
    }

    /// Draws and applies the next `take` scheduled steps: the batch
    /// kernel behind [`Batched`]. `pairs` and `faults` are the caller's
    /// buffers, reused from batch to batch.
    ///
    /// The draws consume the shared RNG stream exactly as drawing pair
    /// and fault step by step would. When the fault decisions are
    /// RNG-free ([`bulk_pairs_ok`](Self::bulk_pairs_ok)) the stream is
    /// pairs-only, so all `take` pairs are drawn first through the
    /// backend's monomorphized bulk path, and the fault decisions (still
    /// stateful: budgets, scripts) follow in index order. Fault-free
    /// models never consult the adversary, so their fault column stays
    /// empty. Otherwise each pair is followed by its fault, interleaved.
    fn run_batch(
        &mut self,
        pairs: &mut Vec<C::Pair>,
        faults: &mut Vec<M::Fault>,
        take: u64,
    ) -> Result<(), EngineError> {
        if !C::STABLE_PAIRS {
            // State-addressed pairs (count backend) must see the counts
            // every earlier step produced: draw and apply one step at a
            // time — the exact sequential law.
            for _ in 0..take {
                let pair = self.config.draw_pair(&mut self.scheduler, &mut self.rng);
                let fault = self.decide_fault(self.next_index, C::interaction_of(&pair));
                self.apply_batch(std::slice::from_ref(&pair), std::iter::once(fault))?;
            }
            return Ok(());
        }
        pairs.clear();
        faults.clear();
        if self.bulk_pairs_ok() {
            self.config
                .draw_pairs_into(pairs, take as usize, &mut self.scheduler, &mut self.rng);
            if self.model.allows_omissions() {
                for (k, pair) in pairs.iter().enumerate() {
                    let index = self.next_index + k as u64;
                    faults.push(self.decide_fault(index, C::interaction_of(pair)));
                }
            }
        } else {
            for k in 0..take {
                let pair = self.config.draw_pair(&mut self.scheduler, &mut self.rng);
                faults.push(self.decide_fault(self.next_index + k, C::interaction_of(&pair)));
                pairs.push(pair);
            }
        }
        if faults.is_empty() {
            self.apply_batch(pairs, std::iter::repeat(M::Fault::default()))
        } else {
            self.apply_batch(pairs, faults.iter().copied())
        }
    }

    /// Applies a drawn batch, the `k`-th pair with the `k`-th fault of
    /// `faults`. With a passive sink this runs the tight loop: endpoint
    /// states mutate in place through the program's `*_in_place` hooks
    /// (exactly equivalent to the pure outcome followed by a
    /// compare-and-store), no clones, no records, and [`RunStats`] is
    /// updated once per batch — on error, with the steps applied before
    /// the failing one, which stay applied.
    fn apply_batch(
        &mut self,
        pairs: &[C::Pair],
        faults: impl Iterator<Item = M::Fault>,
    ) -> Result<(), EngineError> {
        if !self.sink.is_passive() {
            for (pair, fault) in pairs.iter().zip(faults) {
                self.execute(pair, fault, false)?;
            }
            return Ok(());
        }
        let Runner {
            model,
            program,
            config,
            stats,
            next_index,
            ..
        } = self;
        let model = *model;
        let mut done = RunStats::default();
        let result = pairs.iter().zip(faults).try_for_each(|(pair, fault)| {
            let (s_changed, r_changed) =
                config.update_pair(pair, |s, r| program.outcome_in_place(model, s, r, fault))?;
            done.steps += 1;
            done.changed_steps += u64::from(s_changed | r_changed);
            done.omissive_steps += u64::from(M::is_omissive(fault));
            Ok(())
        });
        done.noop_steps = done.steps - done.changed_steps;
        *next_index += done.steps;
        stats.merge(&done);
        result
    }
}

impl<M, P, S, A, T, C> Exec<Runner<M, P, S, A, T, C>, C> for Batched
where
    M: Family,
    P: Program<M>,
    S: Scheduler,
    A: OmissionStrategy,
    T: TraceSink<P::State, M::Fault>,
    C: ExecBackend<State = P::State>,
{
    /// One `run_batch` per batch, into buffers reused across batches,
    /// with the stop rule evaluated at each boundary.
    fn drive(
        self,
        runner: &mut Runner<M, P, S, A, T, C>,
        stop: Stop<'_, C>,
    ) -> Result<RunOutcome, EngineError> {
        assert!(self.0 > 0, "batch size must be positive");
        let Stop { budget, mut rule } = stop;
        let (mut pairs, mut faults) = (Vec::new(), Vec::new());
        let (mut remaining, mut quiet) = (budget, 0u64);
        while remaining > 0 {
            let take = remaining.min(self.0);
            let changed = runner.stats.changed_steps;
            runner.run_batch(&mut pairs, &mut faults, take)?;
            remaining -= take;
            let done = match &mut rule {
                Rule::Budget => false,
                Rule::Until(predicate) => predicate(&runner.config),
                Rule::Quiet(window) => {
                    quiet = if runner.stats.changed_steps == changed {
                        quiet + take
                    } else {
                        0
                    };
                    quiet >= *window
                }
            };
            if done {
                return Ok(runner.outcome(true));
            }
        }
        Ok(runner.outcome(false))
    }
}

impl<M, P, S, A, T, C> Exec<Runner<M, P, S, A, T, C>, C> for Epochs
where
    M: Family,
    P: Program<M>,
    S: Scheduler,
    A: OmissionStrategy,
    T: TraceSink<P::State, M::Fault>,
    C: EpochBackend<State = P::State>,
{
    fn drive(
        self,
        runner: &mut Runner<M, P, S, A, T, C>,
        stop: Stop<'_, C>,
    ) -> Result<RunOutcome, EngineError> {
        let boundary: Box<dyn FnMut(&C) -> bool + '_> = match stop.rule {
            Rule::Budget => Box::new(|_: &C| false),
            Rule::Until(predicate) => predicate,
            Rule::Quiet(_) => {
                return Err(EngineError::EpochIncompatible {
                    feature: "quiet-window stops (epochs apply no single steps to watch)",
                })
            }
        };
        // The i.i.d. per-interaction fault mix bulk groups are thinned
        // with.
        let rate = if runner.model.allows_omissions() {
            runner
                .adversary
                .iid_rate()
                .ok_or(EngineError::EpochIncompatible {
                    feature: "omission adversaries without a fixed i.i.d. rate \
                              (step-indexed, budgeted, burst, or scripted schedules)",
                })?
        } else {
            0.0
        };
        let mix = runner.model.fault_mix(runner.side_policy, rate);
        let Runner {
            model,
            program,
            config,
            rng,
            next_index,
            stats,
            ..
        } = runner;
        let model = *model;
        let satisfied = crate::epoch::run_epochs_driver::<M, _, _, _>(
            config,
            rng,
            stats,
            next_index,
            stop.budget,
            &mix,
            |s: &P::State, r: &P::State, fault| program.outcome(model, s, r, fault),
            boundary,
        )?;
        Ok(runner.outcome(satisfied))
    }
}

/// Builder for a [`Runner`]; see [`Runner::builder`].
/// [`OneWayRunnerBuilder`] names the one-way family.
pub struct RunnerBuilder<
    M: Family,
    P: Program<M>,
    S = UniformScheduler,
    A = NoOmissions,
    T = StatsOnly,
    C = Configuration<<P as Program<M>>::State>,
> {
    model: M,
    program: P,
    config: Option<C>,
    scheduler: S,
    adversary: A,
    side_policy: SidePolicy,
    seed: u64,
    sink: T,
}

/// Builder for a [`OneWayRunner`].
pub type OneWayRunnerBuilder<
    P,
    S = UniformScheduler,
    A = NoOmissions,
    T = StatsOnly,
    C = Configuration<<P as OneWayProgram>::State>,
> = RunnerBuilder<OneWayModel, P, S, A, T, C>;

impl<M, P, S, A, T, C> RunnerBuilder<M, P, S, A, T, C>
where
    M: Family,
    P: Program<M>,
    S: Scheduler,
    A: OmissionStrategy,
    T: TraceSink<P::State, M::Fault>,
    C: ExecBackend<State = P::State>,
{
    /// Sets the initial population without changing the backend type
    /// (required unless [`population`](Self::population) is used; the
    /// default backend is the dense [`Configuration`]).
    pub fn config(mut self, config: C) -> Self {
        self.config = Some(config);
        self
    }

    /// Sets the initial population *and* selects its backend — e.g. a
    /// [`CountConfiguration`] for giant anonymous runs.
    ///
    /// Count-backed runners support the full measurement surface
    /// ([`Batched`] and [`Epochs`] runs, [`StatsOnly`] sinks, every
    /// omission adversary) but no per-agent operations: assembling one
    /// with a recording sink fails at `build()` with
    /// [`EngineError::PerAgentBackendRequired`], a scheduler whose law
    /// counts cannot realize (restricted topology, scripted, round-robin)
    /// fails with [`EngineError::CompleteInteractionLawRequired`], and
    /// `step` / `apply_planned` report
    /// [`EngineError::PerAgentBackendRequired`] when called.
    ///
    /// [`CountConfiguration`]: ppfts_population::CountConfiguration
    pub fn population<C2: ExecBackend<State = P::State>>(
        self,
        population: C2,
    ) -> RunnerBuilder<M, P, S, A, T, C2> {
        RunnerBuilder {
            model: self.model,
            program: self.program,
            config: Some(population),
            scheduler: self.scheduler,
            adversary: self.adversary,
            side_policy: self.side_policy,
            seed: self.seed,
            sink: self.sink,
        }
    }

    /// Replaces the scheduler (default: [`UniformScheduler`]).
    pub fn scheduler<S2: Scheduler>(self, scheduler: S2) -> RunnerBuilder<M, P, S2, A, T, C> {
        RunnerBuilder {
            model: self.model,
            program: self.program,
            config: self.config,
            scheduler,
            adversary: self.adversary,
            side_policy: self.side_policy,
            seed: self.seed,
            sink: self.sink,
        }
    }

    /// Schedules interactions over an explicit interaction graph —
    /// shorthand for `scheduler(TopologyScheduler::new(topology))`.
    ///
    /// `build()` checks the topology spans exactly the supplied
    /// population ([`EngineError::TopologySizeMismatch`]) and, on a count
    /// backend, that the topology is complete
    /// ([`EngineError::CompleteInteractionLawRequired`]) — restricted
    /// graphs need agent identities.
    pub fn topology(self, topology: Topology) -> RunnerBuilder<M, P, TopologyScheduler, A, T, C> {
        self.scheduler(TopologyScheduler::new(topology))
    }

    /// Replaces the omission adversary (default: [`NoOmissions`]). Only
    /// consulted when the model's relation has omissive outcomes.
    pub fn adversary<A2: OmissionStrategy>(
        self,
        adversary: A2,
    ) -> RunnerBuilder<M, P, S, A2, T, C> {
        RunnerBuilder {
            model: self.model,
            program: self.program,
            config: self.config,
            scheduler: self.scheduler,
            adversary,
            side_policy: self.side_policy,
            seed: self.seed,
            sink: self.sink,
        }
    }

    /// Replaces the trace sink (default: [`StatsOnly`], the
    /// zero-allocation measurement path). Use
    /// [`FullTrace`](crate::FullTrace) to record every step or
    /// [`SampledTrace`](crate::SampledTrace) for bounded-memory
    /// forensics.
    pub fn trace_sink<T2: TraceSink<P::State, M::Fault>>(
        self,
        sink: T2,
    ) -> RunnerBuilder<M, P, S, A, T2, C> {
        RunnerBuilder {
            model: self.model,
            program: self.program,
            config: self.config,
            scheduler: self.scheduler,
            adversary: self.adversary,
            side_policy: self.side_policy,
            seed: self.seed,
            sink,
        }
    }

    /// Seeds the runner's RNG (scheduler + adversary randomness).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the runner.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidPopulation`] if no population was
    /// supplied or it has fewer than two agents;
    /// [`EngineError::TopologySizeMismatch`] if the scheduler is bound to
    /// a topology of a different size than the population; and, when the
    /// backend has no agent identities (the count backend),
    /// [`EngineError::PerAgentBackendRequired`] for a recording trace
    /// sink (records name their endpoints) or
    /// [`EngineError::CompleteInteractionLawRequired`] for a scheduler
    /// whose [`InteractionLaw`](crate::InteractionLaw) counts cannot
    /// realize — every mismatch is rejected here rather than mid-run.
    pub fn build(self) -> Result<Runner<M, P, S, A, T, C>, EngineError> {
        let config = self
            .config
            .ok_or(EngineError::InvalidPopulation { len: 0 })?;
        if config.len() < 2 {
            return Err(EngineError::InvalidPopulation { len: config.len() });
        }
        if let Some(dealt) = self.scheduler.dealt_topology() {
            if dealt.len() != config.len() {
                return Err(EngineError::TopologySizeMismatch {
                    topology: dealt.len(),
                    population: config.len(),
                });
            }
        }
        if let Some(required) = self.program.required_topology() {
            // A graphical program lays its per-agent state out over the
            // graph's vertices: the population must span them exactly…
            if required.len() != config.len() {
                return Err(EngineError::TopologySizeMismatch {
                    topology: required.len(),
                    population: config.len(),
                });
            }
            // …and the scheduler must deal exactly that graph's arcs. A
            // complete required topology imposes no adjacency
            // constraint, so any uniform-law scheduler realizes it; a
            // restricted one needs a scheduler bound to a structurally
            // equal topology.
            let satisfied = if required.is_complete() {
                self.scheduler.law() == crate::InteractionLaw::Uniform
            } else {
                self.scheduler.dealt_topology() == Some(required)
            };
            if !satisfied {
                return Err(EngineError::ProgramTopologyMismatch {
                    program_topology: required.to_string(),
                    law: self.scheduler.law(),
                });
            }
        }
        if !C::PER_AGENT {
            if !self.sink.is_passive() {
                return Err(EngineError::PerAgentBackendRequired {
                    operation: "recording trace sinks",
                });
            }
            let law = self.scheduler.law();
            if !law.count_realizable() {
                return Err(EngineError::CompleteInteractionLawRequired { law });
            }
        }
        Ok(Runner {
            model: self.model,
            program: self.program,
            config,
            scheduler: self.scheduler,
            adversary: self.adversary,
            side_policy: self.side_policy,
            rng: SmallRng::seed_from_u64(self.seed),
            next_index: 0,
            stats: RunStats::default(),
            sink: self.sink,
        })
    }
}

impl<P, S, A, T, C> RunnerBuilder<TwoWayModel, P, S, A, T, C>
where
    P: TwoWayProgram,
{
    /// Sets the side policy that concretizes omissions (default:
    /// [`SidePolicy::Uniform`]).
    pub fn side_policy(mut self, policy: SidePolicy) -> Self {
        self.side_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AtMostOneStrategy, FullTrace, RateStrategy, SampledTrace, ScriptedOmissions,
        ScriptedScheduler, TwoWayFault,
    };
    use ppfts_population::TableProtocol;

    struct Epidemic;
    impl OneWayProgram for Epidemic {
        type State = bool;
        fn on_receive(&self, s: &bool, r: &bool) -> bool {
            *s || *r
        }
    }

    fn pairing() -> TableProtocol<char> {
        TableProtocol::builder(vec!['s', 'c', 'p', '_'])
            .rule(('c', 'p'), ('s', '_'))
            .rule(('p', 'c'), ('_', 's'))
            .build()
    }

    fn all_infected(c: &Configuration<bool>) -> bool {
        c.as_slice().iter().all(|b| *b)
    }

    fn any_infected(c: &Configuration<bool>) -> bool {
        c.as_slice().iter().any(|b| *b)
    }

    #[test]
    fn epidemic_converges_under_io() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false, false, false, false]))
            .seed(1)
            .build()
            .unwrap();
        let out = runner
            .run(Batched(1), Stop::until(100_000, all_infected))
            .unwrap();
        assert!(out.is_satisfied());
        assert!(out.steps() >= 4, "needs at least one delivery per agent");
    }

    #[test]
    fn determinism_by_seed() {
        let run = |seed: u64| {
            let mut r = OneWayRunner::builder(OneWayModel::I3, Epidemic)
                .config(Configuration::new(vec![true, false, false, false]))
                .adversary(RateStrategy::new(0.3))
                .seed(seed)
                .build()
                .unwrap();
            r.run(Batched(1), Stop::steps(500)).unwrap();
            (r.config().clone(), r.stats())
        };
        assert_eq!(run(42), run(42));
        let (_, s1) = run(42);
        let (_, s2) = run(43);
        assert_ne!(
            (s1.omissive_steps, s1.changed_steps),
            (s2.omissive_steps, s2.changed_steps)
        );
    }

    #[test]
    fn batched_run_matches_scalar_run() {
        let scalar = {
            let mut r = OneWayRunner::builder(OneWayModel::I3, Epidemic)
                .config(Configuration::new(vec![true, false, false, false]))
                .adversary(RateStrategy::new(0.3))
                .seed(42)
                .build()
                .unwrap();
            for _ in 0..500 {
                r.step().unwrap();
            }
            (r.config().clone(), r.stats())
        };
        for batch in [1u64, 7, 64, 500, 1000] {
            let mut r = OneWayRunner::builder(OneWayModel::I3, Epidemic)
                .config(Configuration::new(vec![true, false, false, false]))
                .adversary(RateStrategy::new(0.3))
                .seed(42)
                .trace_sink(StatsOnly)
                .build()
                .unwrap();
            r.run(Batched(batch), Stop::steps(500)).unwrap();
            assert_eq!((r.config().clone(), r.stats()), scalar, "batch {batch}");
            assert_eq!(r.steps(), 500);
        }
    }

    #[test]
    fn bulk_drawn_batches_match_scalar_run_bitwise() {
        // ScriptedOmissions decides without the RNG, so batched runs
        // take the bulk pair-drawing path; the stream, configuration,
        // stats, and fault placement must match the scalar loop exactly.
        let build = || {
            OneWayRunner::builder(OneWayModel::I3, Epidemic)
                .config(Configuration::new(vec![true, false, false, false, false]))
                .scheduler(TopologyScheduler::new(Topology::ring(5).unwrap()))
                .adversary(ScriptedOmissions::new([3, 17, 90, 91]))
                .seed(7)
                .trace_sink(FullTrace::new())
                .build()
                .unwrap()
        };
        let mut scalar = build();
        for _ in 0..200 {
            scalar.step().unwrap();
        }
        for batch in [1u64, 13, 64, 200] {
            let mut batched = build();
            assert!(batched.bulk_pairs_ok());
            batched.run(Batched(batch), Stop::steps(200)).unwrap();
            assert_eq!(batched.config(), scalar.config(), "batch {batch}");
            assert_eq!(batched.stats(), scalar.stats(), "batch {batch}");
            assert_eq!(batched.trace(), scalar.trace(), "batch {batch}");
        }
    }

    #[test]
    fn two_way_bulk_gate_requires_a_draw_free_side_pick() {
        let base = || {
            TwoWayRunner::builder(TwoWayModel::T1, pairing())
                .config(Configuration::new(vec!['c', 'p', 'c', 'p']))
                .adversary(ScriptedOmissions::new([2]))
        };
        // Uniform side pick draws when a fault fires: not bulk-eligible.
        let r = base().build().unwrap();
        assert!(!r.bulk_pairs_ok());
        // A fixed side never draws: bulk-eligible.
        let r = base()
            .side_policy(SidePolicy::Always(TwoWayFault::Reactor))
            .build()
            .unwrap();
        assert!(r.bulk_pairs_ok());
    }

    #[test]
    fn batched_run_feeds_a_recording_sink() {
        let build = || {
            OneWayRunner::builder(OneWayModel::Io, Epidemic)
                .config(Configuration::new(vec![true, false, false]))
                .trace_sink(FullTrace::new())
                .seed(9)
                .build()
                .unwrap()
        };
        let mut scalar = build();
        for _ in 0..40 {
            scalar.step().unwrap();
        }
        let mut batched = build();
        batched.run(Batched(8), Stop::steps(40)).unwrap();
        assert_eq!(scalar.trace(), batched.trace());
        assert_eq!(batched.trace().unwrap().len(), 40);
    }

    #[test]
    fn batched_until_checks_at_boundaries_only() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false, false, false, false]))
            .seed(1)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(Batched(64), Stop::until(100_000, all_infected))
            .unwrap();
        assert!(out.is_satisfied());
        assert!(
            out.steps().is_multiple_of(64),
            "stops only at batch boundaries, got {}",
            out.steps()
        );
    }

    #[test]
    fn batched_until_checks_initial_configuration() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, true]))
            .build()
            .unwrap();
        let out = runner
            .run(Batched(4), Stop::until(10, all_infected))
            .unwrap();
        assert_eq!(out, RunOutcome::Satisfied { steps: 0 });
    }

    #[test]
    fn batched_until_exhausts_budget_exactly() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![false, false]))
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        // 25 is not a multiple of the batch: the tail batch is short.
        let out = runner
            .run(Batched(8), Stop::until(25, any_infected))
            .unwrap();
        assert_eq!(out, RunOutcome::Exhausted { steps: 25 });
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_is_rejected() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false]))
            .build()
            .unwrap();
        let _ = runner.run(Batched(0), Stop::steps(10));
    }

    #[test]
    fn sampled_sink_keeps_interesting_steps() {
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Epidemic)
            .config(Configuration::new(vec![true, false, false, false]))
            .adversary(RateStrategy::new(0.2))
            .seed(11)
            .trace_sink(SampledTrace::every(50))
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(200)).unwrap();
        let trace = runner.trace().unwrap();
        assert!(trace.len() < 200, "no-op steps are dropped");
        let stats = runner.stats();
        assert_eq!(
            trace.omissive_count(|f| f.is_omissive()) as u64,
            stats.omissive_steps,
            "every omissive step is retained"
        );
        assert_eq!(
            trace.changed_count() as u64,
            stats.changed_steps,
            "every state-changing step is retained"
        );
        // The stride heartbeat: indices 0, 50, 100, 150 are all present.
        for idx in [0u64, 50, 100, 150] {
            assert!(trace.iter().any(|r| r.index == idx), "heartbeat {idx}");
        }
    }

    #[test]
    fn adversary_is_not_consulted_in_fault_free_models() {
        // An always-omissive adversary under IO must cause no faults:
        // the model's relation has no omissive outcomes.
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false]))
            .adversary(RateStrategy::new(1.0))
            .seed(3)
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(100)).unwrap();
        assert_eq!(runner.stats().omissive_steps, 0);
        assert_eq!(runner.adversary().injected(), 0);
    }

    #[test]
    fn omissions_fire_in_omissive_models() {
        let mut runner = OneWayRunner::builder(OneWayModel::I1, Epidemic)
            .config(Configuration::new(vec![true, false]))
            .adversary(RateStrategy::new(1.0))
            .seed(3)
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(50)).unwrap();
        assert_eq!(runner.stats().omissive_steps, 50);
        // Under I1 with all transmissions lost, the epidemic never spreads.
        assert_eq!(runner.config().as_slice(), &[true, false]);
    }

    #[test]
    fn planned_steps_execute_verbatim() {
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Epidemic)
            .config(Configuration::new(vec![true, false, false]))
            .trace_sink(FullTrace::new())
            .build()
            .unwrap();
        let plan = vec![
            Planned::omission(Interaction::new(0, 1).unwrap()),
            Planned::ok(Interaction::new(0, 2).unwrap()),
        ];
        runner.apply_planned(plan).unwrap();
        // Omission blocked agent 1; delivery infected agent 2.
        assert_eq!(runner.config().as_slice(), &[true, false, true]);
        let trace = runner.trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert!(trace.records()[0].fault.is_omissive());
        assert!(!trace.records()[1].fault.is_omissive());
    }

    #[test]
    fn planned_omission_in_io_is_rejected() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false]))
            .build()
            .unwrap();
        let err = runner
            .apply_planned([Planned::omission(Interaction::new(0, 1).unwrap())])
            .unwrap_err();
        assert!(matches!(err, EngineError::FaultNotInRelation { .. }));
    }

    #[test]
    fn builder_rejects_tiny_populations() {
        let err = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true]))
            .build();
        assert!(matches!(
            err,
            Err(EngineError::InvalidPopulation { len: 1 })
        ));
        let err = OneWayRunner::builder(OneWayModel::Io, Epidemic).build();
        assert!(matches!(
            err,
            Err(EngineError::InvalidPopulation { len: 0 })
        ));
    }

    #[test]
    fn two_way_pairing_converges_under_tw() {
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, pairing())
            .config(Configuration::from_groups([('c', 3), ('p', 2)]))
            .seed(7)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(1),
                Stop::until(100_000, |c: &Configuration<char>| c.count_state(&'s') == 2),
            )
            .unwrap();
        assert!(out.is_satisfied());
        // Safety: never more paired consumers than producers.
        assert_eq!(runner.config().count_state(&'s'), 2);
        assert_eq!(runner.config().count_state(&'_'), 2);
        assert_eq!(runner.config().count_state(&'c'), 1);
    }

    #[test]
    fn two_way_batched_matches_scalar() {
        let run = |batched: Option<u64>| {
            let mut r = TwoWayRunner::builder(TwoWayModel::T1, pairing())
                .config(Configuration::from_groups([('c', 3), ('p', 3)]))
                .adversary(RateStrategy::new(0.25))
                .side_policy(SidePolicy::Uniform)
                .seed(13)
                .build()
                .unwrap();
            match batched {
                Some(b) => {
                    r.run(Batched(b), Stop::steps(400)).unwrap();
                }
                None => {
                    for _ in 0..400 {
                        r.step().unwrap();
                    }
                }
            }
            (r.config().clone(), r.stats())
        };
        let scalar = run(None);
        for batch in [1, 32, 400] {
            assert_eq!(run(Some(batch)), scalar, "batch {batch}");
        }
    }

    #[test]
    fn two_way_scripted_omission_changes_outcome() {
        // (c, p) meet but the reactor side omits: in T1 the starter still
        // applies fs, turning c -> s while p survives — the exact hazard
        // the paper's impossibility proofs exploit.
        let script = ScriptedScheduler::new(
            vec![Interaction::new(0, 1).unwrap()],
            UniformScheduler::new(),
        );
        let mut runner = TwoWayRunner::builder(TwoWayModel::T1, pairing())
            .config(Configuration::new(vec!['c', 'p']))
            .scheduler(script)
            .adversary(ScriptedOmissions::new([0]))
            .side_policy(SidePolicy::Always(TwoWayFault::Reactor))
            .build()
            .unwrap();
        let rec = runner.step().unwrap();
        assert_eq!(rec.fault, TwoWayFault::Reactor);
        assert_eq!(runner.config().as_slice(), &['s', 'p']);
    }

    #[test]
    fn count_backend_runs_the_full_batched_surface() {
        use ppfts_population::CountConfiguration;
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, pairing())
            .population(CountConfiguration::from_groups([('c', 40), ('p', 60)]))
            .seed(5)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(256),
                Stop::until(
                    10_000_000,
                    crate::convergence::stably(
                        |c: &CountConfiguration<char>| c.count_state(&'s') == 40,
                        2,
                    ),
                ),
            )
            .unwrap();
        assert!(out.is_satisfied());
        // Pairing safety invariants hold on counts exactly as on agents.
        assert_eq!(runner.config().count_state(&'s'), 40);
        assert_eq!(runner.config().count_state(&'_'), 40);
        assert_eq!(runner.config().count_state(&'c'), 0);
        assert_eq!(runner.config().count_state(&'p'), 20);
        assert_eq!(runner.config().len(), 100);
        assert_eq!(runner.stats().steps, out.steps());
    }

    #[test]
    fn count_backend_handles_one_way_omissive_models() {
        use ppfts_population::CountConfiguration;
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, 63)]))
            .adversary(RateStrategy::new(0.2))
            .seed(11)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(64),
                Stop::until(1_000_000, |c: &CountConfiguration<bool>| {
                    c.count_state(&true) == 64
                }),
            )
            .unwrap();
        assert!(out.is_satisfied(), "omissions only delay the epidemic");
        assert!(runner.stats().omissive_steps > 0);
    }

    #[test]
    fn count_backend_rejects_per_agent_operations() {
        use ppfts_population::CountConfiguration;
        let build = || {
            OneWayRunner::builder(OneWayModel::Io, Epidemic)
                .population(CountConfiguration::from_groups([(true, 1), (false, 3)]))
                .trace_sink(StatsOnly)
                .build()
                .unwrap()
        };
        // `step` builds a record, which needs agent identities.
        let err = build().step().unwrap_err();
        assert!(matches!(err, EngineError::PerAgentBackendRequired { .. }));
        // Planned sequences address agents by index.
        let err = build()
            .apply_planned([Planned::ok(Interaction::new(0, 1).unwrap())])
            .unwrap_err();
        assert!(matches!(err, EngineError::PerAgentBackendRequired { .. }));
        // A recording sink would want records that name agents; the
        // mismatch is rejected when the runner is assembled.
        let err = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, 3)]))
            .trace_sink(FullTrace::<bool, OneWayFault>::new())
            .build()
            .err()
            .expect("recording sink on counts must not build");
        assert!(matches!(err, EngineError::PerAgentBackendRequired { .. }));
        // So is an index-addressed scheduler — the typed law negotiation
        // rejects it at build time, naming the offending law.
        let err = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, 3)]))
            .scheduler(crate::RoundRobinScheduler::new())
            .trace_sink(StatsOnly)
            .build()
            .err()
            .expect("non-uniform scheduler on counts must not build");
        assert!(matches!(
            err,
            EngineError::CompleteInteractionLawRequired {
                law: crate::InteractionLaw::IndexAddressed
            }
        ));
        // The `StatsOnly` default is passive and builds fine.
        assert!(OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, 3)]))
            .build()
            .is_ok());
    }

    #[test]
    fn count_backend_run_batched_equals_scalar_run() {
        use ppfts_population::CountConfiguration;
        // `step` needs agent identities, so the count backend's scalar
        // reference is Batched(1).
        let run = |batch: u64| {
            let mut r = TwoWayRunner::builder(TwoWayModel::T1, pairing())
                .population(CountConfiguration::from_groups([('c', 5), ('p', 5)]))
                .adversary(RateStrategy::new(0.25))
                .seed(13)
                .trace_sink(StatsOnly)
                .build()
                .unwrap();
            r.run(Batched(batch), Stop::steps(400)).unwrap();
            (r.config().clone(), r.stats())
        };
        let scalar = run(1);
        for batch in [32, 400] {
            assert_eq!(run(batch), scalar, "batch {batch}");
        }
    }

    #[test]
    fn builder_rejects_tiny_count_populations() {
        use ppfts_population::CountConfiguration;
        let err = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1)]))
            .build();
        assert!(matches!(
            err,
            Err(EngineError::InvalidPopulation { len: 1 })
        ));
    }

    #[test]
    fn topology_builder_runs_on_restricted_graphs() {
        let ring = Topology::ring(8).unwrap();
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(
                (0..8).map(|i| i == 0).collect::<Vec<_>>(),
            ))
            .topology(ring.clone())
            .seed(3)
            .build()
            .unwrap();
        let out = runner
            .run(Batched(1), Stop::until(200_000, all_infected))
            .unwrap();
        assert!(out.is_satisfied(), "epidemic crosses the ring");
        // Every recorded step respects the graph: spot-check via trace.
        let mut traced = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false, false, false]))
            .topology(Topology::ring(4).unwrap())
            .trace_sink(FullTrace::new())
            .seed(5)
            .build()
            .unwrap();
        traced.run(Batched(1), Stop::steps(300)).unwrap();
        let ring4 = Topology::ring(4).unwrap();
        for rec in traced.trace().unwrap() {
            assert!(ring4.contains_arc(
                rec.interaction.starter().index(),
                rec.interaction.reactor().index()
            ));
        }
    }

    #[test]
    fn builder_rejects_topology_population_mismatch() {
        let err = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false, false]))
            .topology(Topology::ring(8).unwrap())
            .build()
            .err()
            .expect("mismatched sizes must not build");
        assert!(matches!(
            err,
            EngineError::TopologySizeMismatch {
                topology: 8,
                population: 3
            }
        ));
    }

    #[test]
    fn count_backend_negotiates_topologies_by_law() {
        use ppfts_population::CountConfiguration;
        // A complete topology deals the uniform law: counts accept it.
        let ok = TwoWayRunner::builder(TwoWayModel::Tw, pairing())
            .population(CountConfiguration::from_groups([('c', 3), ('p', 3)]))
            .topology(Topology::complete(6).unwrap())
            .trace_sink(StatsOnly)
            .build();
        assert!(ok.is_ok());
        // A restricted topology cannot be realized from counts: typed
        // builder error, not a mid-run panic.
        let err = TwoWayRunner::builder(TwoWayModel::Tw, pairing())
            .population(CountConfiguration::from_groups([('c', 3), ('p', 3)]))
            .topology(Topology::ring(6).unwrap())
            .trace_sink(StatsOnly)
            .build()
            .err()
            .expect("restricted topology on counts must not build");
        assert!(matches!(
            err,
            EngineError::CompleteInteractionLawRequired {
                law: crate::InteractionLaw::Topological
            }
        ));
        // The same assembly on the dense backend builds.
        let dense = TwoWayRunner::builder(TwoWayModel::Tw, pairing())
            .config(Configuration::new(vec!['c', 'c', 'c', 'p', 'p', 'p']))
            .topology(Topology::ring(6).unwrap())
            .trace_sink(StatsOnly)
            .build();
        assert!(dense.is_ok());
    }

    #[test]
    fn run_until_checks_initial_configuration() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, true]))
            .build()
            .unwrap();
        let out = runner
            .run(Batched(1), Stop::until(10, all_infected))
            .unwrap();
        assert_eq!(out, RunOutcome::Satisfied { steps: 0 });
    }

    #[test]
    fn run_until_exhausts_budget() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![false, false]))
            .build()
            .unwrap();
        let out = runner
            .run(Batched(1), Stop::until(25, any_infected))
            .unwrap();
        assert_eq!(out, RunOutcome::Exhausted { steps: 25 });
        assert!(!out.is_satisfied());
    }

    #[test]
    fn at_most_one_injects_single_omission() {
        let mut runner = OneWayRunner::builder(OneWayModel::I1, Epidemic)
            .config(Configuration::new(vec![true, false, false]))
            .adversary(AtMostOneStrategy::at_step(0))
            .seed(5)
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(200)).unwrap();
        assert_eq!(runner.stats().omissive_steps, 1);
        assert_eq!(runner.adversary().injected(), 1);
    }

    #[test]
    fn take_trace_leaves_tracing_enabled() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false]))
            .trace_sink(FullTrace::new())
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(3)).unwrap();
        let t1 = runner.take_trace().unwrap();
        assert_eq!(t1.len(), 3);
        runner.run(Batched(1), Stop::steps(2)).unwrap();
        let t2 = runner.take_trace().unwrap();
        assert_eq!(t2.len(), 2);
    }

    #[test]
    fn stats_count_noops_and_changes() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, true]))
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(10)).unwrap();
        // Everyone already infected: every step is a no-op.
        assert_eq!(runner.stats().noop_steps, 10);
        assert_eq!(runner.stats().changed_steps, 0);
    }

    #[test]
    fn stats_only_runner_exposes_no_trace() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false]))
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(5)).unwrap();
        assert!(runner.trace().is_none());
        assert!(runner.take_trace().is_none());
        assert_eq!(runner.sink(), &StatsOnly);
        assert_eq!(runner.stats().steps, 5);
    }

    #[test]
    fn run_epochs_converges_the_epidemic_on_counts() {
        use ppfts_population::CountConfiguration;
        let n = 10_000;
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, n - 1)]))
            .seed(17)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Epochs,
                Stop::until(
                    100_000_000,
                    crate::convergence::stably(
                        |c: &CountConfiguration<bool>| c.count_state(&true) == n,
                        2,
                    ),
                ),
            )
            .unwrap();
        assert!(out.is_satisfied());
        assert_eq!(runner.config().len(), n);
        assert_eq!(runner.config().count_state(&true), n);
        assert_eq!(runner.stats().steps, out.steps());
    }

    #[test]
    fn run_epochs_budget_is_exact_and_conserves_protocol_invariants() {
        use ppfts_population::CountConfiguration;
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, pairing())
            .population(CountConfiguration::from_groups([('c', 400), ('p', 600)]))
            .seed(5)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        runner.run(Epochs, Stop::steps(12_345)).unwrap();
        assert_eq!(runner.steps(), 12_345);
        assert_eq!(runner.stats().steps, 12_345);
        let c = runner.config();
        assert_eq!(c.len(), 1000);
        // Pairing conservation: every 's' is matched by one '_'.
        assert_eq!(c.count_state(&'s'), c.count_state(&'_'));
        // 'c' agents only ever become 's'; 'p' only '_'.
        assert_eq!(c.count_state(&'c') + c.count_state(&'s'), 400);
        assert_eq!(c.count_state(&'p') + c.count_state(&'_'), 600);
    }

    #[test]
    fn run_epochs_thins_omissions_at_the_adversary_rate() {
        use ppfts_population::CountConfiguration;
        let n = 20_000;
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, n - 1)]))
            .adversary(RateStrategy::new(0.2))
            .seed(29)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Epochs,
                Stop::until(100_000_000, |c: &CountConfiguration<bool>| {
                    c.count_state(&true) == n
                }),
            )
            .unwrap();
        assert!(out.is_satisfied(), "omissions only delay the epidemic");
        let frac = runner.stats().omission_fraction();
        assert!(
            (frac - 0.2).abs() < 0.02,
            "omissive fraction {frac} far from the 0.2 rate"
        );
        // Bulk thinning bypasses decide(): the audit lives in RunStats.
        assert_eq!(runner.adversary().injected(), 0);
    }

    #[test]
    fn run_epochs_splits_two_way_omissions_across_sides() {
        use ppfts_population::CountConfiguration;
        // Under T3 + Uniform the mix spreads the rate over
        // starter/reactor/both omissions; the run stays consistent and
        // records the full rate.
        let mut runner = TwoWayRunner::builder(TwoWayModel::T3, pairing())
            .population(CountConfiguration::from_groups([('c', 500), ('p', 500)]))
            .adversary(RateStrategy::new(0.5))
            .side_policy(SidePolicy::Uniform)
            .seed(31)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        runner.run(Epochs, Stop::steps(100_000)).unwrap();
        let frac = runner.stats().omission_fraction();
        assert!(
            (frac - 0.5).abs() < 0.02,
            "omissive fraction {frac} far from the 0.5 rate"
        );
        assert_eq!(runner.config().len(), 1000);
    }

    #[test]
    fn run_epochs_rejects_non_iid_adversaries_with_a_typed_error() {
        use ppfts_population::CountConfiguration;
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, 9)]))
            .adversary(AtMostOneStrategy::at_step(3))
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let err = runner.run(Epochs, Stop::steps(1_000)).unwrap_err();
        assert!(matches!(err, EngineError::EpochIncompatible { .. }));
        // Nothing ran: the rejection happens before the first epoch.
        assert_eq!(runner.steps(), 0);
        assert_eq!(runner.config().count_state(&true), 1);
        // The untouched runner still honours the schedule interleaved.
        runner.run(Batched(1), Stop::steps(1_000)).unwrap();
        assert_eq!(runner.steps(), 1_000);
        assert_eq!(runner.adversary().injected(), 1);
    }

    #[test]
    fn run_epochs_accepts_any_adversary_under_fault_free_models() {
        use ppfts_population::CountConfiguration;
        // Io has no omissions in its relation, so the (non-i.i.d.)
        // adversary is never consulted and the epoch path runs.
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, 9)]))
            .adversary(AtMostOneStrategy::at_step(3))
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        runner.run(Epochs, Stop::steps(1_000)).unwrap();
        assert_eq!(runner.steps(), 1_000);
        assert_eq!(runner.stats().omissive_steps, 0);
    }

    #[test]
    fn run_epochs_draws_the_omission_tally_binomially() {
        use ppfts_population::CountConfiguration;
        // On an all-infected epidemic every fault gives the same outcome,
        // so each group is one mixed class and every omission is tallied.
        // The tally must resolve to Binomial(m, rate) — mean and
        // variance — not to a rounded or otherwise deterministic count.
        let epidemic = TableProtocol::builder(vec![false, true])
            .rule((true, false), (true, true))
            .rule((false, true), (true, true))
            .build();
        let (m, rate, seeds) = (10_000u64, 0.3, 400u64);
        let counts: Vec<f64> = (0..seeds)
            .map(|seed| {
                let mut runner = TwoWayRunner::builder(TwoWayModel::T1, epidemic.clone())
                    .population(CountConfiguration::from_groups([(true, 1_000)]))
                    .adversary(RateStrategy::new(rate))
                    .seed(seed)
                    .trace_sink(StatsOnly)
                    .build()
                    .unwrap();
                runner.run(Epochs, Stop::steps(m)).unwrap();
                assert_eq!(runner.stats().steps, m);
                runner.stats().omissive_steps as f64
            })
            .collect();
        let mean = counts.iter().sum::<f64>() / seeds as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (seeds - 1) as f64;
        let (mu, sigma2) = (m as f64 * rate, m as f64 * rate * (1.0 - rate));
        let se = (sigma2 / seeds as f64).sqrt();
        assert!(
            (mean - mu).abs() < 4.0 * se,
            "omissive mean {mean:.1} vs {mu} (SE {se:.2})"
        );
        // The sample variance's relative SE is ≈ √(2/seeds) ≈ 7%.
        assert!(
            (0.7..=1.3).contains(&(var / sigma2)),
            "omissive variance {var:.0} vs {sigma2}"
        );
    }

    #[test]
    fn run_epochs_surfaces_fault_relation_violations() {
        use ppfts_population::CountConfiguration;
        // T1 permits single-sided omissions only; forcing Both must fail
        // exactly as it does on the interleaved path. At rate 1 the first
        // epoch fails; at rate 0.001 epochs commit first, and the failed
        // epoch must leave stats, steps and omission tally untouched.
        for (rate, commits) in [(1.0, false), (0.001, true)] {
            let mut runner = TwoWayRunner::builder(TwoWayModel::T1, pairing())
                .population(CountConfiguration::from_groups([('c', 500), ('p', 500)]))
                .adversary(RateStrategy::new(rate))
                .side_policy(SidePolicy::Always(TwoWayFault::Both))
                .seed(3)
                .trace_sink(StatsOnly)
                .build()
                .unwrap();
            let err = runner.run(Epochs, Stop::steps(1_000_000)).unwrap_err();
            assert!(matches!(err, EngineError::FaultNotInRelation { .. }));
            assert_eq!(runner.steps() > 0, commits, "rate {rate}");
            assert_eq!(runner.stats().steps, runner.steps());
            assert_eq!(runner.stats().omissive_steps, 0);
        }
    }

    #[test]
    fn run_epochs_until_checks_the_predicate_before_the_first_epoch() {
        use ppfts_population::CountConfiguration;
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .population(CountConfiguration::from_groups([(true, 10)]))
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Epochs,
                Stop::until(1_000, |c: &CountConfiguration<bool>| {
                    c.count_state(&true) == 10
                }),
            )
            .unwrap();
        assert_eq!(out, RunOutcome::Satisfied { steps: 0 });
    }

    /// Deals uniform pairs, except that draw `bad` addresses agent `n`,
    /// one past the population.
    struct OutOfRangeAt {
        bad: u64,
        drawn: u64,
    }

    impl Scheduler for OutOfRangeAt {
        fn next_interaction(&mut self, n: usize, rng: &mut dyn rand::RngCore) -> Interaction {
            self.drawn += 1;
            if self.drawn - 1 == self.bad {
                Interaction::new(0, n).unwrap()
            } else {
                UniformScheduler::new().next_interaction(n, rng)
            }
        }
    }

    /// One stop of each kind, none of which holds within `budget`.
    fn stop_kinds<C: 'static>(budget: u64) -> [Stop<'static, C>; 3] {
        [
            Stop::steps(budget),
            Stop::until(budget, |_: &C| false),
            Stop::quiet(budget, budget + 1),
        ]
    }

    #[test]
    fn error_inside_a_batch_keeps_and_counts_the_steps_before_it() {
        // IO draws pairs only; I3 under a rate adversary fills the fault
        // column, interleaved with the pairs.
        for (model, rate) in [(OneWayModel::Io, 0.0), (OneWayModel::I3, 0.3)] {
            for bad in [0u64, 5, 21, 31] {
                for batch in [1u64, 16] {
                    for (kind, stop) in stop_kinds(64).into_iter().enumerate() {
                        let mut runner = OneWayRunner::builder(model, Epidemic)
                            .config(Configuration::new(vec![true, false, false, false, false]))
                            .scheduler(OutOfRangeAt { bad, drawn: 0 })
                            .adversary(RateStrategy::new(rate))
                            .seed(9)
                            .trace_sink(StatsOnly)
                            .build()
                            .unwrap();
                        assert_eq!(runner.bulk_pairs_ok(), model == OneWayModel::Io);
                        let at = format!("{model:?} at {bad}, Batched({batch}), stop {kind}");
                        let err = runner.run(Batched(batch), stop).unwrap_err();
                        assert!(matches!(err, EngineError::Population(_)), "{at}: {err:?}");
                        let stats = runner.stats();
                        assert_eq!((runner.steps(), stats.steps), (bad, bad), "{at}");
                        assert_eq!(stats.changed_steps + stats.noop_steps, bad, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn fault_outside_the_relation_is_an_error_under_every_stop() {
        // T1 permits single-sided omissions only, so forcing Both fails at
        // the first omission the adversary fires: step 1238 for this seed.
        // No stop may read that failure as an exhausted budget.
        let epidemic = TableProtocol::builder(vec![false, true])
            .rule((true, false), (true, true))
            .rule((false, true), (true, true))
            .build();
        for batch in [1u64, 16] {
            for (kind, stop) in stop_kinds(1_000_000).into_iter().enumerate() {
                let mut runner = TwoWayRunner::builder(TwoWayModel::T1, epidemic.clone())
                    .config(Configuration::new(
                        (0..200).map(|i| i == 0).collect::<Vec<_>>(),
                    ))
                    .adversary(RateStrategy::new(0.001))
                    .side_policy(SidePolicy::Always(TwoWayFault::Both))
                    .seed(3)
                    .build()
                    .unwrap();
                let err = runner.run(Batched(batch), stop).unwrap_err();
                let at = format!("Batched({batch}), stop {kind}");
                assert!(
                    matches!(err, EngineError::FaultNotInRelation { .. }),
                    "{at}"
                );
                assert_eq!((runner.steps(), runner.stats().steps), (1238, 1238), "{at}");
            }
        }
    }

    #[test]
    fn quiet_stop_is_a_typed_error_on_the_epoch_path() {
        use ppfts_population::CountConfiguration;
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, 9)]))
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let err = runner.run(Epochs, Stop::quiet(1_000, 10)).unwrap_err();
        assert!(
            matches!(err, EngineError::EpochIncompatible { .. }),
            "{err:?}"
        );
        assert_eq!(runner.steps(), 0);
        // The interleaved path watches single steps, so counts accept it.
        let out = runner.run(Batched(1), Stop::quiet(100_000, 50)).unwrap();
        assert!(out.is_satisfied());
        assert_eq!(runner.config().count_state(&true), 10);
    }
}
