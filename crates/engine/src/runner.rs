//! Execution drivers.
//!
//! A runner owns a configuration, a [`Scheduler`], an [`OmissionStrategy`],
//! a [`TraceSink`] and a seeded RNG, and drives a program under a fixed
//! interaction model. Runs are fully deterministic given the seed, which is
//! what makes the experiment harnesses and the adversarial constructions
//! reproducible.
//!
//! Both families share the same surface:
//!
//! * [`step`](OneWayRunner::step) — execute one interaction and return the
//!   full [`StepRecord`];
//! * [`run`](OneWayRunner::run) — execute a step budget without building
//!   records;
//! * [`run_batched`](OneWayRunner::run_batched) — the same step budget,
//!   drawn batch-wise and applied through the in-place fast path;
//!   bit-identical to [`run`](OneWayRunner::run) for the same seed, but
//!   with per-step record construction and state cloning elided when the
//!   sink is passive;
//! * [`run_until`](OneWayRunner::run_until) /
//!   [`run_batched_until`](OneWayRunner::run_batched_until) — run until a
//!   configuration predicate holds (checked per step, resp. per batch
//!   boundary) or the budget is exhausted. Batch-boundary predicates
//!   compose with [`stably`](crate::convergence::stably) to avoid
//!   terminating on transient mid-handshake projections;
//! * [`apply_planned`](OneWayRunner::apply_planned) — execute an exact
//!   sequence of (interaction, fault) pairs, bypassing scheduler and
//!   adversary. This is how the impossibility constructions of the paper
//!   (runs `I_k`, `I*`) are realized.

use ppfts_population::{Configuration, Interaction, LevelPlan, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{
    outcome, EngineError, ExecBackend, FullTrace, NoOmissions, OmissionStrategy, OneWayFault,
    OneWayModel, OneWayProgram, RunStats, Scheduler, SidePolicy, StepRecord, TopologyScheduler,
    Trace, TraceSink, TwoWayFault, TwoWayModel, TwoWayProgram, UniformScheduler,
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

/// One drawn-but-not-yet-applied step of a batch: a backend pair address
/// plus its fault decoration. The backend-generic sibling of [`Planned`],
/// which stays per-agent because planned sequences are authored in terms
/// of [`Interaction`]s.
#[derive(Clone, Debug)]
struct Drawn<Pr, F> {
    pair: Pr,
    fault: F,
}

/// Result of [`run_until`](OneWayRunner::run_until).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The predicate held; `steps` is the runner's total interaction count
    /// at that moment.
    Satisfied {
        /// Total interactions executed by the runner so far.
        steps: u64,
    },
    /// The step budget was exhausted without the predicate holding.
    Exhausted {
        /// Total interactions executed by the runner so far.
        steps: u64,
    },
}

impl RunOutcome {
    /// Whether the predicate was satisfied.
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

macro_rules! runner_impl {
    (
        $(#[$doc:meta])*
        runner: $Runner:ident,
        builder: $Builder:ident,
        model: $Model:ty,
        fault: $Fault:ty,
        program: $Program:ident,
        compute: |$model_:ident, $program_:ident, $fault_:ident, $s:ident, $r:ident| $compute:expr,
        fast: |$fmodel:ident, $fprogram:ident, $ffault:ident, $fs:ident, $fr:ident| $fast:expr,
        decide: |$dself:ident, $didx:ident, $dint:ident| $decide:expr,
        bulk: |$bself:ident| $bulk:expr,
        mix: |$mmodel:ident, $mpolicy:ident, $mrate:ident| $mix:expr,
    ) => {
        $(#[$doc])*
        pub struct $Runner<
            P: $Program,
            S = UniformScheduler,
            A = NoOmissions,
            T = FullTrace<<P as $Program>::State, $Fault>,
            C = Configuration<<P as $Program>::State>,
        > {
            model: $Model,
            program: P,
            config: C,
            scheduler: S,
            adversary: A,
            // Consulted only by the two-way expansion of this macro.
            #[allow(dead_code)]
            side_policy: SidePolicy,
            rng: SmallRng,
            next_index: u64,
            stats: RunStats,
            sink: T,
            shards: usize,
        }

        impl<P: $Program> $Runner<P> {
            /// Starts building a runner for `program` under `model`.
            pub fn builder(model: $Model, program: P) -> $Builder<P> {
                $Builder {
                    model,
                    program,
                    config: None,
                    scheduler: UniformScheduler::new(),
                    adversary: NoOmissions,
                    side_policy: SidePolicy::Uniform,
                    seed: 0x9f75_53c1,
                    sink: FullTrace::disabled(),
                    shards: 1,
                }
            }
        }

        impl<P, S, A, T, C> $Runner<P, S, A, T, C>
        where
            P: $Program,
            S: Scheduler,
            A: OmissionStrategy,
            T: TraceSink<P::State, $Fault>,
            C: ExecBackend<State = <P as $Program>::State>,
        {
            /// The interaction model in force.
            pub fn model(&self) -> $Model {
                self.model
            }

            /// The program being executed.
            pub fn program(&self) -> &P {
                &self.program
            }

            /// The current population (dense [`Configuration`] by
            /// default; see the builder's `population` method for the
            /// count backend).
            pub fn config(&self) -> &C {
                &self.config
            }

            /// Consumes the runner, returning the final population.
            pub fn into_config(self) -> C {
                self.config
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

            /// Worker threads the sharded path spreads each batch over
            /// (1 = sequential; set with the builder's `shards` method).
            pub fn shards(&self) -> usize {
                self.shards
            }

            /// The recorded trace so far, if the sink retains one.
            pub fn trace(&self) -> Option<&Trace<P::State, $Fault>> {
                self.sink.trace()
            }

            /// Removes and returns the trace recorded so far, leaving an
            /// empty one in place (the sink keeps recording as before).
            pub fn take_trace(&mut self) -> Option<Trace<P::State, $Fault>> {
                self.sink.take_trace()
            }

            fn execute(
                &mut self,
                pair: C::Pair,
                fault: $Fault,
                want_record: bool,
            ) -> Result<Option<StepRecord<P::State, $Fault>>, EngineError> {
                if !want_record && self.sink.is_passive() {
                    return self.execute_in_place(&pair, fault).map(|()| None);
                }
                // Records attribute the step to two agents, which only
                // per-agent backends can do.
                let interaction = C::interaction_of(&pair).ok_or(
                    EngineError::PerAgentBackendRequired {
                        operation: "building step records",
                    },
                )?;
                let (new_s, new_r) = {
                    let ($s, $r) = self.config.pair_states(&pair)?;
                    let $model_ = self.model;
                    let $program_ = &self.program;
                    let $fault_ = fault;
                    $compute?
                };
                let changed = {
                    let (s, r) = self.config.pair_states(&pair)?;
                    new_s != *s || new_r != *r
                };
                let omissive = is_omissive(&fault);
                let index = self.next_index;
                self.next_index += 1;
                self.stats.record(omissive, changed);
                let sink_wants = self.sink.wants_record(index, omissive, changed);
                if !want_record && !sink_wants {
                    // Zero-clone fast path: nobody needs the record, and
                    // an unchanged pair needs no write either.
                    if changed {
                        self.config.commit_pair(&pair, (new_s, new_r))?;
                    }
                    return Ok(None);
                }
                let (old_starter, old_reactor) = self
                    .config
                    .commit_pair(&pair, (new_s.clone(), new_r.clone()))?;
                let record = StepRecord {
                    index,
                    interaction,
                    fault,
                    old_starter,
                    old_reactor,
                    new_starter: new_s,
                    new_reactor: new_r,
                };
                if !sink_wants {
                    return Ok(Some(record));
                }
                if want_record {
                    self.sink.accept(record.clone());
                    Ok(Some(record))
                } else {
                    self.sink.accept(record);
                    Ok(None)
                }
            }

            /// The record-free fast path: endpoint states mutate in place
            /// through the program's `*_in_place` hooks (exactly
            /// equivalent to the pure outcome followed by a
            /// compare-and-store), so a step costs no state construction
            /// at all for programs that override them.
            fn execute_in_place(
                &mut self,
                pair: &C::Pair,
                fault: $Fault,
            ) -> Result<(), EngineError> {
                let $Runner {
                    model,
                    program,
                    config,
                    ..
                } = self;
                let model = *model;
                let (s_changed, r_changed) = config.update_pair(pair, |$fs, $fr| {
                    let $fmodel = model;
                    let $fprogram = &*program;
                    let $ffault = fault;
                    $fast
                })?;
                self.next_index += 1;
                self.stats
                    .record(is_omissive(&fault), s_changed || r_changed);
                Ok(())
            }

            fn decide_fault(
                &mut self,
                index: u64,
                interaction: Option<ppfts_population::Interaction>,
            ) -> $Fault {
                let $dself = self;
                let $didx = index;
                let $dint = interaction;
                $decide
            }

            /// Whether this run's fault decisions never consume the RNG,
            /// so a whole batch of pairs can be drawn in bulk (through
            /// the scheduler's monomorphized
            /// [`next_interactions_into`](Scheduler::next_interactions_into)
            /// path) and still consume the shared stream exactly as the
            /// interleaved pair/fault loop would.
            fn bulk_pairs_ok(&self) -> bool {
                let $bself = self;
                $bulk
            }

            fn next_fault(&mut self, pair: &C::Pair) -> $Fault {
                self.decide_fault(self.next_index, C::interaction_of(pair))
            }

            /// Executes one scheduled interaction and returns its record.
            ///
            /// # Errors
            ///
            /// Propagates fault-relation violations (cannot happen with the
            /// built-in adversaries and side policies restricted to the
            /// model's permitted faults) and bounds errors from custom
            /// schedulers.
            pub fn step(&mut self) -> Result<StepRecord<P::State, $Fault>, EngineError> {
                let pair = self.config.draw_pair(&mut self.scheduler, &mut self.rng);
                let fault = self.next_fault(&pair);
                Ok(self
                    .execute(pair, fault, true)?
                    .expect("record requested"))
            }

            /// Executes `steps` scheduled interactions without building
            /// per-step records (the sink, if it wants them, is still fed).
            ///
            /// # Errors
            ///
            /// Same conditions as [`step`](Self::step).
            pub fn run(&mut self, steps: u64) -> Result<(), EngineError> {
                for _ in 0..steps {
                    let pair = self
                        .config
                        .draw_pair_with(&mut self.scheduler, &mut self.rng);
                    let fault = self.next_fault(&pair);
                    self.execute(pair, fault, false)?;
                }
                Ok(())
            }

            /// Fills `plan` with the next `take` scheduled steps, drawing
            /// the pair and then the fault of each step in exactly the
            /// order the scalar loop would, so batched and scalar runs
            /// consume the shared RNG stream identically.
            ///
            /// When the fault decisions are RNG-free
            /// ([`bulk_pairs_ok`](Self::bulk_pairs_ok)) the shared stream
            /// is pairs-only, so all `take` pairs are drawn first through
            /// the backend's monomorphized bulk path — same draws, same
            /// stream, no per-draw virtual dispatch — and the fault
            /// decisions (still stateful: budgets, scripts) follow in
            /// index order.
            fn draw_batch(&mut self, plan: &mut Vec<Drawn<C::Pair, $Fault>>, take: u64) {
                plan.clear();
                if C::STABLE_PAIRS && self.bulk_pairs_ok() {
                    let mut pairs: Vec<C::Pair> = Vec::with_capacity(take as usize);
                    self.config.draw_pairs_into(
                        &mut pairs,
                        take as usize,
                        &mut self.scheduler,
                        &mut self.rng,
                    );
                    for (k, pair) in pairs.into_iter().enumerate() {
                        let fault =
                            self.decide_fault(self.next_index + k as u64, C::interaction_of(&pair));
                        plan.push(Drawn { pair, fault });
                    }
                    return;
                }
                for k in 0..take {
                    let pair = self
                        .config
                        .draw_pair_with(&mut self.scheduler, &mut self.rng);
                    let fault = self.decide_fault(self.next_index + k, C::interaction_of(&pair));
                    plan.push(Drawn { pair, fault });
                }
            }

            /// Applies a drawn batch. With a passive sink this runs the
            /// tight loop: endpoint states mutate in place, no clones, no
            /// records.
            fn apply_batch_plan(
                &mut self,
                plan: &[Drawn<C::Pair, $Fault>],
            ) -> Result<(), EngineError> {
                if !self.sink.is_passive() {
                    for p in plan {
                        self.execute(p.pair.clone(), p.fault, false)?;
                    }
                    return Ok(());
                }
                let $Runner {
                    model,
                    program,
                    config,
                    stats,
                    next_index,
                    ..
                } = self;
                let model = *model;
                for p in plan {
                    let fault = p.fault;
                    let (s_changed, r_changed) = config.update_pair(&p.pair, |$fs, $fr| {
                        let $fmodel = model;
                        let $fprogram = &*program;
                        let $ffault = fault;
                        $fast
                    })?;
                    *next_index += 1;
                    stats.record(is_omissive(&fault), s_changed || r_changed);
                }
                Ok(())
            }

            /// Executes `steps` scheduled interactions in batches of
            /// `batch`: each batch is drawn from the scheduler and
            /// adversary up front, then applied through the in-place
            /// fast path.
            ///
            /// For the same seed this is *bit-identical* to
            /// [`run`](Self::run) — same RNG stream, same configuration,
            /// same [`RunStats`] — the batching only changes how the work
            /// is staged. With a passive sink (e.g.
            /// [`StatsOnly`](crate::StatsOnly), or the default sink before
            /// `record_trace(true)`) no step builds a record or clones a
            /// state.
            ///
            /// # Errors
            ///
            /// Same conditions as [`step`](Self::step); earlier steps of a
            /// failing batch remain applied.
            ///
            /// # Panics
            ///
            /// Panics if `batch` is zero.
            pub fn run_batched(&mut self, steps: u64, batch: u64) -> Result<(), EngineError> {
                assert!(batch > 0, "batch size must be positive");
                if !C::STABLE_PAIRS {
                    // State-addressed pairs (count backend) must see the
                    // counts every earlier step produced: draw and apply
                    // interleaved — the exact sequential law, same RNG
                    // order as the scalar loop.
                    return self.run(steps);
                }
                let mut plan = Vec::with_capacity(batch.min(steps) as usize);
                let mut remaining = steps;
                while remaining > 0 {
                    let take = remaining.min(batch);
                    self.draw_batch(&mut plan, take);
                    self.apply_batch_plan(&plan)?;
                    remaining -= take;
                }
                Ok(())
            }

            /// Runs until `predicate` holds on the population (checked
            /// before the first step and after every step) or `max_steps`
            /// further interactions have executed.
            pub fn run_until(
                &mut self,
                max_steps: u64,
                mut predicate: impl FnMut(&C) -> bool,
            ) -> RunOutcome {
                if predicate(&self.config) {
                    return RunOutcome::Satisfied {
                        steps: self.next_index,
                    };
                }
                for _ in 0..max_steps {
                    let pair = self
                        .config
                        .draw_pair_with(&mut self.scheduler, &mut self.rng);
                    let fault = self.next_fault(&pair);
                    if self.execute(pair, fault, false).is_err() {
                        break;
                    }
                    if predicate(&self.config) {
                        return RunOutcome::Satisfied {
                            steps: self.next_index,
                        };
                    }
                }
                RunOutcome::Exhausted {
                    steps: self.next_index,
                }
            }

            /// Runs until `predicate` holds on the configuration, checking
            /// it before the first step and then only at *batch
            /// boundaries*, or until `max_steps` further interactions have
            /// executed.
            ///
            /// Sampling at boundaries makes an expensive predicate (e.g. a
            /// full projection of a simulator configuration) cost `1/batch`
            /// of its scalar price, at the resolution cost of overshooting
            /// the flip instant by up to `batch - 1` steps. Because the
            /// instant a predicate first holds is already fuzzy under
            /// batching, wrap the predicate in
            /// [`stably`](crate::convergence::stably) when a transiently
            /// true (mid-handshake) sample must not end the run.
            ///
            /// # Panics
            ///
            /// Panics if `batch` is zero.
            pub fn run_batched_until(
                &mut self,
                max_steps: u64,
                batch: u64,
                mut predicate: impl FnMut(&C) -> bool,
            ) -> RunOutcome {
                assert!(batch > 0, "batch size must be positive");
                if predicate(&self.config) {
                    return RunOutcome::Satisfied {
                        steps: self.next_index,
                    };
                }
                let plan_capacity = if C::STABLE_PAIRS {
                    batch.min(max_steps) as usize
                } else {
                    0
                };
                let mut plan = Vec::with_capacity(plan_capacity);
                let mut remaining = max_steps;
                while remaining > 0 {
                    let take = remaining.min(batch);
                    if C::STABLE_PAIRS {
                        self.draw_batch(&mut plan, take);
                        if self.apply_batch_plan(&plan).is_err() {
                            break;
                        }
                    } else {
                        // Interleaved draw-and-apply (see `run_batched`):
                        // batching amortizes only the predicate here.
                        if self.run(take).is_err() {
                            break;
                        }
                    }
                    remaining -= take;
                    if predicate(&self.config) {
                        return RunOutcome::Satisfied {
                            steps: self.next_index,
                        };
                    }
                }
                RunOutcome::Exhausted {
                    steps: self.next_index,
                }
            }

            /// Executes `steps` scheduled interactions exactly like
            /// [`run_batched`](Self::run_batched), but applies each
            /// drawn batch across the builder's `shards` worker
            /// threads.
            ///
            /// Each batch is still drawn *sequentially* (pair then
            /// fault, in step order — the RNG stream is untouched),
            /// then partitioned into agent-disjoint levels by a
            /// [`LevelPlan`](ppfts_population::LevelPlan) and applied
            /// level-parallel with a deterministic merge: commit order
            /// is fixed by batch index, per-step tallies are summed
            /// order-insensitively. For the same seed the result —
            /// configuration, [`RunStats`], RNG position — is
            /// *bit-identical* to [`run_batched`](Self::run_batched)
            /// and therefore to [`run`](Self::run), for any shard
            /// count (certified in `tests/shard_equivalence.rs`).
            ///
            /// With `shards <= 1`, a non-passive sink, or a backend
            /// without a dense state slab, this *is* the sequential
            /// batched path (same code, same result). Parallel
            /// speedup comes from batches much longer than the
            /// population (levels then hold ≈ n/2 independent
            /// interactions each) and hooks that do real work per
            /// step — the fault-tolerant simulators, not the
            /// two-instruction epidemic.
            ///
            /// # Errors
            ///
            /// Same conditions as [`run_batched`](Self::run_batched);
            /// on an error the failing step's whole level is applied
            /// before the run stops (see the shard module docs).
            ///
            /// # Panics
            ///
            /// Panics if `batch` is zero.
            pub fn run_sharded(&mut self, steps: u64, batch: u64) -> Result<(), EngineError>
            where
                P: Sync,
            {
                assert!(batch > 0, "batch size must be positive");
                if !self.shard_fast_path() {
                    return self.run_batched(steps, batch);
                }
                let mut plan = Vec::with_capacity(batch.min(steps) as usize);
                let mut flat = Vec::with_capacity(batch.min(steps) as usize);
                let mut levels = LevelPlan::new();
                let mut remaining = steps;
                while remaining > 0 {
                    let take = remaining.min(batch);
                    self.draw_batch(&mut plan, take);
                    self.apply_batch_sharded(&plan, &mut flat, &mut levels)?;
                    remaining -= take;
                }
                Ok(())
            }

            /// Runs shard-parallel until `predicate` holds on the
            /// configuration — checked before the first step and then
            /// at batch boundaries, exactly like
            /// [`run_batched_until`](Self::run_batched_until), to
            /// which this is bit-identical for any shard count.
            ///
            /// # Panics
            ///
            /// Panics if `batch` is zero.
            pub fn run_sharded_until(
                &mut self,
                max_steps: u64,
                batch: u64,
                mut predicate: impl FnMut(&C) -> bool,
            ) -> RunOutcome
            where
                P: Sync,
            {
                assert!(batch > 0, "batch size must be positive");
                if !self.shard_fast_path() {
                    return self.run_batched_until(max_steps, batch, predicate);
                }
                if predicate(&self.config) {
                    return RunOutcome::Satisfied {
                        steps: self.next_index,
                    };
                }
                let mut plan = Vec::with_capacity(batch.min(max_steps) as usize);
                let mut flat = Vec::with_capacity(batch.min(max_steps) as usize);
                let mut levels = LevelPlan::new();
                let mut remaining = max_steps;
                while remaining > 0 {
                    let take = remaining.min(batch);
                    self.draw_batch(&mut plan, take);
                    if self.apply_batch_sharded(&plan, &mut flat, &mut levels).is_err() {
                        break;
                    }
                    remaining -= take;
                    if predicate(&self.config) {
                        return RunOutcome::Satisfied {
                            steps: self.next_index,
                        };
                    }
                }
                RunOutcome::Exhausted {
                    steps: self.next_index,
                }
            }

            /// Whether `run_sharded*` actually goes shard-parallel, or
            /// falls back to the (bit-identical) sequential batched
            /// path. The builder already rejected `shards > 1` on
            /// assemblies that can never shard; this guards the
            /// remaining run-time conditions.
            fn shard_fast_path(&self) -> bool {
                self.shards > 1 && C::STABLE_PAIRS && C::PER_AGENT && self.sink.is_passive()
            }

            /// Applies a drawn batch level-parallel. `flat` and
            /// `levels` are caller-owned scratch reused across batches.
            fn apply_batch_sharded(
                &mut self,
                plan: &[Drawn<C::Pair, $Fault>],
                flat: &mut Vec<(Interaction, $Fault)>,
                levels: &mut LevelPlan,
            ) -> Result<(), EngineError>
            where
                P: Sync,
            {
                // One walk over the batch: flatten each pair and stream
                // it straight into the level planner, instead of a
                // second pass over the flattened interactions.
                flat.clear();
                levels.begin(self.config.len());
                for p in plan {
                    let interaction =
                        C::interaction_of(&p.pair).ok_or(EngineError::ShardIncompatible {
                            feature: "state-addressed pairs (count-based populations)",
                        })?;
                    flat.push((interaction, p.fault));
                    levels.push(interaction);
                }
                levels.finish();
                let shards = self.shards;
                let $Runner {
                    model,
                    program,
                    config,
                    stats,
                    next_index,
                    ..
                } = self;
                let model = *model;
                let program = &*program;
                let states =
                    config
                        .dense_states_mut()
                        .ok_or(EngineError::ShardIncompatible {
                            feature: "populations without a dense per-agent state slab",
                        })?;
                let hook = |$fs: &mut <P as $Program>::State,
                            $fr: &mut <P as $Program>::State,
                            fault: $Fault|
                 -> Result<(bool, bool), EngineError> {
                    let $fmodel = model;
                    let $fprogram = program;
                    let $ffault = fault;
                    $fast
                };
                let (tally, error) = crate::shard::apply_levels(
                    shards,
                    states,
                    flat,
                    levels,
                    &hook,
                    &|f: &$Fault| is_omissive(f),
                );
                *next_index += tally.applied;
                stats.merge(&RunStats {
                    steps: tally.applied,
                    omissive_steps: tally.omissive,
                    changed_steps: tally.changed,
                    noop_steps: tally.applied - tally.changed,
                });
                match error {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            }

            /// Runs until no interaction has changed any state for
            /// `window` consecutive steps ("observed stability"), or
            /// `max_steps` interactions have executed.
            ///
            /// Observed stability is a heuristic convergence signal: a
            /// silent window proves nothing for adversarial schedulers,
            /// but under the uniform scheduler the probability that a
            /// non-silent system stays quiet for a long window decays
            /// exponentially. For exact convergence verification use the
            /// model checker in `ppfts-verify`.
            pub fn run_until_stable(&mut self, max_steps: u64, window: u64) -> RunOutcome {
                let mut quiet = 0u64;
                for _ in 0..max_steps {
                    let pair = self.config.draw_pair(&mut self.scheduler, &mut self.rng);
                    let fault = self.next_fault(&pair);
                    let before = self.stats.changed_steps;
                    if self.execute(pair, fault, false).is_err() {
                        break;
                    }
                    if self.stats.changed_steps > before {
                        quiet = 0;
                    } else {
                        quiet += 1;
                        if quiet >= window {
                            return RunOutcome::Satisfied {
                                steps: self.next_index,
                            };
                        }
                    }
                }
                RunOutcome::Exhausted {
                    steps: self.next_index,
                }
            }

            /// Executes an exact pre-planned sequence, bypassing the
            /// scheduler and the adversary. Used by the paper's adversarial
            /// constructions, where both the interactions and the omissions
            /// are chosen by the proof.
            ///
            /// # Errors
            ///
            /// Fails if a planned fault is outside the model's transition
            /// relation or an endpoint is out of bounds; earlier planned
            /// steps remain applied.
            pub fn apply_planned(
                &mut self,
                plan: impl IntoIterator<Item = Planned<$Fault>>,
            ) -> Result<(), EngineError> {
                for p in plan {
                    let pair = self.config.pair_of(p.interaction)?;
                    self.execute(pair, p.fault, false)?;
                }
                Ok(())
            }

            /// Runs `steps` interactions through the *batch-epoch* path:
            /// instead of drawing ordered pairs one at a time, whole
            /// collision-free epochs (expected length ≈ 0.63·√n under the
            /// uniform scheduler) are sampled as bulk hypergeometric
            /// state splits and applied once per (starter-state,
            /// reactor-state, outcome) class — O(d²) work per epoch for
            /// `d` distinct states, i.e. *sub-constant* work per
            /// interaction once n ≫ d⁴. Where state changes are sparse
            /// (fewer than a handful expected per epoch), an exact
            /// *event step* replaces the epoch: one geometric draw skips
            /// the inert interactions up to the next one that can change
            /// a state, which is then applied on its own. See the
            /// [`epoch`](crate::epoch) module docs for the sampling
            /// scheme.
            ///
            /// The epoch path reproduces the interleaved path's law
            /// *distributionally* (the same uniform-pair, i.i.d.-fault
            /// process — certified by the `backend_equivalence`
            /// distribution-agreement contracts) but not bit-for-bit: it
            /// consumes the RNG differently, so same-seed runs diverge
            /// from [`run`](Self::run). Each bulk group is split across
            /// the faults of the adversary's
            /// [`OmissionStrategy::iid_rate`] mix, merged by equal
            /// outcome; bulk thinning bypasses
            /// [`OmissionStrategy::decide`], so
            /// [`OmissionStrategy::injected`] stays at zero — audit
            /// [`RunStats::omissive_steps`] instead. Which interactions
            /// are omissive never steers the run, so that counter is
            /// drawn once when the call returns: exact in law at the end
            /// of each call, not epoch by epoch.
            ///
            /// Only state-addressed backends implement
            /// [`EpochBackend`](crate::EpochBackend), so this method
            /// exists only on count-backed runners: per-agent features
            /// (dense backends, recording sinks, restricted topologies)
            /// are ruled out at compile time or already rejected by the
            /// builder.
            ///
            /// # Errors
            ///
            /// [`EngineError::EpochIncompatible`] if the model is
            /// omissive and the adversary has no fixed i.i.d. rate
            /// (step-indexed, budgeted, burst, or scripted schedules);
            /// fault-relation violations as in [`run`](Self::run). On
            /// error the configuration is left at the last completed
            /// epoch or event boundary.
            pub fn run_epochs(&mut self, steps: u64) -> Result<(), EngineError>
            where
                C: crate::epoch::EpochBackend,
            {
                self.run_epochs_inner(steps, |_| false).map(|_| ())
            }

            /// Runs through the batch-epoch path until `predicate` holds
            /// on the configuration — checked before the first step and
            /// then at every boundary — or `max_steps` further
            /// interactions have executed. A boundary falls after each
            /// epoch (≈ 0.63·√n interactions), after each event step
            /// (its inert stretch plus one interaction that can change a
            /// state), and every `⌈E[ℓ]⌉` interactions of a configuration
            /// where no interaction can change a state. Inert stretches
            /// leave the configuration as it was, so a boundary after
            /// each event sees every change. The step in flight when the
            /// budget runs out is truncated exactly at the budget (still
            /// the exact law), so [`steps`](Self::steps) never
            /// overshoots.
            ///
            /// # Errors
            ///
            /// Same conditions as [`run_epochs`](Self::run_epochs).
            pub fn run_epochs_until(
                &mut self,
                max_steps: u64,
                mut predicate: impl FnMut(&C) -> bool,
            ) -> Result<RunOutcome, EngineError>
            where
                C: crate::epoch::EpochBackend,
            {
                if predicate(&self.config) {
                    return Ok(RunOutcome::Satisfied {
                        steps: self.next_index,
                    });
                }
                let satisfied = self.run_epochs_inner(max_steps, predicate)?;
                Ok(if satisfied {
                    RunOutcome::Satisfied {
                        steps: self.next_index,
                    }
                } else {
                    RunOutcome::Exhausted {
                        steps: self.next_index,
                    }
                })
            }

            /// The i.i.d. per-interaction fault distribution the epoch
            /// path thins bulk groups with (fault-free entry included;
            /// weights sum to 1).
            fn epoch_fault_mix(&self) -> Result<Vec<($Fault, f64)>, EngineError> {
                let rate = if self.model.allows_omissions() {
                    self.adversary
                        .iid_rate()
                        .ok_or(EngineError::EpochIncompatible {
                            feature: "omission adversaries without a fixed i.i.d. rate \
                                      (step-indexed, budgeted, burst, or scripted schedules)",
                        })?
                } else {
                    0.0
                };
                let $mmodel = self.model;
                let $mpolicy = self.side_policy;
                let $mrate = rate;
                Ok($mix)
            }

            fn run_epochs_inner(
                &mut self,
                budget: u64,
                boundary: impl FnMut(&C) -> bool,
            ) -> Result<bool, EngineError>
            where
                C: crate::epoch::EpochBackend,
            {
                let mix = self.epoch_fault_mix()?;
                let $Runner {
                    model,
                    program,
                    config,
                    rng,
                    next_index,
                    stats,
                    ..
                } = self;
                let model = *model;
                crate::epoch::run_epochs_driver(
                    config,
                    rng,
                    stats,
                    next_index,
                    budget,
                    &mix,
                    |$s: &<P as $Program>::State,
                     $r: &<P as $Program>::State,
                     fault: $Fault| {
                        let $model_ = model;
                        let $program_ = &*program;
                        let $fault_ = fault;
                        $compute
                    },
                    |f: &$Fault| is_omissive(f),
                    boundary,
                )
            }
        }

        /// Builder for the runner; see `builder` on the runner type.
        pub struct $Builder<
            P: $Program,
            S = UniformScheduler,
            A = NoOmissions,
            T = FullTrace<<P as $Program>::State, $Fault>,
            C = Configuration<<P as $Program>::State>,
        > {
            model: $Model,
            program: P,
            config: Option<C>,
            scheduler: S,
            adversary: A,
            side_policy: SidePolicy,
            seed: u64,
            sink: T,
            shards: usize,
        }

        impl<P, S, A, T, C> $Builder<P, S, A, T, C>
        where
            P: $Program,
            S: Scheduler,
            A: OmissionStrategy,
            T: TraceSink<P::State, $Fault>,
            C: ExecBackend<State = <P as $Program>::State>,
        {
            /// Sets the initial population without changing the backend
            /// type (required unless [`population`](Self::population) is
            /// used; the default backend is the dense [`Configuration`]).
            pub fn config(mut self, config: C) -> Self {
                self.config = Some(config);
                self
            }

            /// Sets the initial population *and* selects its backend —
            /// e.g. a [`CountConfiguration`] for giant anonymous runs.
            ///
            /// Count-backed runners support the full batched measurement
            /// surface (`run*`, `run_batched*`, [`StatsOnly`] sinks,
            /// every omission adversary) but no per-agent operations:
            /// assembling one with a recording sink fails at `build()`
            /// with [`EngineError::PerAgentBackendRequired`], a scheduler
            /// whose law counts cannot realize (restricted topology,
            /// scripted, round-robin) fails with
            /// [`EngineError::CompleteInteractionLawRequired`], and
            /// `step` / `apply_planned` report
            /// [`EngineError::PerAgentBackendRequired`] when called.
            ///
            /// [`CountConfiguration`]: ppfts_population::CountConfiguration
            /// [`StatsOnly`]: crate::StatsOnly
            pub fn population<C2: ExecBackend<State = <P as $Program>::State>>(
                self,
                population: C2,
            ) -> $Builder<P, S, A, T, C2> {
                $Builder {
                    model: self.model,
                    program: self.program,
                    config: Some(population),
                    scheduler: self.scheduler,
                    adversary: self.adversary,
                    side_policy: self.side_policy,
                    seed: self.seed,
                    sink: self.sink,
                    shards: self.shards,
                }
            }

            /// Replaces the scheduler (default: [`UniformScheduler`]).
            pub fn scheduler<S2: Scheduler>(self, scheduler: S2) -> $Builder<P, S2, A, T, C> {
                $Builder {
                    model: self.model,
                    program: self.program,
                    config: self.config,
                    scheduler,
                    adversary: self.adversary,
                    side_policy: self.side_policy,
                    seed: self.seed,
                    sink: self.sink,
                    shards: self.shards,
                }
            }

            /// Schedules interactions over an explicit interaction graph
            /// — shorthand for
            /// `scheduler(TopologyScheduler::new(topology))`.
            ///
            /// `build()` checks the topology spans exactly the supplied
            /// population ([`EngineError::TopologySizeMismatch`]) and, on
            /// a count backend, that the topology is complete
            /// ([`EngineError::CompleteInteractionLawRequired`]) —
            /// restricted graphs need agent identities.
            ///
            /// [`Topology`]: ppfts_population::Topology
            pub fn topology(
                self,
                topology: Topology,
            ) -> $Builder<P, TopologyScheduler, A, T, C> {
                self.scheduler(TopologyScheduler::new(topology))
            }

            /// Replaces the omission adversary (default: [`NoOmissions`]).
            /// Only consulted when the model's relation has omissive
            /// outcomes.
            pub fn adversary<A2: OmissionStrategy>(
                self,
                adversary: A2,
            ) -> $Builder<P, S, A2, T, C> {
                $Builder {
                    model: self.model,
                    program: self.program,
                    config: self.config,
                    scheduler: self.scheduler,
                    adversary,
                    side_policy: self.side_policy,
                    seed: self.seed,
                    sink: self.sink,
                    shards: self.shards,
                }
            }

            /// Replaces the trace sink (default: a disabled
            /// [`FullTrace`], i.e. no recording). Use
            /// [`StatsOnly`](crate::StatsOnly) for the zero-allocation
            /// measurement path or
            /// [`SampledTrace`](crate::SampledTrace) for bounded-memory
            /// forensics.
            pub fn trace_sink<T2: TraceSink<P::State, $Fault>>(
                self,
                sink: T2,
            ) -> $Builder<P, S, A, T2, C> {
                $Builder {
                    model: self.model,
                    program: self.program,
                    config: self.config,
                    scheduler: self.scheduler,
                    adversary: self.adversary,
                    side_policy: self.side_policy,
                    seed: self.seed,
                    sink,
                    shards: self.shards,
                }
            }

            /// Sets the side policy used to concretize omissions in
            /// two-way models (ignored by one-way runners).
            pub fn side_policy(mut self, policy: SidePolicy) -> Self {
                self.side_policy = policy;
                self
            }

            /// Seeds the runner's RNG (scheduler + adversary randomness).
            pub fn seed(mut self, seed: u64) -> Self {
                self.seed = seed;
                self
            }

            /// Sets how many worker threads the `run_sharded*` methods
            /// spread each drawn batch over (default 1 = sequential).
            ///
            /// Sharding never changes results — the sharded path is
            /// bit-identical to the sequential batched path — so this
            /// is purely a throughput knob. `build()` rejects
            /// `shards > 1` on assemblies that can never shard: a
            /// count-backed population
            /// ([`EngineError::ShardIncompatible`], no per-agent state
            /// slab to partition) or a program whose hooks declare
            /// themselves shard-unsafe (`shard_safe() == false`).
            ///
            /// # Panics
            ///
            /// Panics if `shards` is zero.
            pub fn shards(mut self, shards: usize) -> Self {
                assert!(shards >= 1, "shards must be at least 1");
                self.shards = shards;
                self
            }

            /// Builds the runner.
            ///
            /// # Errors
            ///
            /// Returns [`EngineError::InvalidPopulation`] if no
            /// population was supplied or it has fewer than two agents;
            /// [`EngineError::TopologySizeMismatch`] if the scheduler is
            /// bound to a topology of a different size than the
            /// population; and, when the backend has no agent identities
            /// (the count backend),
            /// [`EngineError::PerAgentBackendRequired`] for a recording
            /// trace sink (records name their endpoints) or
            /// [`EngineError::CompleteInteractionLawRequired`] for a
            /// scheduler whose [`InteractionLaw`](crate::InteractionLaw)
            /// counts cannot realize — every mismatch is rejected here
            /// rather than mid-run.
            pub fn build(self) -> Result<$Runner<P, S, A, T, C>, EngineError> {
                let config = self
                    .config
                    .ok_or(EngineError::InvalidPopulation { len: 0 })?;
                if config.len() < 2 {
                    return Err(EngineError::InvalidPopulation { len: config.len() });
                }
                if let Some(required) = self.scheduler.required_population() {
                    if required != config.len() {
                        return Err(EngineError::TopologySizeMismatch {
                            topology: required,
                            population: config.len(),
                        });
                    }
                }
                if let Some(required) = self.program.required_topology() {
                    // A graphical program lays its per-agent state out
                    // over the graph's vertices: the population must span
                    // them exactly…
                    if required.len() != config.len() {
                        return Err(EngineError::TopologySizeMismatch {
                            topology: required.len(),
                            population: config.len(),
                        });
                    }
                    // …and the scheduler must deal exactly that graph's
                    // arcs. A complete required topology imposes no
                    // adjacency constraint, so any uniform-law scheduler
                    // realizes it; a restricted one needs a scheduler
                    // bound to a structurally equal topology.
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
                if self.shards > 1 {
                    if !C::PER_AGENT {
                        return Err(EngineError::ShardIncompatible {
                            feature: "count-based populations \
                                      (no per-agent state slab to partition)",
                        });
                    }
                    if !self.program.shard_safe() {
                        return Err(EngineError::ShardIncompatible {
                            feature: "programs whose in-place hooks are not \
                                      shard-safe (shard_safe() == false)",
                        });
                    }
                }
                Ok($Runner {
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
                    shards: self.shards,
                })
            }
        }

        impl<P, S, A, C> $Builder<P, S, A, FullTrace<<P as $Program>::State, $Fault>, C>
        where
            P: $Program,
            S: Scheduler,
            A: OmissionStrategy,
        {
            /// Enables or disables full trace recording — shorthand for
            /// `trace_sink(FullTrace::new())` resp. the disabled default,
            /// kept so certification call sites read the same as before
            /// sinks existed.
            pub fn record_trace(mut self, record: bool) -> Self {
                self.sink = if record {
                    FullTrace::new()
                } else {
                    FullTrace::disabled()
                };
                self
            }
        }
    };
}

fn is_omissive<F: FaultLike>(f: &F) -> bool {
    f.omissive()
}

trait FaultLike {
    fn omissive(&self) -> bool;
}

impl FaultLike for OneWayFault {
    fn omissive(&self) -> bool {
        self.is_omissive()
    }
}

impl FaultLike for TwoWayFault {
    fn omissive(&self) -> bool {
        self.is_omissive()
    }
}

runner_impl! {
    /// Execution driver for the one-way family (IT, IO, I1–I4).
    ///
    /// See the `runner` module docs for the shared runner surface and
    /// the crate example for end-to-end usage.
    runner: OneWayRunner,
    builder: OneWayRunnerBuilder,
    model: OneWayModel,
    fault: OneWayFault,
    program: OneWayProgram,
    compute: |model, program, fault, s, r| outcome::one_way(model, program, s, r, fault),
    fast: |model, program, fault, s, r| outcome::one_way_in_place(model, program, s, r, fault),
    decide: |this, index, interaction| {
        if this.model.allows_omissions()
            && this.adversary.decide_at(index, interaction, &mut this.rng)
        {
            OneWayFault::Omission
        } else {
            OneWayFault::None
        }
    },
    bulk: |this| {
        // decide() is only reached in omissive models; when it never
        // draws, the shared stream is pairs-only.
        !this.model.allows_omissions() || !this.adversary.uses_rng()
    },
    mix: |model, policy, rate| {
        // One-way models have a single omissive fault; the side policy
        // plays no role.
        let _ = (model, policy);
        if rate > 0.0 {
            vec![
                (OneWayFault::None, 1.0 - rate),
                (OneWayFault::Omission, rate),
            ]
        } else {
            vec![(OneWayFault::None, 1.0)]
        }
    },
}

runner_impl! {
    /// Execution driver for the two-way family (TW, T1–T3).
    ///
    /// In omissive two-way models the adversary decides *whether* a step is
    /// omissive and the builder's [`SidePolicy`] decides *which side(s)*
    /// lose the transmission.
    runner: TwoWayRunner,
    builder: TwoWayRunnerBuilder,
    model: TwoWayModel,
    fault: TwoWayFault,
    program: TwoWayProgram,
    compute: |model, program, fault, s, r| outcome::two_way(model, program, s, r, fault),
    fast: |model, program, fault, s, r| outcome::two_way_in_place(model, program, s, r, fault),
    decide: |this, index, interaction| {
        if this.model.allows_omissions()
            && this.adversary.decide_at(index, interaction, &mut this.rng)
        {
            this.side_policy.pick(this.model, &mut this.rng)
        } else {
            TwoWayFault::None
        }
    },
    bulk: |this| {
        // Beyond decide(), a firing fault also runs SidePolicy::pick,
        // which draws under Uniform — so bulk drawing additionally
        // needs a draw-free side pick (Always) or a fault that can
        // never fire (zero budget).
        !this.model.allows_omissions()
            || (!this.adversary.uses_rng()
                && (matches!(this.side_policy, SidePolicy::Always(_))
                    || this.adversary.budget() == Some(0)))
    },
    mix: |model, policy, rate| {
        // The scalar path draws decide() then SidePolicy::pick() per
        // step; with an i.i.d. adversary that is exactly this fixed
        // categorical mix.
        if rate > 0.0 {
            match policy {
                SidePolicy::Always(f) => {
                    vec![(TwoWayFault::None, 1.0 - rate), (f, rate)]
                }
                SidePolicy::Uniform => {
                    let omissive: Vec<TwoWayFault> = model
                        .permitted_faults()
                        .iter()
                        .copied()
                        .filter(|f| f.is_omissive())
                        .collect();
                    let share = rate / omissive.len() as f64;
                    let mut mix = vec![(TwoWayFault::None, 1.0 - rate)];
                    mix.extend(omissive.into_iter().map(|f| (f, share)));
                    mix
                }
            }
        } else {
            vec![(TwoWayFault::None, 1.0)]
        }
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AtMostOneStrategy, RateStrategy, SampledTrace, ScriptedOmissions, ScriptedScheduler,
        StatsOnly,
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

    #[test]
    fn epidemic_converges_under_io() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false, false, false, false]))
            .seed(1)
            .build()
            .unwrap();
        let out = runner.run_until(100_000, |c| c.as_slice().iter().all(|b| *b));
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
            r.run(500).unwrap();
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
    fn sharded_run_matches_batched_run() {
        let n = 48;
        let mut init = vec![false; n];
        init[0] = true;
        let batched = {
            let mut r = OneWayRunner::builder(OneWayModel::I3, Epidemic)
                .config(Configuration::new(init.clone()))
                .adversary(RateStrategy::new(0.3))
                .seed(42)
                .build()
                .unwrap();
            r.run_batched(5_000, 512).unwrap();
            (r.config().clone(), r.stats())
        };
        for shards in [1usize, 2, 8] {
            let mut r = OneWayRunner::builder(OneWayModel::I3, Epidemic)
                .config(Configuration::new(init.clone()))
                .adversary(RateStrategy::new(0.3))
                .seed(42)
                .shards(shards)
                .build()
                .unwrap();
            r.run_sharded(5_000, 512).unwrap();
            assert_eq!(r.shards(), shards);
            assert_eq!(
                (r.config().clone(), r.stats()),
                batched,
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn sharding_rejects_count_backend_at_build() {
        let config = ppfts_population::CountConfiguration::from_groups([(true, 1), (false, 9)]);
        let built = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .population(config)
            .shards(4)
            .build();
        assert!(matches!(
            built.err(),
            Some(EngineError::ShardIncompatible { .. })
        ));
    }

    #[test]
    fn sharding_rejects_shard_unsafe_programs_at_build() {
        struct Logged(std::cell::Cell<u64>);
        impl OneWayProgram for Logged {
            type State = bool;
            fn on_receive(&self, s: &bool, r: &bool) -> bool {
                self.0.set(self.0.get() + 1);
                *s || *r
            }
            fn shard_safe(&self) -> bool {
                false
            }
        }
        let built = OneWayRunner::builder(OneWayModel::Io, Logged(std::cell::Cell::new(0)))
            .config(Configuration::new(vec![true, false]))
            .shards(2)
            .build();
        assert!(matches!(
            built.err(),
            Some(EngineError::ShardIncompatible { .. })
        ));
        // shards(1) with the same program is fine — nothing to race.
        assert!(
            OneWayRunner::builder(OneWayModel::Io, Logged(std::cell::Cell::new(0)))
                .config(Configuration::new(vec![true, false]))
                .shards(1)
                .build()
                .is_ok()
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
            r.run(500).unwrap();
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
            r.run_batched(500, batch).unwrap();
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
                .record_trace(true)
                .build()
                .unwrap()
        };
        let mut scalar = build();
        scalar.run(200).unwrap();
        for batch in [1u64, 13, 64, 200] {
            let mut batched = build();
            assert!(batched.bulk_pairs_ok());
            batched.run_batched(200, batch).unwrap();
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
                .record_trace(true)
                .seed(9)
                .build()
                .unwrap()
        };
        let mut scalar = build();
        scalar.run(40).unwrap();
        let mut batched = build();
        batched.run_batched(40, 8).unwrap();
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
        let out = runner.run_batched_until(100_000, 64, |c| c.as_slice().iter().all(|b| *b));
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
        let out = runner.run_batched_until(10, 4, |c| c.as_slice().iter().all(|b| *b));
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
        let out = runner.run_batched_until(25, 8, |c| c.as_slice().iter().any(|b| *b));
        assert_eq!(out, RunOutcome::Exhausted { steps: 25 });
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_is_rejected() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false]))
            .build()
            .unwrap();
        let _ = runner.run_batched(10, 0);
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
        runner.run(200).unwrap();
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
        runner.run(100).unwrap();
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
        runner.run(50).unwrap();
        assert_eq!(runner.stats().omissive_steps, 50);
        // Under I1 with all transmissions lost, the epidemic never spreads.
        assert_eq!(runner.config().as_slice(), &[true, false]);
    }

    #[test]
    fn planned_steps_execute_verbatim() {
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Epidemic)
            .config(Configuration::new(vec![true, false, false]))
            .record_trace(true)
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
        let out = runner.run_until(100_000, |c| c.count_state(&'s') == 2);
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
                Some(b) => r.run_batched(400, b).unwrap(),
                None => r.run(400).unwrap(),
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
        let out = runner.run_batched_until(
            10_000_000,
            256,
            crate::convergence::stably(|c: &CountConfiguration<char>| c.count_state(&'s') == 40, 2),
        );
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
        let out = runner.run_batched_until(1_000_000, 64, |c: &CountConfiguration<bool>| {
            c.count_state(&true) == 64
        });
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
        // The disabled-FullTrace default is passive and builds fine.
        assert!(OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, 3)]))
            .build()
            .is_ok());
    }

    #[test]
    fn count_backend_run_batched_equals_scalar_run() {
        use ppfts_population::CountConfiguration;
        let run = |batched: Option<u64>| {
            let mut r = TwoWayRunner::builder(TwoWayModel::T1, pairing())
                .population(CountConfiguration::from_groups([('c', 5), ('p', 5)]))
                .adversary(RateStrategy::new(0.25))
                .seed(13)
                .trace_sink(StatsOnly)
                .build()
                .unwrap();
            match batched {
                Some(b) => r.run_batched(400, b).unwrap(),
                None => r.run(400).unwrap(),
            }
            (r.config().clone(), r.stats())
        };
        let scalar = run(None);
        for batch in [1, 32, 400] {
            assert_eq!(run(Some(batch)), scalar, "batch {batch}");
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
        let out = runner.run_until(200_000, |c| c.as_slice().iter().all(|b| *b));
        assert!(out.is_satisfied(), "epidemic crosses the ring");
        // Every recorded step respects the graph: spot-check via trace.
        let mut traced = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false, false, false]))
            .topology(Topology::ring(4).unwrap())
            .record_trace(true)
            .seed(5)
            .build()
            .unwrap();
        traced.run(300).unwrap();
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
    }

    #[test]
    fn run_until_checks_initial_configuration() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, true]))
            .build()
            .unwrap();
        let out = runner.run_until(10, |c| c.as_slice().iter().all(|b| *b));
        assert_eq!(out, RunOutcome::Satisfied { steps: 0 });
    }

    #[test]
    fn run_until_exhausts_budget() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![false, false]))
            .build()
            .unwrap();
        let out = runner.run_until(25, |c| c.as_slice().iter().any(|b| *b));
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
        runner.run(200).unwrap();
        assert_eq!(runner.stats().omissive_steps, 1);
        assert_eq!(runner.adversary().injected(), 1);
    }

    #[test]
    fn take_trace_leaves_tracing_enabled() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, false]))
            .record_trace(true)
            .build()
            .unwrap();
        runner.run(3).unwrap();
        let t1 = runner.take_trace().unwrap();
        assert_eq!(t1.len(), 3);
        runner.run(2).unwrap();
        let t2 = runner.take_trace().unwrap();
        assert_eq!(t2.len(), 2);
    }

    #[test]
    fn stats_count_noops_and_changes() {
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Epidemic)
            .config(Configuration::new(vec![true, true]))
            .build()
            .unwrap();
        runner.run(10).unwrap();
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
        runner.run(5).unwrap();
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
            .run_epochs_until(
                100_000_000,
                crate::convergence::stably(
                    |c: &CountConfiguration<bool>| c.count_state(&true) == n,
                    2,
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
        runner.run_epochs(12_345).unwrap();
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
            .run_epochs_until(100_000_000, |c: &CountConfiguration<bool>| {
                c.count_state(&true) == n
            })
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
        runner.run_epochs(100_000).unwrap();
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
        let err = runner.run_epochs(1_000).unwrap_err();
        assert!(matches!(err, EngineError::EpochIncompatible { .. }));
        // Nothing ran: the rejection happens before the first epoch.
        assert_eq!(runner.steps(), 0);
        assert_eq!(runner.config().count_state(&true), 1);
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
        runner.run_epochs(1_000).unwrap();
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
                runner.run_epochs(m).unwrap();
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
            let err = runner.run_epochs(1_000_000).unwrap_err();
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
            .run_epochs_until(1_000, |c: &CountConfiguration<bool>| {
                c.count_state(&true) == 10
            })
            .unwrap();
        assert_eq!(out, RunOutcome::Satisfied { steps: 0 });
    }
}
