//! Interaction-model runtime for population protocols.
//!
//! The reproduced paper ("On the Power of Weaker Pairwise Interaction",
//! ICDCS 2017) studies what happens to population protocols when the
//! pairwise interaction primitive is weakened, along two axes:
//!
//! * **one-way communication** — only the reactor learns the starter's
//!   state (models IT, IO of Angluin–Aspnes–Eisenstat, and their omissive
//!   refinements I1–I4), and
//! * **omission failures** — an interaction may lose the transmitted state
//!   on one or both sides, with or without detection (models T1–T3 for
//!   two-way, I1–I4 for one-way).
//!
//! This crate is the executable encoding of that taxonomy:
//!
//! * [`Model`], [`TwoWayModel`], [`OneWayModel`] — the ten interaction
//!   models of the paper's Figure 1, with their exact transition relations,
//! * [`TwoWayProgram`], [`OneWayProgram`] — what an agent *does* in each
//!   family, including the omission-detection hooks `o` and `h`,
//! * [`outcome`] — the pure state-pair semantics of one interaction,
//! * [`OmissionStrategy`] and implementations — the adversaries **UO**,
//!   **NO**, **NO1**, plus bounded and scripted variants,
//! * [`Scheduler`] and implementations — uniform-random (globally fair with
//!   probability 1), graph-aware ([`TopologyScheduler`]: uniform random
//!   edge of an arbitrary connected
//!   [`Topology`](ppfts_population::Topology), of which uniform-random is
//!   the complete-graph instance), round-robin fair, and scripted
//!   schedulers, each advertising its [`InteractionLaw`] for typed
//!   backend/scheduler capability negotiation at build time,
//! * [`Runner`] — the one deterministic, seedable execution driver for
//!   both families, generic over the model's [`Family`] (sealed:
//!   [`OneWayModel`] or [`TwoWayModel`]) and reaching programs through
//!   the [`Program`] bridge; [`OneWayRunner`] and [`TwoWayRunner`] are
//!   its per-family aliases. It has pluggable [`TraceSink`]s and one run
//!   driver,
//!   `run(exec, stop)`: [`Batched`] or [`Epochs`] execution until a
//!   [`Stop`] (a budget, a predicate, or a quiet window), every engine
//!   error returned as `Err`; plus single recorded steps and
//!   planned-prefix execution (used by the paper's adversarial
//!   constructions).
//!   Runners are generic over the population backend ([`ExecBackend`]):
//!   the dense per-agent `Configuration` (default, full per-agent
//!   machinery) or the count-based
//!   [`CountConfiguration`](ppfts_population::CountConfiguration)
//!   (state multiplicities only — anonymous protocols at n = 10⁶ and
//!   beyond on the batched `StatsOnly` path),
//! * [`epoch`] — the batch-epoch execution path ([`Epochs`]):
//!   batches of collision-free interactions sampled in bulk, and their
//!   few collisions one by one, on [`EpochBackend`]s,
//!   sub-constant work per interaction for count-backed runs,
//! * [`TraceSink`] with [`FullTrace`], [`SampledTrace`], [`StatsOnly`] —
//!   what, if anything, each executed step leaves behind,
//! * [`convergence`] — exact silence checks and the quiescence-aware
//!   [`stably`](convergence::stably) predicate combinator,
//! * [`hierarchy`] — the inclusion arrows of Figure 1 as a queryable
//!   relation.
//!
//! # Example: an epidemic under the omissive one-way model I3
//!
//! ```
//! use ppfts_engine::{
//!     Batched, OneWayModel, OneWayProgram, OneWayRunner, RateStrategy, Stop, UniformScheduler,
//! };
//! use ppfts_population::Configuration;
//!
//! struct Epidemic;
//! impl OneWayProgram for Epidemic {
//!     type State = bool;
//!     fn on_receive(&self, s: &bool, r: &bool) -> bool { *s || *r }
//! }
//!
//! let mut runner = OneWayRunner::builder(OneWayModel::I3, Epidemic)
//!     .config(Configuration::new(vec![true, false, false, false]))
//!     .scheduler(UniformScheduler::new())
//!     .adversary(RateStrategy::new(0.2)) // UO adversary, 20% omission rate
//!     .seed(42)
//!     .build()?;
//!
//! // Stop once everyone is infected, checked after every step.
//! let all = |c: &Configuration<bool>| c.as_slice().iter().all(|b| *b);
//! let outcome = runner.run(Batched(1), Stop::until(100_000, all))?;
//! assert!(outcome.is_satisfied()); // omissions only delay the epidemic
//! # Ok::<(), ppfts_engine::EngineError>(())
//! ```

#![warn(missing_docs)]

mod adversary;
mod backend;
mod batch;
pub mod convergence;
mod embed;
pub mod epoch;
mod error;
pub mod hierarchy;
mod model;
pub mod outcome;
mod program;
mod runner;
mod schedule;
mod scheduler;
mod sink;
mod stats;
mod trace;

pub use adversary::{
    AtMostOneStrategy, BoundedStrategy, BurstStrategy, HorizonStrategy, NoOmissions,
    OmissionStrategy, RateStrategy, ScriptedOmissions, SidePolicy,
};
pub use backend::ExecBackend;
pub use batch::{run_seeds, run_seeds_with_progress, DistSummary, SeedSummary};
pub use embed::EmbedOneWay;
pub use epoch::EpochBackend;
pub use error::EngineError;
pub use model::{Family, Model, OneWayFault, OneWayModel, TwoWayFault, TwoWayModel};
pub use program::{validate_io_program, OneWayProgram, Program, TwoWayProgram};
pub use runner::{
    Batched, Epochs, Exec, OneWayRunner, OneWayRunnerBuilder, Planned, RunOutcome, Runner,
    RunnerBuilder, Stop, TwoWayRunner,
};
pub use schedule::{OmissionSchedule, RateSegment, ScheduledEvent};
pub use scheduler::{
    InteractionLaw, RoundRobinScheduler, Scheduler, ScriptedScheduler, TopologyScheduler,
    UniformScheduler,
};
pub use sink::{FullTrace, SampledTrace, StatsOnly, TraceSink};
pub use stats::RunStats;
pub use trace::{StepRecord, Trace};
