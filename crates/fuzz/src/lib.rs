//! Adversary schedule fuzzer: feedback-guided search for worst-case
//! omission-fault schedules.
//!
//! The paper's tolerance claims — `SKnO` simulates any two-way protocol
//! under at most `o` omissions (Theorem 4.1) — are checked elsewhere by
//! hand-written attacks (`ppfts-verify`) and exhaustive small-`n` model
//! checking (`ppfts-analyze`). This crate flips the burden of proof: it
//! *searches* for a fault schedule that breaks the simulator, libafl
//! style, with the simulator itself as the executor.
//!
//! * [`ScheduleGenome`] — a JSON-serializable description of an attack:
//!   one-shot (optionally agent-targeted) omission events plus
//!   hash-Bernoulli rate segments. A genome *compiles* into the
//!   engine's deterministic
//!   [`OmissionSchedule`](ppfts_engine::OmissionSchedule), so any found
//!   attack replays bit-identically from its JSON.
//! * [`mutate`] / [`crossover`] — the mutation operators: time-shift,
//!   window resize, burst split/merge, rate jitter, and re-targeting
//!   toward the topology's sweep-cut vertices
//!   ([`Topology::sweep_cut_vertices`](ppfts_population::Topology::sweep_cut_vertices)),
//!   where the E13 experiments showed conductance limits tolerance.
//! * [`FuzzTarget`] — the harness: graphical `SKnO` running an epidemic
//!   over a fixed seed set, scoring each genome by an
//!   [`AttackSeverity`] (seeds broken, agents left pending, stall
//!   depth, steps to convergence).
//! * [`Corpus`] + [`fuzz`] — the search loop over a severity-ordered
//!   corpus.
//! * `ppfts_fuzz` — the CLI: fuzz, `--replay` a genome JSON with a
//!   schedule-faithfulness audit
//!   ([`audit_omission_schedule`](ppfts_verify::audit_omission_schedule)),
//!   and a `--self-test` that must break a deliberately under-provisioned
//!   simulator. Exit codes follow the repo gate contract: 0 clean,
//!   1 findings, 2 usage error.

#![warn(missing_docs)]

mod corpus;
mod fuzzer;
mod genome;
mod harness;
mod mutate;

pub use corpus::{Corpus, ScoredGenome};
pub use fuzzer::{fuzz, FuzzConfig, FuzzReport};
pub use genome::{GenomeError, ScheduleGenome};
pub use harness::{AttackSeverity, BaselineRun, Evaluation, FuzzTarget, SeedOutcome};
pub use mutate::{crossover, mutate, random_genome, MutationCtx};
