//! Static protocol lints and exhaustive small-n model checking.
//!
//! Layer 6 of the stack: `ppfts-analyze` inspects protocols and simulator
//! programs *before* (or instead of) running them. It complements
//! `ppfts-verify` — which certifies sampled executions — with two
//! execution-free instruments:
//!
//! * **Table lints** ([`lints`]): delta-closure reachability (unreachable
//!   states, dead and shadowed rules), linear conservation laws, output
//!   instability, and semi-static probes of SKnO's token bookkeeping —
//!   including a graphical-addressing lint that statically flags the
//!   change-run deadlock shape found (dynamically, the hard way) by the
//!   topology audit.
//! * **An exhaustive budgeted model checker** ([`checker`]): one BFS over
//!   interned configurations (sorted for agent-symmetric programs,
//!   per agent for the graphical simulators) under an `(o, model)`
//!   omission adversary, proving convergence-from-every-reachable-
//!   configuration and stall-freedom, or extracting a counterexample
//!   trace that replays through the engine's runners.
//!
//! The [`suite`] module fixes the checked grid (which protocol, which
//! `n`, which budget, which expectation) and powers the `ppfts_analyze`
//! gate binary, which shares `bench_gate`'s exit-code contract: 0 clean,
//! 1 findings, 2 usage error.

#![warn(missing_docs)]

pub mod checker;
pub mod finding;
pub mod lints;
pub mod suite;

pub use checker::{check, Exploration, ExploreError, OutputFlip, Trace, Verdict};
pub use finding::{Finding, Report, Severity};
pub use suite::{grid_table, run_suite, CheckResult, GridRow, SuiteCheck, SUITE};
