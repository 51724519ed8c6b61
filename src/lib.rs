//! # ppfts — fault-tolerant simulation of population protocols
//!
//! Facade crate for the `ppfts` workspace, a complete Rust reproduction
//! of *"On the Power of Weaker Pairwise Interaction: Fault-Tolerant
//! Simulation of Population Protocols"* (Di Luna, Flocchini, Izumi,
//! Izumi, Santoro, Viglietta; ICDCS 2017).
//!
//! The workspace is layered; this crate re-exports each layer under a
//! short path:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`population`] | `ppfts-population` | agents, population backends (dense + count-based), multisets, two-way protocols, semantics |
//! | [`engine`] | `ppfts-engine` | the ten interaction models, omission adversaries, schedulers, runners (one `run(exec, stop)` driver), trace sinks, model hierarchy |
//! | [`protocols`] | `ppfts-protocols` | Pairing, epidemic, majorities, flock-of-birds, remainder, max-gossip, leader election, semilinear compiler |
//! | [`core`] | `ppfts-core` | the paper's simulators (`SKnO`, `SID`, `Nn`) and the simulation theory (events, matchings, derived executions, FTT) |
//! | [`verify`] | `ppfts-verify` | Pairing audits, the impossibility attacks, ablations |
//! | [`analyze`] | `ppfts-analyze` | static table lints, the exhaustive budgeted model checker, the `ppfts_analyze` gate suite |
//!
//! # Example
//!
//! ```
//! use ppfts::core::{project, Sid};
//! use ppfts::engine::{Batched, OneWayModel, OneWayRunner, Stop};
//! use ppfts::protocols::{Pairing, PairingState};
//!
//! let sims: Vec<PairingState> = Pairing::initial(2, 2).as_slice().to_vec();
//! let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
//!     .config(Sid::<Pairing>::initial(&sims))
//!     .seed(42)
//!     .build()?;
//! let out = runner.run(Batched(1), Stop::until(500_000, |c| {
//!     project(c).count_state(&PairingState::Paired) == 2
//! }))?;
//! assert!(out.is_satisfied());
//! # Ok::<(), ppfts::engine::EngineError>(())
//! ```
//!
//! See `README.md` for the tour, `DESIGN.md` for the system inventory and
//! the documented paper errata, and `EXPERIMENTS.md` for paper-claim vs
//! measured results.

pub use ppfts_analyze as analyze;
pub use ppfts_core as core;
pub use ppfts_engine as engine;
pub use ppfts_population as population;
pub use ppfts_protocols as protocols;
pub use ppfts_verify as verify;
