//! Fault-tolerant simulators of two-way population protocols — the primary
//! contribution of *"On the Power of Weaker Pairwise Interaction:
//! Fault-Tolerant Simulation of Population Protocols"* (Di Luna, Flocchini,
//! Izumi, Izumi, Santoro, Viglietta; ICDCS 2017).
//!
//! A **simulator** is a wrapper protocol that runs an arbitrary two-way
//! protocol `P` on a weaker interaction model, giving the population the
//! illusion of two-way atomic exchanges. This crate implements every
//! simulator the paper gives, together with the formal machinery used to
//! *verify* that a wrapper really simulates (paper §2.4):
//!
//! | paper artifact | here |
//! |----------------|------|
//! | `SKnO` (§4.1, Thm 4.1, Cor 1) — knowledge of an omission bound, models I3/I4 | [`Skno`] |
//! | `SID` (§4.2, Fig 3, Thm 4.5) — unique IDs, model IO | [`Sid`] |
//! | `Nn` + `SID` (§4.3, Lemma 3, Thm 4.6) — knowledge of `n`, model IO | [`NamedSid`] |
//! | projection `π_P`, simulated states | [`SimulatorState`], [`project`] |
//! | events `E(Γ)` (§2.4) | [`SimEvent`], [`extract_events`] |
//! | perfect matching, derived execution (Defs 3–4) | [`build_matching`], [`verify_derived_execution`] |
//! | TT / FTT (Defs 6–7) | [`transition_time`], [`fastest_transition_time`] |
//!
//! The impossibility side of the paper (§3) lives in `ppfts-verify`, which
//! uses [`fastest_transition_time`]'s witness schedules to build the
//! safety-violating runs of Lemma 1 and Theorems 3.1–3.3 against these
//! simulators.
//!
//! # Quickstart
//!
//! Simulate the paper's Pairing protocol over Immediate Observation with
//! unique IDs:
//!
//! ```
//! use ppfts_core::{project, Sid};
//! use ppfts_engine::{Batched, OneWayModel, OneWayRunner, Stop};
//! use ppfts_protocols::{Pairing, PairingState};
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
//! # Ok::<(), ppfts_engine::EngineError>(())
//! ```

#![warn(missing_docs)]

mod commit;
mod event;
mod ftt;
mod matching;
mod naming;
mod sid;
mod skno;

pub use commit::{project, Commit, Role, SimulatorState};
pub use event::{extract_events, SimEvent};
pub use ftt::{fastest_transition_time, shortest_schedule, step_pair, transition_time, FttWitness};
pub use matching::{build_matching, verify_derived_execution, Matching, MatchingError};
pub use naming::{GossipPolicy, NamedSid, NamedState};
pub use sid::{RollbackPolicy, Sid, SidPhase, SidState};
pub use skno::{
    sim_pressure, JokerBookkeeping, SimPressure, Skno, SknoState, Token, MAX_OMISSION_BOUND,
};

/// The pure form of an in-place hook: `f` applied to a clone of `q`, its
/// `changed` flag dropped. Each simulator writes a transition once, in
/// place, and derives the pure hook of `OneWayProgram` through here.
fn updated<Q: Clone>(q: &Q, f: impl FnOnce(&mut Q) -> bool) -> Q {
    let mut next = q.clone();
    f(&mut next);
    next
}
