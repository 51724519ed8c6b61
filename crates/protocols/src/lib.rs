//! A library of classic two-way population protocols.
//!
//! These are the *payloads* of the reproduced paper: concrete two-way
//! protocols that the fault-tolerant simulators in `ppfts-core` must run
//! correctly on weaker interaction models. The collection covers the
//! protocols the paper itself uses plus the standard workloads of the PP
//! literature:
//!
//! * [`Pairing`] — the paper's Pairing protocol `P_IP` (Definition 5), the
//!   counterexample driving every impossibility proof;
//! * [`Epidemic`] — one-bit infection (logical OR), the simplest stable
//!   predicate;
//! * [`ApproximateMajority`] — the 3-state approximate-majority protocol;
//! * [`ExactMajority`] — the 4-state exact-majority protocol
//!   (strong/weak opinions with cancellation);
//! * [`FlockOfBirds`] — the threshold-counting protocol behind the paper's
//!   motivating "sensor on every bird" scenario: does the number of
//!   *marked* agents reach `k`?;
//! * [`Remainder`] — sum of inputs modulo `m` compared against `r`;
//! * [`MaxGossip`] — all agents learn the maximum input;
//! * [`LeaderElection`] — classic `(L, L) → (L, F)` leader election;
//! * [`Product`] — run two protocols in lock-step and combine their
//!   outputs, giving boolean combinations of stable predicates;
//! * [`SemilinearProtocol`] — a compiler from arbitrary semilinear
//!   predicates (boolean combinations of threshold and remainder atoms —
//!   the exact expressive power of standard population protocols) to
//!   concrete two-way protocols;
//! * [`scenario`] — the graph-aware workload: epidemic broadcast placed
//!   on explicit interaction [`Topology`](ppfts_population::Topology)s
//!   (ring, star, grid, random-regular), the payload of experiment E12.
//!
//! Every protocol implements
//! [`TwoWayProtocol`](ppfts_population::TwoWayProtocol); those that compute
//! something also implement [`Semantics`](ppfts_population::Semantics) with
//! a ground-truth `expected` oracle, which the correctness harnesses
//! compare simulated executions against.

#![warn(missing_docs)]

mod epidemic;
mod flock;
mod gossip;
mod leader;
mod majority;
mod pairing;
mod product;
mod remainder;
pub mod scenario;
pub mod semilinear;

pub use epidemic::Epidemic;
pub use flock::{FlockOfBirds, FlockState};
pub use gossip::MaxGossip;
pub use leader::{LeaderElection, LeaderState};
pub use majority::{
    majority_states, ApproximateMajority, ExactMajority, ExactMajorityState, MajorityOpinion,
    MajorityState,
};
pub use pairing::{Pairing, PairingState};
pub use product::Product;
pub use remainder::{Remainder, RemainderState};
pub use semilinear::{Atom, AtomState, PredicateExpr, SemilinearError, SemilinearProtocol};
