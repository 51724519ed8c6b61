//! Core data model for population protocols.
//!
//! A *population protocol* (Angluin et al., "Computation in networks of
//! passively mobile finite-state sensors") is a collection of `n` anonymous
//! agents, each holding a local state from a set `Q`. An external scheduler
//! repeatedly picks an ordered pair of agents — the *starter* and the
//! *reactor* — and the pair atomically updates its states according to a
//! joint transition function `δ: Q × Q → Q × Q`.
//!
//! This crate provides the protocol-level vocabulary shared by the whole
//! `ppfts` workspace:
//!
//! * [`AgentId`] — index of an agent within a population,
//! * [`Interaction`] — an ordered (starter, reactor) pair,
//! * [`Population`] — the storage-backend abstraction over agent
//!   populations, with two implementations:
//!   [`DenseConfiguration`] (alias [`Configuration`]) — the vector of
//!   local states of all agents — and [`CountConfiguration`] — state
//!   multiplicities only, O(distinct states) memory for giant anonymous
//!   runs,
//! * [`Multiset`] — order-insensitive view of a configuration,
//! * [`dist`] — exact discrete samplers: the binomial, hypergeometric
//!   and multivariate hypergeometric draws powering the batch-epoch
//!   execution path, and an [`AliasTable`] for repeated categorical
//!   draws,
//! * [`Topology`] — first-class interaction graphs (complete, ring, star,
//!   grid, random-regular, Erdős–Rényi) with CSR adjacency and O(1)
//!   uniform arc sampling, the data behind graph-aware scheduling,
//! * [`TwoWayProtocol`] — the transition function `δ_P` of a protocol in the
//!   standard two-way model,
//! * [`Semantics`] — input/output conventions used to state correctness
//!   ("the population stably computes ..."),
//! * [`DeltaRule`]/[`TableProtocol`] — table-driven protocol construction.
//!
//! The *interaction models* (two-way, immediate transmission/observation,
//! and their omissive weakenings) live in `ppfts-engine`; the fault-tolerant
//! simulators that are the subject of the reproduced paper live in
//! `ppfts-core`.
//!
//! # Example
//!
//! ```
//! use ppfts_population::{Configuration, Interaction, TwoWayProtocol};
//!
//! /// One-bit epidemic: an infected starter infects the reactor.
//! struct Epidemic;
//!
//! impl TwoWayProtocol for Epidemic {
//!     type State = bool;
//!     fn delta(&self, s: &bool, r: &bool) -> (bool, bool) {
//!         (*s, *s || *r)
//!     }
//! }
//!
//! let mut config = Configuration::new(vec![true, false, false]);
//! let i = Interaction::new(0, 2).unwrap();
//! config.apply(&Epidemic, i).unwrap();
//! assert_eq!(config.as_slice(), &[true, false, true]);
//! ```

#![warn(missing_docs)]

mod agent;
mod config;
mod count;
pub mod dist;
mod error;
mod interaction;
mod multiset;
mod population;
mod protocol;
mod semantics;
mod state;
mod topology;

pub use agent::AgentId;
pub use config::{Configuration, DenseConfiguration};
pub use count::CountConfiguration;
pub use dist::AliasTable;
pub use error::PopulationError;
pub use interaction::Interaction;
pub use multiset::Multiset;
pub use population::Population;
pub use protocol::{
    delta_closure, DeltaRule, FunctionProtocol, SymmetryReport, TableProtocol, TwoWayProtocol,
};
pub use semantics::{unanimous_output, unanimous_output_counts, ConsensusOutput, Semantics};
pub use state::{EnumerableStates, State};
pub use topology::{
    SpectralProfile, Topology, TopologyClass, TopologyError, EXACT_CONDUCTANCE_LIMIT,
    RANDOM_REGULAR_ATTEMPTS,
};
