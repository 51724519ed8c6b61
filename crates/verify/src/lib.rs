//! Verification and adversarial constructions for population-protocol
//! simulation.
//!
//! This crate holds both halves of the reproduced paper's evidence:
//!
//! * **Positive** — checkers that certify a simulator run really simulated
//!   its two-way protocol:
//!   [`audit_pairing`] enforces the
//!   Pairing problem's irrevocability/safety/liveness (Definition 5)
//!   step-by-step ([`audit_pairing_batched`] at batch boundaries, for the
//!   witnesses that only need Pairing's sticky violations);
//!   [`topology_audit`] certifies graph-aware scheduling
//!   fairness (every edge of a connected topology dealt uniformly, no
//!   off-graph interactions in a recorded trace).
//! * **Negative** — the impossibility constructions of §3 as executable
//!   attack builders: [`attack::lemma1_attack`] assembles the run `I*` of
//!   Lemma 1 / Theorem 3.1 and drives a real simulator into a Pairing
//!   *safety violation*; [`attack::no1_resilience`] and the
//!   omission-free Theorem 3.2 variant expose the dichotomy in the weak
//!   models I1/I2 (either a candidate is not NO1-resilient, or it can be
//!   made unsafe without a single omission); [`optimist::Optimist`] is the
//!   retransmission-based strawman simulator that realizes the unsafe horn
//!   of that dichotomy.
//!
//! Exact verification of small systems (every reachable configuration,
//! every fair schedule) lives in `ppfts-analyze`'s model checker. This
//! crate's `figure4` binary prints these results in the shape of the
//! paper's Figure 4 (`cargo run --release -p ppfts-verify --bin figure4`).

#![warn(missing_docs)]

pub mod ablation;
pub mod attack;
pub mod json;
#[cfg(test)]
#[path = "exact_cases.rs"]
mod model_check;
pub mod optimist;
pub mod pairing_audit;
pub mod schedule_audit;
pub mod topology_audit;

pub use ablation::{rummy_ablation, RummyAblation};
pub use attack::{
    degradation_report, lemma1_attack, no1_resilience, thm32_attack, AttackOutcome, AttackReport,
    DegradationReport,
};
pub use optimist::{Optimist, OptimistState};
pub use pairing_audit::{
    audit_pairing, audit_pairing_batched, pairing_converged, AuditReport, PairingViolation,
};
pub use schedule_audit::{audit_omission_schedule, ScheduleViolation};
pub use topology_audit::{
    audit_scheduler_coverage, audit_simulation_topology, audit_trace_topology, CoverageReport,
    SimulationTopologyReport, SimulationTopologyViolation, TopologyViolation,
};
