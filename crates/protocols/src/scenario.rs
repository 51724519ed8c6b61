//! Graph-aware workload scenario: the epidemic on a restricted
//! interaction topology.
//!
//! The protocols in this crate are transition functions and know nothing
//! about *who may meet whom* — that is the scheduling layer's business.
//! This module packages the canonical graphical workload of the
//! population-protocol literature, broadcast by epidemic, as a
//! ready-to-run scenario over an explicit [`Topology`]: a seeded initial
//! configuration placed at a graph position, a convergence predicate, and
//! an assembled runner. It is the payload of the E12 experiment (ring
//! vs. random-regular vs. complete; see `EXPERIMENTS.md`), where the
//! topology's conductance — not the protocol — dictates the convergence
//! exponent: Θ(n log n) interactions on the complete graph and good
//! expanders versus Θ(n²) on the ring, whose two infection frontiers are
//! hit with probability ~2/n per step.
//!
//! # Example
//!
//! ```
//! use ppfts_engine::{Batched, Stop};
//! use ppfts_population::{Population, Topology};
//! use ppfts_protocols::scenario;
//!
//! let ring = Topology::ring(16)?;
//! let mut runner = scenario::epidemic_on(ring, 7)?;
//! let out = runner.run(Batched(256), Stop::until(1_000_000, scenario::all_infected))?;
//! assert!(out.is_satisfied());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use ppfts_engine::{
    EngineError, NoOmissions, StatsOnly, TopologyScheduler, TwoWayModel, TwoWayRunner,
};
use ppfts_population::{Configuration, Population, Topology};

use crate::Epidemic;

/// The epidemic runner type [`epidemic_on`] assembles.
pub type EpidemicRunner =
    TwoWayRunner<Epidemic, TopologyScheduler, NoOmissions, StatsOnly, Configuration<bool>>;

/// The seeded broadcast configuration for `topology`: agent 0 infected,
/// everyone else susceptible. Vertex 0 is a hub for [`Topology::star`]
/// and a corner for [`Topology::grid2d`], so the seed placement is the
/// interesting one for both.
fn seeded_epidemic(topology: &Topology) -> Configuration<bool> {
    Configuration::new((0..topology.len()).map(|v| v == 0).collect())
}

/// Whether the epidemic has reached every agent (works on both
/// population backends).
pub fn all_infected<P: Population<State = bool>>(config: &P) -> bool {
    config.count_state(&true) == config.len()
}

/// Assembles the epidemic broadcast scenario on `topology`: the
/// [`Epidemic`] protocol under the fault-free two-way model, scheduled
/// over the graph's edges, seeded at agent 0, on the zero-allocation
/// [`StatsOnly`] path.
///
/// # Errors
///
/// Propagates builder errors (none are reachable for a valid
/// [`Topology`], which is connected and has ≥ 2 vertices by
/// construction).
pub fn epidemic_on(topology: Topology, seed: u64) -> Result<EpidemicRunner, EngineError> {
    let config = seeded_epidemic(&topology);
    TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
        .config(config)
        .topology(topology)
        .trace_sink(StatsOnly)
        .seed(seed)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_engine::{Batched, Stop};

    #[test]
    fn epidemic_crosses_every_family() {
        let topologies = [
            Topology::ring(24).unwrap(),
            Topology::star(24).unwrap(),
            Topology::grid2d(4, 6).unwrap(),
            Topology::random_regular(24, 3, 2).unwrap(),
            Topology::complete(24).unwrap(),
        ];
        for t in topologies {
            let label = t.to_string();
            let mut runner = epidemic_on(t, 11).unwrap();
            let out = runner
                .run(Batched(256), Stop::until(5_000_000, all_infected))
                .unwrap();
            assert!(out.is_satisfied(), "epidemic stalled on {label}");
        }
    }

    #[test]
    fn ring_broadcast_is_slower_than_complete() {
        // Same n, same seed: the ring's two-frontier broadcast needs
        // more interactions than the complete graph's epidemic. Averaged
        // over a few seeds to keep the comparison robust.
        let n = 32;
        let (mut ring_total, mut complete_total) = (0u64, 0u64);
        for seed in 0..3 {
            let mut ring = epidemic_on(Topology::ring(n).unwrap(), seed).unwrap();
            ring_total += ring
                .run(Batched(64), Stop::until(10_000_000, all_infected))
                .unwrap()
                .steps();
            let mut complete = epidemic_on(Topology::complete(n).unwrap(), seed).unwrap();
            complete_total += complete
                .run(Batched(64), Stop::until(10_000_000, all_infected))
                .unwrap()
                .steps();
        }
        assert!(
            ring_total > complete_total,
            "ring {ring_total} vs complete {complete_total}"
        );
    }

    #[test]
    fn initial_configurations_are_placed_by_vertex() {
        let t = Topology::star(5).unwrap();
        let epi = seeded_epidemic(&t);
        assert_eq!(epi.as_slice(), &[true, false, false, false, false]);
        assert!(!all_infected(&epi));
    }
}
