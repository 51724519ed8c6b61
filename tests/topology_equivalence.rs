//! Facade-level checks of the topology layer: conductance
//! instrumentation, build-time topology negotiation and scheduler laws,
//! as seen through the `ppfts` re-exports. The complete-graph and
//! graphical-simulator equivalences are rows of `tests/differential.rs`;
//! graph validity and fairness properties live in `tests/properties.rs`.

use ppfts::engine::{
    EngineError, InteractionLaw, OneWayModel, OneWayProgram, OneWayRunner, Scheduler, StatsOnly,
    TopologyScheduler, TwoWayModel, TwoWayRunner, UniformScheduler,
};
use ppfts::population::{Configuration, CountConfiguration, Topology};
use ppfts::protocols::Epidemic;

/// One-way epidemic: the reactor catches whatever the starter carries.
struct Or;
impl OneWayProgram for Or {
    type State = bool;
    fn on_receive(&self, s: &bool, r: &bool) -> bool {
        *s || *r
    }
}

#[test]
fn conductance_instrumentation_matches_the_e13_families() {
    // The instrumentation the E13 experiment charts simulators against:
    // conductance orders the families, and Cheeger's inequality brackets
    // it by the spectral gap on both the exact and estimated paths.
    let ring = Topology::ring(64).unwrap();
    let rr4 = Topology::random_regular(64, 4, 12).unwrap();
    let complete = Topology::complete(64).unwrap();
    let (phi_ring, phi_rr4, phi_complete) = (
        ring.conductance(),
        rr4.conductance(),
        complete.conductance(),
    );
    assert!(phi_ring < phi_rr4 && phi_rr4 < phi_complete);
    for t in [&ring, &rr4, &complete] {
        let gap = t.spectral_profile(20_000).spectral_gap;
        let phi = t.conductance();
        assert!(
            gap / 2.0 <= phi + 1e-9 && phi <= (2.0 * gap).sqrt() + 1e-9,
            "{t}: Cheeger violated — gap {gap}, Φ {phi}"
        );
    }
    // Small graphs are exact; the exact value agrees with the general
    // entry point.
    let small = Topology::ring(12).unwrap();
    assert_eq!(small.conductance_exact().unwrap(), small.conductance());
}

#[test]
fn count_backend_rejects_restricted_topologies_at_build_time() {
    let err = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
        .population(CountConfiguration::from_groups([(true, 1), (false, 7)]))
        .topology(Topology::ring(8).unwrap())
        .trace_sink(StatsOnly)
        .build()
        .err()
        .expect("ring on counts must not build");
    assert!(matches!(
        err,
        EngineError::CompleteInteractionLawRequired {
            law: InteractionLaw::Topological
        }
    ));
    // The misconfiguration never reaches a run: the same assembly on the
    // dense backend works.
    assert!(TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
        .config(Configuration::from_groups([(true, 1), (false, 7)]))
        .topology(Topology::ring(8).unwrap())
        .trace_sink(StatsOnly)
        .build()
        .is_ok());
}

#[test]
fn builders_reject_topology_size_mismatches() {
    let err = OneWayRunner::builder(OneWayModel::Io, Or)
        .config(Configuration::new(vec![false; 6]))
        .topology(Topology::ring(5).unwrap())
        .build()
        .err()
        .expect("size mismatch must not build");
    assert!(matches!(
        err,
        EngineError::TopologySizeMismatch {
            topology: 5,
            population: 6
        }
    ));
}

#[test]
fn scheduler_laws_are_exposed_through_the_facade() {
    assert_eq!(UniformScheduler::new().law(), InteractionLaw::Uniform);
    let ring = TopologyScheduler::new(Topology::ring(4).unwrap());
    assert_eq!(ring.law(), InteractionLaw::Topological);
    assert!(!ring.law().count_realizable());
    let complete = TopologyScheduler::new(Topology::complete(4).unwrap());
    assert!(complete.law().count_realizable());
}
