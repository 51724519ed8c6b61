//! Topology-layer equivalence and fairness suite.
//!
//! Three families of properties certify the graph-aware scheduling
//! refactor:
//!
//! 1. **Complete-graph equivalence** — `TopologyScheduler` over
//!    `Topology::complete(n)` is *bit-identical* to the classic
//!    `UniformScheduler` for any seed, model, omission strategy, batch
//!    size and backend: same final configuration, same `RunStats`, same
//!    step count, same recorded trace. This is the contract that makes
//!    the topology layer a strict generalization — existing complete-
//!    graph experiments keep their exact streams.
//! 2. **Graph validity** — on restricted topologies every dealt
//!    interaction is a graph arc (audited from full traces), batched
//!    runs stay bit-identical to scalar runs, and random graph
//!    construction (`RandomRegular`, `ErdosRenyi`) only ever yields
//!    simple connected graphs with the promised degrees.
//! 3. **Fairness** — statistical (chi-square-style) uniformity of
//!    topology edge sampling, and the round-robin scheduler's hard
//!    rotation guarantee.
//! 4. **Graphical simulators** — the layer-2/3 simulators (`SKnO`,
//!    `SID`, `NamedSid`) built with their `graphical` constructors on
//!    `Topology::complete(n)` are *bit-identical* (full simulator
//!    states, `RunStats`, RNG stream) to the classic anonymous
//!    simulators; on restricted graphs their traces pass the
//!    simulation-embedding audit, and the builders enforce the
//!    program-side topology negotiation with typed errors.
//!
//! CI runs this suite with `PROPTEST_CASES=32` on every push.

use proptest::prelude::*;

use ppfts::core::{NamedSid, Sid, Skno};
use ppfts::engine::{
    Batched, EngineError, FullTrace, InteractionLaw, OneWayModel, OneWayProgram, OneWayRunner,
    RateStrategy, RoundRobinScheduler, Scheduler, StatsOnly, Stop, TopologyScheduler, TwoWayModel,
    TwoWayRunner, UniformScheduler,
};
use ppfts::population::{Configuration, CountConfiguration, Topology, TopologyError};
use ppfts::protocols::{Epidemic, MaxGossip, Pairing};
use ppfts::verify::{audit_scheduler_coverage, audit_simulation_topology, audit_trace_topology};

/// One-way epidemic: the reactor catches whatever the starter carries.
struct Or;
impl OneWayProgram for Or {
    type State = bool;
    fn on_receive(&self, s: &bool, r: &bool) -> bool {
        *s || *r
    }
}

fn one_way_model_strategy() -> impl Strategy<Value = OneWayModel> {
    prop_oneof![
        Just(OneWayModel::It),
        Just(OneWayModel::Io),
        Just(OneWayModel::I1),
        Just(OneWayModel::I2),
        Just(OneWayModel::I3),
        Just(OneWayModel::I4),
    ]
}

fn two_way_model_strategy() -> impl Strategy<Value = TwoWayModel> {
    prop_oneof![
        Just(TwoWayModel::Tw),
        Just(TwoWayModel::T1),
        Just(TwoWayModel::T2),
        Just(TwoWayModel::T3),
    ]
}

/// A restricted (non-complete) topology of `n` vertices, across every
/// generator family. `n` must make each family constructible.
fn restricted_topology(n: usize, pick: u8, seed: u64) -> Topology {
    match pick % 4 {
        0 => Topology::ring(n).unwrap(),
        1 => Topology::star(n).unwrap(),
        2 => Topology::grid2d(2, n.div_ceil(2)).unwrap(),
        _ => {
            let d = if n.is_multiple_of(2) { 3 } else { 2 };
            Topology::random_regular(n, d, seed).unwrap()
        }
    }
}

/// Grid construction may round `n` up; read the real size back.
fn restricted_len(t: &Topology) -> usize {
    t.len()
}

proptest! {
    /// One-way runs: TopologyScheduler(Complete) ≡ UniformScheduler
    /// bit-for-bit, scalar and batched, across models and omission rates.
    #[test]
    fn complete_topology_equals_uniform_one_way(
        model in one_way_model_strategy(),
        infected in prop::collection::vec(any::<bool>(), 2..16),
        rate in 0u32..=100,
        seed in 0u64..10_000,
        steps in 0u64..400,
        batch in 1u64..260,
    ) {
        let n = infected.len();
        let uniform = {
            let mut r = OneWayRunner::builder(model, Or)
                .config(Configuration::new(infected.clone()))
                .scheduler(UniformScheduler::new())
                .adversary(RateStrategy::new(rate as f64 / 100.0))
                .seed(seed)
                .trace_sink(StatsOnly)
                .build()
                .unwrap();
            for _ in 0..steps {
                r.step().unwrap();
            }
            (r.config().clone(), r.stats(), r.steps())
        };
        for batched in [None, Some(batch)] {
            let mut r = OneWayRunner::builder(model, Or)
                .config(Configuration::new(infected.clone()))
                .topology(Topology::complete(n).unwrap())
                .adversary(RateStrategy::new(rate as f64 / 100.0))
                .seed(seed)
                .trace_sink(StatsOnly)
                .build()
                .unwrap();
            match batched {
                Some(b) => {
                    r.run(Batched(b), Stop::steps(steps)).unwrap();
                }
                None => {
                    for _ in 0..steps {
                        r.step().unwrap();
                    }
                }
            }
            prop_assert_eq!(
                (r.config().clone(), r.stats(), r.steps()),
                uniform.clone(),
                "batched: {:?}",
                batched
            );
        }
    }

    /// Two-way runs under every model, including the recorded trace: the
    /// topology layer must not change a single step record.
    #[test]
    fn complete_topology_equals_uniform_two_way_with_traces(
        model in two_way_model_strategy(),
        n in 2usize..12,
        rate in 0u32..=100,
        seed in 0u64..10_000,
        steps in 0u64..300,
    ) {
        let initial: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let builder = || TwoWayRunner::builder(model, Epidemic)
            .config(Configuration::new(initial.clone()))
            .adversary(RateStrategy::new(rate as f64 / 100.0))
            .seed(seed)
            .trace_sink(FullTrace::new());
        let uniform = {
            // The default scheduler, unchanged.
            let mut r = builder().build().unwrap();
            for _ in 0..steps {
                r.step().unwrap();
            }
            (r.config().clone(), r.stats(), r.take_trace())
        };
        let topo = {
            let mut r = builder()
                .topology(Topology::complete(n).unwrap())
                .build()
                .unwrap();
            for _ in 0..steps {
                r.step().unwrap();
            }
            (r.config().clone(), r.stats(), r.take_trace())
        };
        prop_assert_eq!(uniform.0.as_slice(), topo.0.as_slice());
        prop_assert_eq!(uniform.1, topo.1);
        prop_assert_eq!(uniform.2, topo.2, "traces diverged");
    }

    /// Count-backed runs accept the complete topology (its law is
    /// uniform) and stay bit-identical to the uniform-scheduler count
    /// run.
    #[test]
    fn complete_topology_equals_uniform_on_counts(
        n in 2usize..40,
        seed in 0u64..10_000,
        steps in 0u64..400,
        batch in 1u64..64,
    ) {
        let builder = || TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
            .population(CountConfiguration::from_groups([
                (true, 1),
                (false, n - 1),
            ]))
            .seed(seed)
            .trace_sink(StatsOnly);
        let mut uniform = builder().build().unwrap();
        uniform.run(Batched(1), Stop::steps(steps)).unwrap();
        let mut topo = builder()
            .topology(Topology::complete(n).unwrap())
            .build()
            .unwrap();
        topo.run(Batched(batch), Stop::steps(steps)).unwrap();
        prop_assert_eq!(uniform.config(), topo.config());
        prop_assert_eq!(uniform.stats(), topo.stats());
    }

    /// On restricted graphs, batched stepping stays bit-identical to
    /// scalar stepping (the batched path threads the topology law
    /// through the same RNG stream).
    #[test]
    fn batched_equals_scalar_on_restricted_topologies(
        pick in 0u8..4,
        n in 4usize..14,
        gseed in 0u64..50,
        model in one_way_model_strategy(),
        rate in 0u32..=60,
        seed in 0u64..10_000,
        steps in 0u64..400,
        batch in 1u64..128,
    ) {
        let topology = restricted_topology(n, pick, gseed);
        let n = restricted_len(&topology);
        let build = || OneWayRunner::builder(model, Or)
            .config(Configuration::new((0..n).map(|i| i == 0).collect::<Vec<_>>()))
            .topology(topology.clone())
            .adversary(RateStrategy::new(rate as f64 / 100.0))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let scalar = {
            let mut r = build();
            for _ in 0..steps {
                r.step().unwrap();
            }
            (r.config().clone(), r.stats(), r.steps())
        };
        let mut batched_r = build();
        batched_r.run(Batched(batch), Stop::steps(steps)).unwrap();
        prop_assert_eq!(
            (batched_r.config().clone(), batched_r.stats(), batched_r.steps()),
            scalar
        );
    }

    /// Every interaction a topology-scheduled run deals is an arc of the
    /// graph — audited from the full trace, for every generator family.
    #[test]
    fn restricted_runs_stay_on_the_graph(
        pick in 0u8..4,
        n in 4usize..14,
        gseed in 0u64..50,
        seed in 0u64..10_000,
        steps in 1u64..500,
    ) {
        let topology = restricted_topology(n, pick, gseed);
        let n = restricted_len(&topology);
        let mut r = TwoWayRunner::builder(TwoWayModel::Tw, MaxGossip)
            .config(Configuration::new((0..n as u64).collect::<Vec<_>>()))
            .topology(topology.clone())
            .seed(seed)
            .trace_sink(FullTrace::new())
            .build()
            .unwrap();
        for _ in 0..steps {
            r.step().unwrap();
        }
        let report = audit_trace_topology(r.trace().unwrap(), &topology);
        prop_assert!(report.is_ok(), "off-graph arc: {:?}", report);
        prop_assert_eq!(report.unwrap().draws, steps);
    }

    /// Random-regular construction is valid for every admissible (n, d,
    /// seed): exact degrees, no self-loops, symmetric adjacency — and
    /// connected, or it would not have been returned at all.
    #[test]
    fn random_regular_constructions_are_valid(
        n in 4usize..40,
        d in 2usize..5,
        seed in 0u64..1_000,
    ) {
        prop_assume!(d < n && (n * d) % 2 == 0);
        let t = Topology::random_regular(n, d, seed).unwrap();
        prop_assert_eq!(t.len(), n);
        prop_assert_eq!(t.edge_count(), n * d / 2);
        for v in 0..n {
            prop_assert_eq!(t.degree(v), d, "vertex {}", v);
            prop_assert!(!t.contains_arc(v, v), "self-loop at {}", v);
            for w in t.neighbors(v) {
                prop_assert!(t.contains_arc(w, v), "asymmetric arc {}-{}", v, w);
            }
        }
    }

    /// Erdős–Rényi draws that construct are simple, symmetric and
    /// connected; sub-threshold failures are always the typed
    /// Disconnected error, never a bad graph.
    #[test]
    fn erdos_renyi_constructions_are_valid(
        n in 4usize..32,
        p_pct in 1u32..=100,
        seed in 0u64..1_000,
    ) {
        let p = p_pct as f64 / 100.0;
        match Topology::erdos_renyi(n, p, seed) {
            Ok(t) => {
                prop_assert_eq!(t.len(), n);
                let mut arcs = 0usize;
                for v in 0..n {
                    prop_assert!(!t.contains_arc(v, v));
                    for w in t.neighbors(v) {
                        prop_assert!(t.contains_arc(w, v), "asymmetric {}-{}", v, w);
                        arcs += 1;
                    }
                }
                prop_assert_eq!(arcs, t.arc_count());
                // Constructors certify connectivity: sampling must reach
                // every vertex eventually; spot-check via coverage.
                let report = audit_scheduler_coverage(&t, (t.arc_count() as u64) * 60, seed);
                prop_assert!(report.is_full(), "cold arcs on {}: {:?}", t, report);
            }
            Err(ppfts::population::TopologyError::Disconnected { reachable, len }) => {
                prop_assert!(reachable < len);
            }
            Err(e) => prop_assert!(false, "unexpected error {:?}", e),
        }
    }

    /// Chi-square-style uniformity of topology edge sampling: with k
    /// arcs and N = 200k draws, the statistic Σ (obs − exp)²/exp
    /// concentrates around its mean k−1. The bound 2(k−1) + 20 sits far
    /// beyond the distribution's 99.99th percentile at these k (its
    /// upper tail is heavier than √(2k)-normal for small k), yet any
    /// systematically hot or cold arc inflates the statistic linearly
    /// in N and blows straight past it.
    #[test]
    fn topology_edge_sampling_is_chi_square_uniform(
        pick in 0u8..4,
        n in 4usize..12,
        gseed in 0u64..50,
        seed in 0u64..10_000,
    ) {
        let topology = restricted_topology(n, pick, gseed);
        let arcs = topology.arc_count() as u64;
        let draws = arcs * 200;
        let mut scheduler = TopologyScheduler::new(topology.clone());
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
        let mut hits = vec![0u64; arcs as usize];
        for _ in 0..draws {
            let i = scheduler.next_interaction(topology.len(), &mut rng);
            let a = topology
                .arc_index(i.starter().index(), i.reactor().index())
                .expect("on-graph by construction");
            hits[a] += 1;
        }
        let expected = draws as f64 / arcs as f64;
        let chi2: f64 = hits
            .iter()
            .map(|&h| {
                let d = h as f64 - expected;
                d * d / expected
            })
            .sum();
        let df = (arcs - 1) as f64;
        let bound = 2.0 * df + 20.0;
        prop_assert!(
            chi2 < bound,
            "chi² = {} over bound {} on {} ({} draws)",
            chi2,
            bound,
            topology,
            draws
        );
    }

    /// Graphical `SKnO` on the complete topology is bit-identical to the
    /// classic anonymous `SKnO`: same full simulator states (token
    /// queues, sites, pending flags), same `RunStats`, same RNG stream —
    /// across models, omission rates, batch sizes and bounds.
    #[test]
    fn graphical_skno_on_complete_equals_anonymous_skno(
        n in 2usize..10,
        o in 0u32..3,
        i3 in any::<bool>(),
        rate in 0u32..=60,
        seed in 0u64..10_000,
        steps in 0u64..400,
        batch in 1u64..130,
    ) {
        let model = if i3 { OneWayModel::I3 } else { OneWayModel::I4 };
        let sims: Vec<_> = Pairing::initial(n / 2, n - n / 2).as_slice().to_vec();
        let anonymous = {
            let mut r = OneWayRunner::builder(model, Skno::new(Pairing, o))
                .config(Skno::<Pairing>::initial(&sims))
                .adversary(RateStrategy::new(rate as f64 / 100.0))
                .seed(seed)
                .trace_sink(StatsOnly)
                .build()
                .unwrap();
            for _ in 0..steps {
                r.step().unwrap();
            }
            (r.config().clone(), r.stats(), r.steps())
        };
        for batched in [None, Some(batch)] {
            let mut r = OneWayRunner::builder(
                model,
                Skno::graphical(Pairing, o, Topology::complete(n).unwrap()),
            )
            .config(Skno::<Pairing>::initial(&sims))
            .topology(Topology::complete(n).unwrap())
            .adversary(RateStrategy::new(rate as f64 / 100.0))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
            match batched {
                Some(b) => {
                    r.run(Batched(b), Stop::steps(steps)).unwrap();
                }
                None => {
                    for _ in 0..steps {
                        r.step().unwrap();
                    }
                }
            }
            prop_assert_eq!(
                (r.config().clone(), r.stats(), r.steps()),
                anonymous.clone(),
                "batched: {:?}",
                batched
            );
        }
    }

    /// Graphical `SID` and `NamedSid` on the complete topology are
    /// bit-identical to their classic constructors (full states and RNG
    /// stream; `SID`'s adjacency guard is vacuous on the complete graph).
    #[test]
    fn graphical_sid_and_named_on_complete_equal_classic(
        n in 2usize..10,
        named in any::<bool>(),
        seed in 0u64..10_000,
        steps in 0u64..400,
        batch in 1u64..130,
    ) {
        let sims: Vec<_> = Pairing::initial(n / 2, n - n / 2).as_slice().to_vec();
        if named {
            let classic = {
                let mut r = OneWayRunner::builder(OneWayModel::Io, NamedSid::new(Pairing, n))
                    .config(NamedSid::<Pairing>::initial(&sims))
                    .seed(seed)
                    .trace_sink(StatsOnly)
                    .build()
                    .unwrap();
                for _ in 0..steps {
                    r.step().unwrap();
                }
                (r.config().clone(), r.stats(), r.steps())
            };
            let mut r = OneWayRunner::builder(
                OneWayModel::Io,
                NamedSid::graphical(Pairing, Topology::complete(n).unwrap()),
            )
            .config(NamedSid::<Pairing>::initial(&sims))
            .topology(Topology::complete(n).unwrap())
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
            r.run(Batched(batch), Stop::steps(steps)).unwrap();
            prop_assert_eq!((r.config().clone(), r.stats(), r.steps()), classic);
        } else {
            let classic = {
                let mut r = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
                    .config(Sid::<Pairing>::initial(&sims))
                    .seed(seed)
                    .trace_sink(StatsOnly)
                    .build()
                    .unwrap();
                for _ in 0..steps {
                    r.step().unwrap();
                }
                (r.config().clone(), r.stats(), r.steps())
            };
            let mut r = OneWayRunner::builder(
                OneWayModel::Io,
                Sid::graphical(Pairing, Topology::complete(n).unwrap()),
            )
            .config(Sid::<Pairing>::initial(&sims))
            .topology(Topology::complete(n).unwrap())
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
            r.run(Batched(batch), Stop::steps(steps)).unwrap();
            prop_assert_eq!((r.config().clone(), r.stats(), r.steps()), classic);
        }
    }

    /// On restricted graphs, every trace a graphical simulator produces
    /// passes the simulation-embedding audit: physical interactions are
    /// graph arcs AND every simulated commit pairs adjacent vertices.
    #[test]
    fn graphical_simulator_traces_stay_on_graph(
        pick in 0u8..4,
        n in 4usize..12,
        gseed in 0u64..50,
        skno in any::<bool>(),
        o in 0u32..2,
        seed in 0u64..10_000,
        steps in 1u64..600,
    ) {
        let topology = restricted_topology(n, pick, gseed);
        let n = restricted_len(&topology);
        let sims: Vec<_> = Pairing::initial(n / 2, n - n / 2).as_slice().to_vec();
        if skno {
            let mut r = OneWayRunner::builder(
                OneWayModel::I3,
                Skno::graphical(Pairing, o, topology.clone()),
            )
            .config(Skno::<Pairing>::initial(&sims))
            .topology(topology.clone())
            .adversary(RateStrategy::new(0.1))
            .seed(seed)
            .trace_sink(FullTrace::new())
            .build()
            .unwrap();
            for _ in 0..steps {
                r.step().unwrap();
            }
            let report = audit_simulation_topology(r.trace().unwrap(), &topology);
            prop_assert!(report.is_ok(), "violation: {:?}", report);
            let report = report.unwrap();
            prop_assert_eq!(report.physical.draws, steps);
            // Every graphical SKnO commit names its partner vertex.
            prop_assert_eq!(report.commits, report.located_commits);
        } else {
            let mut r = OneWayRunner::builder(
                OneWayModel::Io,
                Sid::graphical(Pairing, topology.clone()),
            )
            .config(Sid::<Pairing>::initial(&sims))
            .topology(topology.clone())
            .seed(seed)
            .trace_sink(FullTrace::new())
            .build()
            .unwrap();
            for _ in 0..steps {
                r.step().unwrap();
            }
            let report = audit_simulation_topology(r.trace().unwrap(), &topology);
            prop_assert!(report.is_ok(), "violation: {:?}", report);
            prop_assert_eq!(report.unwrap().physical.draws, steps);
        }
    }

    /// The satellite fix: `Topology::random_regular`'s stub-pairing loop
    /// is hard-bounded. For *any* admissible-looking parameterization it
    /// terminates with either a valid graph or a typed error — never a
    /// hang, never a panic — and `d = 1` on more than two vertices
    /// (perfect matchings, never connected) always fails typed.
    #[test]
    fn random_regular_retry_loop_is_bounded_and_typed(
        n in 2usize..40,
        d in 1usize..6,
        seed in 0u64..5_000,
    ) {
        match Topology::random_regular(n, d, seed) {
            Ok(t) => {
                prop_assert_eq!(t.len(), n);
                for v in 0..n {
                    prop_assert_eq!(t.degree(v), d);
                }
            }
            Err(TopologyError::InvalidDegree { .. }) => {
                prop_assert!(d == 0 || d >= n || (n * d) % 2 == 1);
            }
            Err(TopologyError::PairingFailed { attempts }) => {
                prop_assert!(attempts > 0);
            }
            Err(e) => prop_assert!(false, "unexpected error {:?}", e),
        }
        if n > 2 && d == 1 {
            prop_assert!(matches!(
                Topology::random_regular(n, 1, seed),
                Err(TopologyError::InvalidDegree { .. })
                    | Err(TopologyError::PairingFailed { .. })
            ));
        }
    }

    /// Round-robin rotation fairness: over r complete rounds every
    /// ordered pair is dealt exactly r times — the hard guarantee the
    /// scheduler documents, checked across population sizes and seeds.
    #[test]
    fn round_robin_rotation_deals_every_pair_exactly_once_per_round(
        n in 3usize..8,
        rounds in 1u64..4,
        seed in 0u64..10_000,
    ) {
        let mut scheduler = RoundRobinScheduler::new();
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
        let per_round = (n * (n - 1)) as u64;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..rounds * per_round {
            *counts
                .entry(scheduler.next_interaction(n, &mut rng))
                .or_insert(0u64) += 1;
        }
        prop_assert_eq!(counts.len() as u64, per_round);
        for (pair, count) in counts {
            prop_assert_eq!(count, rounds, "pair {} dealt {} times", pair, count);
        }
    }
}

#[test]
fn builders_negotiate_program_topologies() {
    let ring = Topology::ring(8).unwrap();
    let sims: Vec<_> = Pairing::initial(4, 4).as_slice().to_vec();
    // A graphical simulator with the default (uniform) scheduler: the
    // program is graph-bound, the scheduler deals another law.
    let err = OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Pairing, ring.clone()))
        .config(Sid::<Pairing>::initial(&sims))
        .build()
        .err()
        .expect("graphical SID under a uniform scheduler must not build");
    assert!(matches!(
        err,
        EngineError::ProgramTopologyMismatch {
            law: InteractionLaw::Uniform,
            ..
        }
    ));
    // A *different* restricted topology is rejected too.
    let err = OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Pairing, ring.clone()))
        .config(Sid::<Pairing>::initial(&sims))
        .topology(Topology::star(8).unwrap())
        .build()
        .err()
        .expect("graphical SID on a foreign topology must not build");
    assert!(matches!(
        err,
        EngineError::ProgramTopologyMismatch {
            law: InteractionLaw::Topological,
            ..
        }
    ));
    // Same family, size and degree but other edges: rejected by the
    // structural comparison, whether the classes differ (another seed)
    // or agree (the same edge lists as custom graphs).
    let rr = |seed| Topology::random_regular(8, 3, seed).unwrap();
    let custom = |t: &Topology| Topology::from_edges(8, t.edges()).unwrap();
    assert_ne!(
        rr(1).edges().collect::<Vec<_>>(),
        rr(2).edges().collect::<Vec<_>>()
    );
    for (program, dealt) in [(rr(1), rr(2)), (custom(&rr(1)), custom(&rr(2)))] {
        let err = OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Pairing, program))
            .config(Sid::<Pairing>::initial(&sims))
            .topology(dealt)
            .build()
            .err()
            .expect("graphical SID on a same-degree foreign graph must not build");
        assert!(matches!(
            err,
            EngineError::ProgramTopologyMismatch {
                law: InteractionLaw::Topological,
                ..
            }
        ));
    }
    // A separately generated equal graph shares no storage and still
    // builds: the pointer check only short-cuts the comparison.
    for (program, dealt) in [(rr(1), rr(1)), (custom(&rr(1)), custom(&rr(1)))] {
        assert!(
            OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Pairing, program))
                .config(Sid::<Pairing>::initial(&sims))
                .topology(dealt)
                .build()
                .is_ok()
        );
    }
    // A population that does not span the program's graph is a size
    // mismatch even before the scheduler is consulted.
    let small: Vec<_> = Pairing::initial(3, 3).as_slice().to_vec();
    let err = OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Pairing, ring.clone()))
        .config(Sid::<Pairing>::initial(&small))
        .build()
        .err()
        .expect("six agents cannot span an eight-vertex graph");
    assert!(matches!(
        err,
        EngineError::TopologySizeMismatch {
            topology: 8,
            population: 6
        }
    ));
    // The matching topology builds; a *complete* program topology is
    // satisfied by the plain uniform scheduler as well.
    assert!(
        OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Pairing, ring.clone()))
            .config(Sid::<Pairing>::initial(&sims))
            .topology(ring)
            .build()
            .is_ok()
    );
    assert!(OneWayRunner::builder(
        OneWayModel::Io,
        Sid::graphical(Pairing, Topology::complete(8).unwrap())
    )
    .config(Sid::<Pairing>::initial(&sims))
    .build()
    .is_ok());
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

#[test]
fn epidemic_scenarios_converge_on_every_family_through_the_facade() {
    use ppfts::protocols::scenario;
    for t in [
        Topology::ring(20).unwrap(),
        Topology::star(20).unwrap(),
        Topology::grid2d(4, 5).unwrap(),
        Topology::random_regular(20, 4, 1).unwrap(),
    ] {
        let label = t.to_string();
        let mut runner = scenario::epidemic_on(t, 3).unwrap();
        let out = runner
            .run(
                Batched(128),
                Stop::until(5_000_000, scenario::all_infected::<Configuration<bool>>),
            )
            .unwrap();
        assert!(out.is_satisfied(), "stalled on {label}");
        assert!(runner.config().count_state(&true) == 20);
    }
}
