//! Property-based tests (proptest) over the workspace's core invariants.

use proptest::prelude::*;

use ppfts::core::{project, Sid, Skno};
use ppfts::engine::convergence::stably;
use ppfts::engine::{
    outcome, Batched, BoundedStrategy, EngineError, ExecBackend, FullTrace, InteractionLaw,
    OneWayFault, OneWayModel, OneWayRunner, RateStrategy, RoundRobinScheduler, Scheduler,
    StatsOnly, Stop, TopologyScheduler, TwoWayFault, TwoWayModel, TwoWayRunner,
};
use ppfts::population::{
    Configuration, CountConfiguration, Multiset, Semantics, Topology, TopologyError, TwoWayProtocol,
};
use ppfts::protocols::{Epidemic, FlockOfBirds, MaxGossip, Pairing, PairingState, Remainder};
use ppfts::verify::{audit_scheduler_coverage, audit_simulation_topology, audit_trace_topology};

fn pairing_state_strategy() -> impl Strategy<Value = PairingState> {
    prop_oneof![
        Just(PairingState::Paired),
        Just(PairingState::Consumer),
        Just(PairingState::Producer),
        Just(PairingState::Spent),
    ]
}

proptest! {
    /// Multisets are permutation-invariant views of configurations.
    #[test]
    fn multiset_ignores_agent_order(mut states in prop::collection::vec(0u8..5, 2..20)) {
        let a: Multiset<u8> = states.iter().cloned().collect();
        states.reverse();
        let b: Multiset<u8> = states.iter().cloned().collect();
        prop_assert_eq!(a, b);
    }

    /// Population size is invariant under any interaction in any model.
    #[test]
    fn interactions_preserve_population(
        states in prop::collection::vec(pairing_state_strategy(), 2..12),
        seed in 0u64..1000,
        steps in 1u64..300,
    ) {
        let n = states.len();
        let mut runner = TwoWayRunner::builder(TwoWayModel::T3, Pairing)
            .config(Configuration::new(states))
            .adversary(BoundedStrategy::new(0.3, 10))
            .seed(seed)
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(steps)).unwrap();
        prop_assert_eq!(runner.config().len(), n);
    }

    /// Pairing safety is a universal invariant of the native protocol in
    /// the *fault-free* two-way model: no schedule can mint extra `cs`.
    #[test]
    fn pairing_safety_under_any_tw_schedule(
        consumers in 0usize..6,
        producers in 0usize..6,
        seed in 0u64..500,
    ) {
        prop_assume!(consumers + producers >= 2);
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Pairing)
            .config(Pairing::initial(consumers, producers))
            .seed(seed)
            .build()
            .unwrap();
        for _ in 0..400 {
            runner.step().unwrap();
            prop_assert!(Pairing::paired_count(runner.config()) <= producers);
        }
    }

    /// The flock protocol conserves the total count under every meeting.
    #[test]
    fn flock_conserves_total_count(
        k in 1u32..8,
        u in 0u32..8,
        v in 0u32..8,
        du in any::<bool>(),
        dv in any::<bool>(),
    ) {
        let flock = FlockOfBirds::new(k);
        let a = ppfts::protocols::FlockState { count: u.min(k), detected: du };
        let b = ppfts::protocols::FlockState { count: v.min(k), detected: dv };
        let (a2, b2) = flock.delta(&a, &b);
        prop_assert_eq!(a2.count + b2.count, a.count + b.count);
        prop_assert!(a2.count <= k);
    }

    /// Epidemic computes OR on every input vector (native, sampled
    /// schedules).
    #[test]
    fn epidemic_matches_oracle(
        inputs in prop::collection::vec(any::<bool>(), 2..10),
        seed in 0u64..200,
    ) {
        let expected = Epidemic.expected(&inputs);
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
            .config(Epidemic.initial_configuration(&inputs))
            .seed(seed)
            .build()
            .unwrap();
        let out = runner.run(Batched(1), Stop::until(200_000, |c| {
            ppfts::population::unanimous_output(c, |q| *q) == Some(expected)
        })).unwrap();
        prop_assert!(out.is_satisfied());
    }

    /// Remainder's merge dynamics conserve the sum modulo m.
    #[test]
    fn remainder_conserves_sum_mod_m(
        m in 2u32..9,
        inputs in prop::collection::vec(0u32..40, 2..10),
        seed in 0u64..200,
        steps in 1u64..500,
    ) {
        let p = Remainder::new(m, 0);
        let total: u64 = inputs.iter().map(|&v| v as u64).sum();
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, p)
            .config(p.initial_configuration(&inputs))
            .seed(seed)
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(steps)).unwrap();
        let sum_now: u64 = runner
            .config()
            .as_slice()
            .iter()
            .map(|q| q.value.unwrap_or(0) as u64)
            .sum();
        prop_assert_eq!(sum_now % m as u64, total % m as u64);
    }

    /// One-way outcomes: omissive or not, the *starter* state in IO is
    /// never modified (the starter is unaware by definition).
    #[test]
    fn io_starter_is_never_touched(s in any::<u64>(), r in any::<u64>()) {
        struct Gossip;
        impl ppfts::engine::OneWayProgram for Gossip {
            type State = u64;
            fn on_proximity(&self, q: &u64) -> u64 { q + 1 } // deliberately non-identity
            fn on_receive(&self, s: &u64, r: &u64) -> u64 { (*s).max(*r) }
        }
        let (s2, _r2) = outcome::one_way(OneWayModel::Io, &Gossip, &s, &r, OneWayFault::None).unwrap();
        prop_assert_eq!(s2, s);
    }

    /// T1 omissions never *invent* information: each side's new state is
    /// either its old state or the fault-free update.
    #[test]
    fn t1_omissions_only_suppress(
        s in pairing_state_strategy(),
        r in pairing_state_strategy(),
    ) {
        let (fs, fr) = Pairing.delta(&s, &r);
        for fault in [TwoWayFault::Starter, TwoWayFault::Reactor] {
            let (s2, r2) = outcome::two_way(TwoWayModel::T1, &Pairing, &s, &r, fault).unwrap();
            prop_assert!(s2 == s || s2 == fs);
            prop_assert!(r2 == r || r2 == fr);
        }
    }

    /// SKnO within its budget preserves the simulated-population multiset
    /// semantics: the number of Paired agents never exceeds producers.
    #[test]
    fn skno_safety_sampled(
        consumers in 1usize..4,
        producers in 1usize..4,
        seed in 0u64..60,
    ) {
        let o = 1;
        let sims: Vec<PairingState> = Pairing::initial(consumers, producers)
            .as_slice()
            .to_vec();
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
            .config(Skno::<Pairing>::initial(&sims))
            .adversary(BoundedStrategy::new(0.05, o as u64))
            .seed(seed)
            .build()
            .unwrap();
        for _ in 0..2_000 {
            runner.step().unwrap();
            let paired = project(runner.config()).count_state(&PairingState::Paired);
            prop_assert!(paired <= producers);
        }
    }

    /// SID simulated max-gossip never exceeds the true maximum.
    #[test]
    fn sid_gossip_never_overshoots(
        inputs in prop::collection::vec(0u64..1000, 2..8),
        seed in 0u64..60,
    ) {
        let true_max = MaxGossip.expected(&inputs);
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(MaxGossip))
            .config(Sid::<MaxGossip>::initial(&inputs))
            .seed(seed)
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(3_000)).unwrap();
        let seen_max = project(runner.config())
            .as_slice()
            .iter()
            .copied()
            .max()
            .unwrap();
        prop_assert!(seen_max <= true_max);
    }
}

/// The paper's premise, demonstrated: running the Pairing protocol
/// *natively* on the omissive two-way model T3 violates safety — a
/// reactor-side omission turns a consumer into `cs` without spending the
/// producer. This is why simulators (and their impossibility results)
/// matter at all. Deterministic companion to the proptest suite above.
#[test]
fn native_pairing_on_t3_is_unsafe() {
    use ppfts::engine::{Planned, SidePolicy};
    use ppfts::population::Interaction;

    // One consumer meets one producer; the reactor side omits.
    let mut runner = TwoWayRunner::builder(TwoWayModel::T3, Pairing)
        .config(Pairing::initial(1, 1))
        .side_policy(SidePolicy::Always(TwoWayFault::Reactor))
        .build()
        .unwrap();
    runner
        .apply_planned([Planned::new(
            Interaction::new(0, 1).unwrap(),
            TwoWayFault::Reactor,
        )])
        .unwrap();
    // The consumer is irrevocably paired…
    assert_eq!(Pairing::paired_count(runner.config()), 1);
    // …but the producer was never spent: it can pair a *second* consumer.
    assert_eq!(
        runner.config().as_slice()[1],
        PairingState::Producer,
        "producer survived the omissive pairing"
    );
}

proptest! {
    /// Theorem 4.5 quantifies over *every* two-way protocol. Generate a
    /// random transition table, run SID on it in IO, and verify the
    /// simulation machinery end-to-end: events extract, the matching is
    /// exact, and the derived execution replays.
    #[test]
    fn sid_simulates_random_protocols(
        rules in prop::collection::vec((0u8..4, 0u8..4, 0u8..4, 0u8..4), 0..12),
        initials in prop::collection::vec(0u8..4, 2..6),
        seed in 0u64..50,
    ) {
        use ppfts::core::{build_matching, extract_events, verify_derived_execution, Sid};
        use ppfts::population::TableProtocol;

        let mut builder = TableProtocol::builder(vec![0u8, 1, 2, 3]);
        for (a, b, x, y) in rules {
            builder = builder.rule((a, b), (x, y));
        }
        let protocol = builder.build();

        let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(protocol.clone()))
            .config(Sid::<TableProtocol<u8>>::initial(&initials))
            .trace_sink(FullTrace::new())
            .seed(seed)
            .build()
            .unwrap();
        let initial = project(runner.config());
        runner.run(Batched(1), Stop::steps(4_000)).unwrap();
        let events = extract_events(&runner.take_trace().unwrap());
        let matching = build_matching(&protocol, &events).unwrap();
        let derived = verify_derived_execution(&protocol, &initial, &events, &matching).unwrap();
        prop_assert_eq!(derived.len(), matching.len());
        // In-flight handshake halves are bounded by the population size.
        prop_assert!(matching.unmatched.len() <= initials.len());
    }

    /// Same property for SKnO under IT (Corollary 1): anonymous matching
    /// and multiset replay must hold for arbitrary protocols too.
    #[test]
    fn skno_simulates_random_protocols(
        rules in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..3), 0..8),
        initials in prop::collection::vec(0u8..3, 2..5),
        seed in 0u64..30,
    ) {
        use ppfts::core::{build_matching, extract_events, verify_derived_execution, Skno};
        use ppfts::population::TableProtocol;

        let mut builder = TableProtocol::builder(vec![0u8, 1, 2]);
        for (a, b, x, y) in rules {
            builder = builder.rule((a, b), (x, y));
        }
        let protocol = builder.build();

        let mut runner = OneWayRunner::builder(OneWayModel::It, Skno::new(protocol.clone(), 0))
            .config(Skno::<TableProtocol<u8>>::initial(&initials))
            .trace_sink(FullTrace::new())
            .seed(seed)
            .build()
            .unwrap();
        let initial = project(runner.config());
        runner.run(Batched(1), Stop::steps(4_000)).unwrap();
        let events = extract_events(&runner.take_trace().unwrap());
        let matching = build_matching(&protocol, &events).unwrap();
        let derived = verify_derived_execution(&protocol, &initial, &events, &matching).unwrap();
        prop_assert_eq!(derived.len(), matching.len());
    }
}

// ---------------------------------------------------------------------
// Topology, scheduler and builder properties: each checks one path on
// its own, where `tests/differential.rs` relates two.
// ---------------------------------------------------------------------

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

/// Steps-to-convergence of one seeded run on any backend, or `None` if
/// the budget ran out.
fn steps_to<P, C>(
    protocol: P,
    population: C,
    seed: u64,
    budget: u64,
    batch: u64,
    pred: impl Fn(&Multiset<P::State>) -> bool,
) -> Option<u64>
where
    P: TwoWayProtocol,
    C: ExecBackend<State = P::State>,
{
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, protocol)
        .population(population)
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    let out = runner
        .run(
            Batched(batch),
            Stop::until(budget, stably(|c: &C| pred(&c.counts()), 2)),
        )
        .unwrap();
    out.is_satisfied().then(|| out.steps())
}

/// The acceptance fixture in miniature (the full n = 10⁶ run lives in
/// `benches/e11_giant.rs`): epidemic on counts through
/// `Batched` + `Stop::until` + `stably`, with the dense backend agreeing at a
/// size it can still comfortably sweep in a debug test.
#[test]
fn epidemic_converges_on_both_backends_at_ten_thousand() {
    let n = 10_000usize;
    let pred = |m: &Multiset<bool>| m.count(&true) == m.len();
    let count_steps = steps_to(
        Epidemic,
        CountConfiguration::from_groups([(true, 1), (false, n - 1)]),
        7,
        200_000_000,
        4096,
        pred,
    )
    .expect("count backend converges");
    let dense_steps = steps_to(
        Epidemic,
        Configuration::from_groups([(true, 1), (false, n - 1)]),
        7,
        200_000_000,
        4096,
        pred,
    )
    .expect("dense backend converges");
    // Θ(n log n) ≈ 9.2 n; both backends must land in the same decade.
    let expected = n as f64 * (n as f64).ln();
    for (label, steps) in [("count", count_steps), ("dense", dense_steps)] {
        let ratio = steps as f64 / expected;
        assert!(
            (0.2..=5.0).contains(&ratio),
            "{label} backend took {steps} steps, expected ≈ {expected:.0}"
        );
    }
}
