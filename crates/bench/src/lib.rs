//! Shared harness utilities for the experiment suite.
//!
//! The binaries (`figure4`, `experiments`) and the Criterion benches all
//! build their workloads through this crate so that DESIGN.md's
//! per-experiment index points at one implementation of each measurement.
//!
//! All `measure_*` convergence harnesses run on the engine's batched
//! [`StatsOnly`] path: interactions execute in batches of [`BATCH`] with
//! the convergence predicate sampled only at batch boundaries and wrapped
//! in [`stably`], so a transient
//! mid-handshake projection can no longer end a run (the per-step
//! sampling hazard the ROADMAP recorded). Reported step counts are batch
//! aligned: they overshoot the instant the predicate first held by at
//! most `BATCH × STABLE_WINDOW` interactions, which is noise at the step
//! scales measured here. [`measure_skno_scalar`] keeps the pre-batching
//! scalar path alive as the reference the committed `BENCH_RESULTS.json`
//! baseline is measured against.

#![warn(missing_docs)]

pub mod regression;

use ppfts_core::{project, NamedSid, NamedState, Sid, SimulatorState, Skno, SknoState};
use ppfts_engine::convergence::stably;
use ppfts_engine::{
    run_seeds, Batched, BoundedStrategy, EngineError, Epochs, OneWayModel, OneWayRunner,
    RunOutcome, StatsOnly, Stop, TwoWayModel, TwoWayRunner, UniformScheduler,
};
use ppfts_population::{Configuration, CountConfiguration, Topology};
use ppfts_protocols::{scenario, Epidemic, Pairing, PairingState};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Batch size of the harness's batched runs: big enough to amortize the
/// per-boundary projection predicate to noise, small enough that the
/// batch-aligned step counts stay fine-grained relative to convergence
/// times.
pub const BATCH: u64 = 1024;

/// Consecutive batch boundaries a convergence predicate must hold before
/// a run counts as converged (the [`stably`] window).
pub const STABLE_WINDOW: u64 = 2;

/// Batch size of the giant-n (E11) harness: large enough to amortize the
/// per-boundary predicate to noise even when the dense backend pays O(n)
/// for it, at a step-resolution cost that is negligible against the
/// Θ(n log n) convergence times measured there.
pub const GIANT_BATCH: u64 = 8192;

/// Number of agents whose *simulated* state is `q` — the projection
/// `π_P(C)` counted without materializing it. Behaviorally identical to
/// `project(c).count_state(q)`, but allocation-free: the old phrasing
/// built a full n-state configuration at every batch boundary, which the
/// E17 hot-path analysis found to be a measurable slice of the simulator
/// harness wall-clock (hundreds of milliseconds per budget-capped cell).
fn simulated_count<S: SimulatorState + ppfts_population::State>(
    config: &Configuration<S>,
    q: &S::Simulated,
) -> usize {
    config
        .as_slice()
        .iter()
        .filter(|s| s.simulated() == q)
        .count()
}

/// Whether *every* agent's simulated state is `q` — equivalent to
/// `simulated_count(c, q) == n` but with the early exit the full-count
/// phrasing cannot have: far from convergence the scan stops at the first
/// counterexample, so the boundary check costs O(1) for most of a run.
fn all_simulated<S: SimulatorState + ppfts_population::State>(
    config: &Configuration<S>,
    q: &S::Simulated,
) -> bool {
    config.as_slice().iter().all(|s| s.simulated() == q)
}

/// Convergence measurement of one simulator configuration, aggregated
/// over seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct Convergence {
    /// Number of agents.
    pub n: usize,
    /// Seeds that converged within the budget.
    pub converged: usize,
    /// Seeds run in total.
    pub seeds: usize,
    /// Mean interactions to stabilize (over converged seeds).
    pub mean_steps: f64,
    /// Mean engine interactions per *simulated* two-way interaction.
    pub steps_per_simulated: f64,
}

impl Convergence {
    /// Renders one table row: `n, converged/seeds, mean, per-sim`.
    pub fn row(&self) -> String {
        format!(
            "{:>5} | {:>5}/{:<5} | {:>12.1} | {:>10.2}",
            self.n, self.converged, self.seeds, self.mean_steps, self.steps_per_simulated
        )
    }
}

/// The Pairing workload used throughout: `n/2` consumers, `n/2` producers
/// (n even), expecting `n/2` pairings.
pub fn pairing_inputs(n: usize) -> Vec<PairingState> {
    assert!(n >= 2 && n.is_multiple_of(2), "workload uses even n");
    Pairing::initial(n / 2, n / 2).as_slice().to_vec()
}

/// One seeded SID run on the Pairing workload: the single-seed body
/// [`measure_sid`] fans out, exposed so job-granular drivers (the
/// `ppfts-sweep` orchestrator) dispatch the *same* workload one seed at
/// a time. Returns the run outcome and the simulated-step denominator.
pub fn sid_pairing_run(n: usize, seed: u64, budget: u64) -> Result<(RunOutcome, u64), EngineError> {
    let sims = pairing_inputs(n);
    let expected = n / 2;
    let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
        .config(Sid::<Pairing>::initial(&sims))
        .scheduler(UniformScheduler::new())
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    runner
        .run(
            Batched(BATCH),
            Stop::until(
                budget,
                stably(
                    |c| simulated_count(c, &PairingState::Paired) == expected,
                    STABLE_WINDOW,
                ),
            ),
        )
        .map(|out| (out, expected as u64))
}

/// Measures SID's convergence on the Pairing workload.
pub fn measure_sid(n: usize, seeds: u64, budget: u64) -> Convergence {
    let results = run_seeds(0..seeds, workers(), |seed| sid_pairing_run(n, seed, budget));
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// One seeded SKnO run on the Pairing workload under model I3 with
/// omission bound `o` (single-seed body of [`measure_skno`]).
pub fn skno_pairing_run(
    n: usize,
    o: u32,
    seed: u64,
    budget: u64,
) -> Result<(RunOutcome, u64), EngineError> {
    let sims = pairing_inputs(n);
    let expected = n / 2;
    let mut runner = OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
        .config(Skno::<Pairing>::initial(&sims))
        .adversary(BoundedStrategy::new(0.02, o as u64))
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    runner
        .run(
            Batched(BATCH),
            Stop::until(
                budget,
                stably(
                    |c| simulated_count(c, &PairingState::Paired) == expected,
                    STABLE_WINDOW,
                ),
            ),
        )
        .map(|out| (out, expected as u64))
}

/// Measures SKnO's convergence on the Pairing workload under model I3
/// with omission bound `o` (the adversary spends the full budget).
pub fn measure_skno(n: usize, o: u32, seeds: u64, budget: u64) -> Convergence {
    let results = run_seeds(0..seeds, workers(), |seed| {
        skno_pairing_run(n, o, seed, budget)
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// The pre-batching SKnO measurement: scalar stepping, the convergence
/// predicate projected after *every* interaction, no stability window.
///
/// Kept as the reference implementation the batched path is benchmarked
/// against (`benches/e5_scale.rs`, `BENCH_RESULTS.json`); experiments
/// should use [`measure_skno`].
pub fn measure_skno_scalar(n: usize, o: u32, seeds: u64, budget: u64) -> Convergence {
    let results = run_seeds(0..seeds, workers(), |seed| {
        let sims = pairing_inputs(n);
        let expected = n / 2;
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
            .config(Skno::<Pairing>::initial(&sims))
            .adversary(BoundedStrategy::new(0.02, o as u64))
            .seed(seed)
            .build()
            .expect("valid population");
        runner
            .run(
                Batched(1),
                Stop::until(budget, |c| {
                    project(c).count_state(&PairingState::Paired) == expected
                }),
            )
            .map(|out| (out, expected as u64))
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// One seeded run of the naming-composed simulator on the Pairing
/// workload (single-seed body of [`measure_named`]).
pub fn named_pairing_run(
    n: usize,
    seed: u64,
    budget: u64,
) -> Result<(RunOutcome, u64), EngineError> {
    let sims = pairing_inputs(n);
    let expected = n / 2;
    let mut runner = OneWayRunner::builder(OneWayModel::Io, NamedSid::new(Pairing, n))
        .config(NamedSid::<Pairing>::initial(&sims))
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    runner
        .run(
            Batched(BATCH),
            Stop::until(
                budget,
                stably(
                    |c| simulated_count(c, &PairingState::Paired) == expected,
                    STABLE_WINDOW,
                ),
            ),
        )
        .map(|out| (out, expected as u64))
}

/// Measures the naming-composed simulator's convergence (naming plus the
/// simulated Pairing) with knowledge of `n`.
pub fn measure_named(n: usize, seeds: u64, budget: u64) -> Convergence {
    let results = run_seeds(0..seeds, workers(), |seed| {
        named_pairing_run(n, seed, budget)
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// Measures only the naming phase of `Nn`: interactions until every agent
/// has started simulating.
pub fn measure_naming_phase(n: usize, seeds: u64, budget: u64) -> Convergence {
    let results = run_seeds(0..seeds, workers(), |seed| {
        let sims = pairing_inputs(n);
        let mut runner = OneWayRunner::builder(OneWayModel::Io, NamedSid::new(Pairing, n))
            .config(NamedSid::<Pairing>::initial(&sims))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .expect("valid population");
        // "Everyone simulating" is monotone — once reached it cannot
        // un-hold — so a single boundary confirmation suffices.
        runner
            .run(
                Batched(BATCH),
                Stop::until(
                    budget,
                    stably(
                        |c: &ppfts_population::Configuration<NamedState<PairingState>>| {
                            c.as_slice()
                                .iter()
                                .all(ppfts_core::NamedState::is_simulating)
                        },
                        1,
                    ),
                ),
            )
            .map(|out| (out, 1u64)) // one "simulated step" = completing the naming
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// E11: epidemic convergence at giant `n` on the **count** backend —
/// one infected agent among `n`, run to stable full infection via
/// [`Batched`] + [`Stop::until`] + [`stably`]. Memory is O(1) in `n`;
/// this is the harness that sweeps n = 10²…10⁶ on the same API as every
/// other experiment.
///
/// `steps_per_simulated` normalizes by `n` (interactions per agent), the
/// natural unit for the Θ(n log n) epidemic.
pub fn measure_epidemic_giant(n: usize, seeds: u64, budget: u64) -> Convergence {
    measure_epidemic_giant_on(n, seeds, budget, |n| {
        CountConfiguration::from_groups([(true, 1), (false, n - 1)])
    })
}

/// The dense-backend twin of [`measure_epidemic_giant`]: same workload,
/// same predicate, on the per-agent `Configuration`. O(n) memory and an
/// O(n) boundary predicate — the floor the count backend is measured
/// against in `BENCH_RESULTS.json` (`benches/e11_giant.rs`).
pub fn measure_epidemic_giant_dense(n: usize, seeds: u64, budget: u64) -> Convergence {
    measure_epidemic_giant_on(n, seeds, budget, |n| {
        Configuration::from_groups([(true, 1), (false, n - 1)])
    })
}

/// The E11 workload, generic in the population backend so the two public
/// entry points cannot drift apart.
fn measure_epidemic_giant_on<C>(
    n: usize,
    seeds: u64,
    budget: u64,
    make_population: impl Fn(usize) -> C + Sync,
) -> Convergence
where
    C: ppfts_engine::ExecBackend<State = bool>,
{
    assert!(n >= 2, "population needs at least 2 agents");
    let results = run_seeds(0..seeds, workers(), |seed| {
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
            .population(make_population(n))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .expect("valid population");
        runner
            .run(
                Batched(GIANT_BATCH),
                Stop::until(
                    budget,
                    stably(|c: &C| c.count_state(&true) == n, STABLE_WINDOW),
                ),
            )
            .map(|out| (out, n as u64))
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// E15: epidemic convergence at giant `n` on the **batch-epoch** path —
/// the same workload and predicate as [`measure_epidemic_giant`], driven
/// through [`Epochs`] instead of the interleaved loop. A batch of
/// ≈ 1.6√n interactions applies its collision-free ones as one bulk
/// multivariate draw and its few collisions one by one, so the work per
/// batch is O(distinct state pairs), independent of its length —
/// sub-constant time per interaction. The convergence predicate is
/// checked at batch boundaries under the same [`stably`] window as the
/// interleaved harnesses.
///
/// `steps_per_simulated` normalizes by `n` (interactions per agent), the
/// same unit E11 reports, so the two harnesses chart onto one curve.
pub fn measure_epidemic_epoch(n: usize, seeds: u64, budget: u64) -> Convergence {
    assert!(n >= 2, "population needs at least 2 agents");
    let results = run_seeds(0..seeds, workers(), |seed| {
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, n - 1)]))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .expect("valid population");
        runner
            .run(
                Epochs,
                Stop::until(
                    budget,
                    stably(
                        |c: &CountConfiguration<bool>| c.count_state(&true) == n,
                        STABLE_WINDOW,
                    ),
                ),
            )
            .map(|out| (out, n as u64))
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// Executes exactly `steps` interactions of the fault-free epidemic at
/// size `n` on the count backend through the **interleaved** batched
/// loop, returning the infected count so the work cannot be elided.
/// The fixed interaction budget makes wall-clock directly divisible:
/// `elapsed / steps` is the per-interaction cost the
/// `e11_giant/per_interaction_*` bench entries record.
pub fn epidemic_fixed_steps_interleaved(n: usize, steps: u64, seed: u64) -> usize {
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
        .population(CountConfiguration::from_groups([(true, 1), (false, n - 1)]))
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    runner
        .run(Batched(GIANT_BATCH), Stop::steps(steps))
        .expect("fault-free epidemic cannot fail");
    runner.config().count_state(&true)
}

/// The batch-epoch twin of [`epidemic_fixed_steps_interleaved`]: exactly
/// `steps` interactions through [`Epochs`]. The two functions run the
/// same protocol from the same initial counts for the same interaction
/// budget, so their wall-clock ratio is the epoch path's per-interaction
/// speedup.
pub fn epidemic_fixed_steps_epoch(n: usize, steps: u64, seed: u64) -> usize {
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
        .population(CountConfiguration::from_groups([(true, 1), (false, n - 1)]))
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    runner
        .run(Epochs, Stop::steps(steps))
        .expect("fault-free count-backed runs are epoch compatible");
    runner.config().count_state(&true)
}

/// E12: epidemic broadcast on an explicit interaction topology — the
/// graph-aware scenario of `ppfts_protocols::scenario`, run per seed to
/// stable full infection through [`Batched`] + [`Stop::until`] +
/// [`stably`].
///
/// The graph is generated once and cloned per seed (the generators are
/// deterministic in their own seed, so every run seed sees the same
/// graph anyway — a clone is the cheap equivalent of regenerating); the
/// interesting comparison is across families at fixed `n` — Θ(n log n)
/// on the complete graph and good expanders versus Θ(n²) on the ring.
/// `steps_per_simulated` normalizes by `n`.
pub fn measure_epidemic_topology(
    make_topology: impl Fn() -> Topology + Sync,
    seeds: u64,
    budget: u64,
) -> Convergence {
    let prototype = make_topology();
    let n = prototype.len();
    let results = run_seeds(0..seeds, workers(), |seed| {
        epidemic_topology_run(&prototype, seed, budget)
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// One seeded graph-epidemic run (single-seed body of
/// [`measure_epidemic_topology`]).
pub fn epidemic_topology_run(
    topology: &Topology,
    seed: u64,
    budget: u64,
) -> Result<(RunOutcome, u64), EngineError> {
    let n = topology.len();
    let mut runner =
        scenario::epidemic_on(topology.clone(), seed).expect("valid topology scenario");
    runner
        .run(
            Batched(BATCH),
            Stop::until(
                budget,
                stably(scenario::all_infected::<Configuration<bool>>, STABLE_WINDOW),
            ),
        )
        .map(|out| (out, n as u64))
}

/// Degree of the E13 random-regular family.
pub const E13_RR_DEGREE: usize = 4;

/// Generation seed of the E13 random graphs.
pub const E13_TOPOLOGY_SEED: u64 = 12;

/// The E13 graph families at size `n`, in fixed conductance order:
/// ring, √n×√n grid, random 4-regular, complete. One definition shared
/// by the `e13_graphical_ftt` bench and the `experiments` binary so the
/// committed baseline and the printed tables cannot drift onto
/// different graphs.
///
/// # Panics
///
/// Panics unless `n` is a perfect square (the grid family needs it).
pub fn e13_families(n: usize) -> Vec<(&'static str, Topology)> {
    let side = (n as f64).sqrt() as usize;
    assert_eq!(side * side, n, "E13 sizes are perfect squares, got {n}");
    vec![
        ("ring", Topology::ring(n).expect("n ≥ 4")),
        ("grid", Topology::grid2d(side, side).expect("side ≥ 2")),
        (
            "rr4",
            Topology::random_regular(n, E13_RR_DEGREE, E13_TOPOLOGY_SEED)
                .expect("rr4 is feasible at every E13 size"),
        ),
        ("complete", Topology::complete(n).expect("n ≥ 2")),
    ]
}

/// E13: epidemic broadcast *simulated through graphical `SID`* on an
/// explicit interaction topology — the fault-free half of the graphical
/// fault-tolerance experiment. The simulated protocol is the two-way
/// [`Epidemic`]; `SID`'s three-observation handshake pairs only
/// graph-adjacent agents, so convergence pays the graph's broadcast time
/// times the handshake constant. Seeded at vertex 0; run to stable full
/// *simulated* infection; `steps_per_simulated` normalizes by `n`.
pub fn measure_sid_epidemic_graphical(topology: &Topology, seeds: u64, budget: u64) -> Convergence {
    let n = topology.len();
    let results = run_seeds(0..seeds, workers(), |seed| {
        sid_epidemic_graphical_run(topology, seed, budget)
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// One seeded graphical-SID simulated-epidemic run (single-seed body of
/// [`measure_sid_epidemic_graphical`]).
pub fn sid_epidemic_graphical_run(
    topology: &Topology,
    seed: u64,
    budget: u64,
) -> Result<(RunOutcome, u64), EngineError> {
    let n = topology.len();
    let sims: Vec<bool> = (0..n).map(|v| v == 0).collect();
    let mut runner =
        OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Epidemic, topology.clone()))
            .config(Sid::<Epidemic>::initial(&sims))
            .topology(topology.clone())
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .expect("graphical SID assembles on its own topology");
    // Simulated infection is monotone, so one boundary confirmation
    // suffices.
    runner
        .run(
            Batched(BATCH),
            Stop::until(budget, |c| all_simulated(c, &true)),
        )
        .map(|out| (out, n as u64))
}

/// E13: the same simulated-epidemic workload through **graphical
/// `SKnO`** under model I3, with omission bound `o` and an adversary
/// spending that budget at `rate`. Graphical `SKnO` keys announcement
/// runs per origin vertex (anonymous merging is unsound once adjacency
/// matters), so completing a run of length `o + 1` requires reassembling
/// tokens of one specific announcer at one of its graph neighbors — the
/// reassembly cost that makes omission tolerance interact with
/// conductance, and exactly what this harness charts. Expect `o = 0`
/// (run length 1) to track the graph's broadcast time and `o ≥ 1` to
/// degrade sharply as conductance drops; budget-capped cells report
/// partial convergence honestly via [`Convergence::converged`].
pub fn measure_skno_epidemic_graphical(
    topology: &Topology,
    o: u32,
    rate: f64,
    seeds: u64,
    budget: u64,
) -> Convergence {
    let n = topology.len();
    let results = run_seeds(0..seeds, workers(), |seed| {
        skno_epidemic_graphical_run(topology, o, rate, seed, budget)
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// One seeded graphical-SKnO simulated-epidemic run (single-seed body of
/// [`measure_skno_epidemic_graphical`]).
pub fn skno_epidemic_graphical_run(
    topology: &Topology,
    o: u32,
    rate: f64,
    seed: u64,
    budget: u64,
) -> Result<(RunOutcome, u64), EngineError> {
    skno_epidemic_graphical_run_with(topology, o, rate, seed, budget, true)
}

/// [`skno_epidemic_graphical_run`] with the simulator path explicit:
/// `indexed = false` runs the same workload through the scan-path
/// reference (`Skno::scan_reference`). The outcome is bit-identical
/// either way — `tests/simulator_index_equivalence.rs` certifies it, and
/// the E17 harness re-asserts it live — so the A/B difference is pure
/// wall-clock.
pub fn skno_epidemic_graphical_run_with(
    topology: &Topology,
    o: u32,
    rate: f64,
    seed: u64,
    budget: u64,
    indexed: bool,
) -> Result<(RunOutcome, u64), EngineError> {
    let n = topology.len();
    let sims: Vec<bool> = (0..n).map(|v| v == 0).collect();
    let skno = Skno::graphical(Epidemic, o, topology.clone());
    let skno = if indexed { skno } else { skno.scan_reference() };
    let mut runner = OneWayRunner::builder(OneWayModel::I3, skno)
        .config(Skno::<Epidemic>::initial(&sims))
        .topology(topology.clone())
        .adversary(BoundedStrategy::new(rate, o as u64))
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("graphical SKnO assembles on its own topology");
    runner
        .run(
            Batched(BATCH),
            Stop::until(budget, |c| all_simulated(c, &true)),
        )
        .map(|out| (out, n as u64))
}

/// E12 (scheduling-layer cost): drains `draws` arcs from `topology` —
/// the exact sampling path [`TopologyScheduler`](ppfts_engine::TopologyScheduler)
/// runs per step — and
/// folds the endpoints into a checksum, so the optimizer cannot elide
/// the draws. Sampling borrows the topology (no clone inside the
/// measured region), isolating the per-step price of graph-aware edge
/// sampling from protocol dynamics — the number the
/// `e12_topology/draws_*` bench entries record.
pub fn topology_draw_checksum(topology: &Topology, draws: u64, seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut acc = 0u64;
    for _ in 0..draws {
        let i = topology.sample_arc(&mut rng);
        acc = acc
            .wrapping_mul(31)
            .wrapping_add(i.starter().index() as u64)
            .wrapping_add((i.reactor().index() as u64) << 1);
    }
    acc
}

/// Peak per-agent token footprint of SKnO on the Pairing workload — the
/// measured side of Theorem 4.1's Θ(|Q_P|·(o+1)·log n) memory bound.
pub fn skno_peak_tokens(n: usize, o: u32, steps: u64, seed: u64) -> usize {
    let sims = pairing_inputs(n);
    let mut runner = OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
        .config(Skno::<Pairing>::initial(&sims))
        .adversary(BoundedStrategy::new(0.02, o as u64))
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    // Batched(1) samples the "predicate" after every step; it never
    // holds, it only observes.
    let mut peak = 0usize;
    let observe = |c: &Configuration<SknoState<PairingState>>| {
        let here = c.as_slice().iter().map(SknoState::token_footprint).max();
        peak = peak.max(here.unwrap_or(0));
        false
    };
    runner
        .run(Batched(1), Stop::until(steps, observe))
        .expect("bounded I3 omissions stay in the model's relation");
    peak
}

/// Worker threads for seed fan-out.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, |p| p.get().min(8))
}

/// Folds per-seed runs into a [`Convergence`] row.
///
/// # Panics
///
/// Panics on a run that ended in an engine error: a measured table must
/// not read a failed run as a budget miss.
fn aggregate(
    n: usize,
    values: impl Iterator<Item = Result<(RunOutcome, u64), EngineError>>,
) -> Convergence {
    let mut converged = 0usize;
    let mut seeds = 0usize;
    let mut total_steps = 0f64;
    let mut total_ratio = 0f64;
    for value in values {
        let (out, simulated) =
            value.unwrap_or_else(|e| panic!("engine error in a measured run: {e}"));
        seeds += 1;
        if out.is_satisfied() {
            converged += 1;
            total_steps += out.steps() as f64;
            total_ratio += out.steps() as f64 / simulated.max(1) as f64;
        }
    }
    let denom = converged.max(1) as f64;
    Convergence {
        n,
        converged,
        seeds,
        mean_steps: total_steps / denom,
        steps_per_simulated: total_ratio / denom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sid_measurement_converges_for_small_n() {
        let c = measure_sid(4, 3, 500_000);
        assert_eq!(c.converged, 3);
        assert!(c.mean_steps > 0.0);
        assert!(
            c.steps_per_simulated >= 3.0,
            "at least FTT per simulated step"
        );
    }

    #[test]
    fn skno_measurement_converges_for_small_n() {
        let c = measure_skno(4, 1, 3, 1_000_000);
        assert_eq!(c.converged, 3);
    }

    #[test]
    fn batched_and_scalar_skno_agree_on_convergence() {
        let batched = measure_skno(4, 1, 3, 1_000_000);
        let scalar = measure_skno_scalar(4, 1, 3, 1_000_000);
        assert_eq!(batched.converged, scalar.converged);
        // The scalar path stops at the first step its predicate holds —
        // possibly on a transient mid-handshake projection — while the
        // batched path demands STABLE_WINDOW boundary confirmations, so
        // it can only stop later. (No upper bound: on a seed where the
        // scalar stop *is* a transient, the gap legitimately exceeds the
        // batch-alignment slack.)
        assert!(batched.mean_steps >= scalar.mean_steps);
    }

    #[test]
    fn giant_harness_backends_agree_at_test_scale() {
        let count = measure_epidemic_giant(2_000, 2, 50_000_000);
        assert_eq!(count.converged, 2);
        let dense = measure_epidemic_giant_dense(2_000, 2, 50_000_000);
        assert_eq!(dense.converged, 2);
        // Θ(n log n): per-agent step counts land within the same decade.
        for c in [&count, &dense] {
            assert!(
                c.steps_per_simulated > 2.0 && c.steps_per_simulated < 60.0,
                "steps per agent = {}",
                c.steps_per_simulated
            );
        }
    }

    #[test]
    fn epoch_harness_agrees_with_interleaved_at_test_scale() {
        let epoch = measure_epidemic_epoch(2_000, 2, 50_000_000);
        assert_eq!(epoch.converged, 2);
        let interleaved = measure_epidemic_giant(2_000, 2, 50_000_000);
        // Same Θ(n log n) dynamics: per-agent step counts land within the
        // same decade on both execution paths.
        for c in [&epoch, &interleaved] {
            assert!(
                c.steps_per_simulated > 2.0 && c.steps_per_simulated < 60.0,
                "steps per agent = {}",
                c.steps_per_simulated
            );
        }
    }

    #[test]
    fn fixed_step_routines_spread_the_epidemic_on_both_paths() {
        let interleaved = epidemic_fixed_steps_interleaved(1_000, 20_000, 3);
        let epoch = epidemic_fixed_steps_epoch(1_000, 20_000, 3);
        // 20 interactions per agent more than saturates n = 1000.
        assert_eq!(interleaved, 1_000);
        assert_eq!(epoch, 1_000);
    }

    #[test]
    fn topology_harness_separates_ring_from_complete() {
        let ring = measure_epidemic_topology(|| Topology::ring(64).unwrap(), 2, 10_000_000);
        assert_eq!(ring.converged, 2);
        let complete = measure_epidemic_topology(|| Topology::complete(64).unwrap(), 2, 10_000_000);
        assert_eq!(complete.converged, 2);
        // Θ(n²) ring broadcast vs Θ(n log n) complete-graph epidemic.
        assert!(
            ring.mean_steps > complete.mean_steps,
            "ring {} vs complete {}",
            ring.mean_steps,
            complete.mean_steps
        );
    }

    #[test]
    fn draw_checksum_is_deterministic_and_seed_sensitive() {
        let t = Topology::random_regular(32, 4, 3).unwrap();
        let a = topology_draw_checksum(&t, 10_000, 1);
        assert_eq!(a, topology_draw_checksum(&t, 10_000, 1));
        assert_ne!(a, topology_draw_checksum(&t, 10_000, 2));
    }

    #[test]
    fn peak_tokens_scale_with_bound() {
        let low = skno_peak_tokens(4, 0, 3_000, 7);
        let high = skno_peak_tokens(4, 3, 3_000, 7);
        assert!(high > low, "longer runs mean more tokens in flight");
    }

    #[test]
    #[should_panic(expected = "even n")]
    fn odd_population_rejected() {
        let _ = pairing_inputs(5);
    }
}
