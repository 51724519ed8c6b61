//! The single-seed workload bodies every manifest family runs.
//!
//! Each `*_run` function assembles one seeded runner, drives it on the
//! engine's batched [`StatsOnly`] path to its convergence predicate and
//! returns the [`RunOutcome`] with the workload's simulated-step
//! denominator (`n/2` pairings for the Pairing workload, `n` agents for
//! epidemics). [`run_job`](crate::run_job) dispatches one per job, and
//! the bench crate's `measure_*` aggregators fan the same bodies over
//! seeds, so sweeps and benches cannot drift onto different dynamics.
//!
//! Predicates are sampled at batch boundaries and wrapped in [`stably`],
//! so a transient mid-handshake projection cannot end a run. Step counts
//! are therefore batch aligned: they overshoot the instant the predicate
//! first held by at most `BATCH × STABLE_WINDOW` interactions.

use ppfts_core::{NamedSid, NamedState, Sid, SimulatorState, Skno, SknoState};
use ppfts_engine::convergence::stably;
use ppfts_engine::{
    Batched, BoundedStrategy, EngineError, Epochs, ExecBackend, OneWayModel, OneWayRunner,
    RunOutcome, StatsOnly, Stop, TwoWayModel, TwoWayRunner, UniformScheduler,
};
use ppfts_population::{Configuration, CountConfiguration, Topology};
use ppfts_protocols::{scenario, Epidemic, Pairing, PairingState};

/// Batch size of the batched runs: big enough to amortize the
/// per-boundary projection predicate to noise, small enough that the
/// batch-aligned step counts stay fine-grained relative to convergence
/// times.
pub const BATCH: u64 = 1024;

/// Consecutive batch boundaries a convergence predicate must hold before
/// a run counts as converged (the [`stably`] window).
pub const STABLE_WINDOW: u64 = 2;

/// Batch size of the giant-n (E11) runs: large enough to amortize the
/// per-boundary predicate to noise even when the dense backend pays O(n)
/// for it, at a step-resolution cost that is negligible against the
/// Θ(n log n) convergence times measured there.
pub const GIANT_BATCH: u64 = 8192;

/// Degree of the E13 random-regular family.
pub const E13_RR_DEGREE: usize = 4;

/// Generation seed of the E13 random graphs.
pub const E13_TOPOLOGY_SEED: u64 = 12;

/// What every `*_run` body returns: the run outcome and the simulated-step
/// denominator, or the engine error that ended the run.
pub type SeedRun = Result<(RunOutcome, u64), EngineError>;

/// Number of agents whose *simulated* state is `q` — the projection
/// `π_P(C)` counted without materializing it. Behaviorally identical to
/// `project(c).count_state(q)`, but allocation-free: building the n-state
/// projection at every batch boundary costs hundreds of milliseconds per
/// budget-capped cell (the E17 hot-path analysis).
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

/// The Pairing workload used throughout: `n/2` consumers, `n/2` producers
/// (n even), expecting `n/2` pairings.
pub fn pairing_inputs(n: usize) -> Vec<PairingState> {
    assert!(n >= 2 && n.is_multiple_of(2), "workload uses even n");
    Pairing::initial(n / 2, n / 2).as_slice().to_vec()
}

/// One seeded SID run on the Pairing workload (E7).
pub fn sid_pairing_run(n: usize, seed: u64, budget: u64) -> SeedRun {
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

/// One seeded SKnO run on the Pairing workload under model I3 with
/// omission bound `o`, the adversary spending the full budget (E5).
pub fn skno_pairing_run(n: usize, o: u32, seed: u64, budget: u64) -> SeedRun {
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

/// One seeded run of the naming-composed simulator on the Pairing
/// workload, with knowledge of `n`: naming plus the simulated Pairing
/// (E8).
pub fn named_pairing_run(n: usize, seed: u64, budget: u64) -> SeedRun {
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

/// One seeded run of only the naming phase of `Nn` (E8): interactions
/// until every agent has started simulating. The denominator is 1: one
/// "simulated step" is completing the naming.
pub fn naming_phase_run(n: usize, seed: u64, budget: u64) -> SeedRun {
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
                    |c: &Configuration<NamedState<PairingState>>| {
                        c.as_slice().iter().all(NamedState::is_simulating)
                    },
                    1,
                ),
            ),
        )
        .map(|out| (out, 1u64))
}

/// One seeded giant-n epidemic run (E11): one infected agent in
/// `population`, run to stable full infection through the interleaved
/// [`Batched`]`(`[`GIANT_BATCH`]`)` loop. Generic in the backend: the
/// `epidemic_count` family passes a [`CountConfiguration`] (O(1) memory
/// in `n`), the dense twin a per-agent [`Configuration`]. The
/// denominator is `n` (interactions per agent).
pub fn epidemic_giant_run<C>(population: C, seed: u64, budget: u64) -> SeedRun
where
    C: ExecBackend<State = bool>,
{
    let n = population.len();
    assert!(n >= 2, "population needs at least 2 agents");
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
        .population(population)
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
}

/// The one-infected-agent epidemic population on the count backend.
pub fn epidemic_counts(n: usize) -> CountConfiguration<bool> {
    assert!(n >= 2, "population needs at least 2 agents");
    CountConfiguration::from_groups([(true, 1), (false, n - 1)])
}

/// One seeded epidemic run on the **batch-epoch** path (E15): the
/// workload and predicate of [`epidemic_giant_run`] on the count
/// backend, driven through [`Epochs`]. A batch of ≈ 1.6√n interactions
/// applies its collision-free ones as one bulk multivariate draw and its
/// few collisions one by one, so the work per batch is O(distinct state
/// pairs), independent of its length. The denominator is `n`.
pub fn epidemic_epoch_run(n: usize, seed: u64, budget: u64) -> SeedRun {
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
        .population(epidemic_counts(n))
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
}

/// One seeded epidemic broadcast on an explicit interaction topology
/// (E12), seeded at vertex 0 and run to stable full infection. The
/// denominator is `n`.
pub fn epidemic_topology_run(topology: &Topology, seed: u64, budget: u64) -> SeedRun {
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

/// The E13 graph families at size `n`, in fixed conductance order:
/// ring, √n×√n grid, random 4-regular, complete. One definition shared
/// by the `e13_graphical_ftt` bench and the E13 instrumentation test so
/// they cannot drift onto different graphs.
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

/// One seeded run of the epidemic *simulated through graphical `SID`*
/// on `topology` (E13, the fault-free half): `SID`'s three-observation
/// handshake pairs only graph-adjacent agents, so convergence pays the
/// graph's broadcast time times the handshake constant. Seeded at
/// vertex 0, run to full *simulated* infection; the denominator is `n`.
pub fn sid_epidemic_graphical_run(topology: &Topology, seed: u64, budget: u64) -> SeedRun {
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

/// One seeded run of the same simulated epidemic through **graphical
/// `SKnO`** under model I3 (E13), with omission bound `o` and an
/// adversary spending that budget at `rate`. Graphical `SKnO` keys
/// announcement runs per origin vertex, so completing a run of length
/// `o + 1` requires reassembling tokens of one specific announcer at one
/// of its graph neighbors — the reassembly cost that makes omission
/// tolerance interact with conductance.
pub fn skno_epidemic_graphical_run(
    topology: &Topology,
    o: u32,
    rate: f64,
    seed: u64,
    budget: u64,
) -> SeedRun {
    skno_epidemic_graphical_run_with(topology, o, rate, seed, budget, true)
}

/// [`skno_epidemic_graphical_run`] with the simulator path explicit:
/// `indexed = false` runs the same workload through the scan-path
/// reference (`Skno::scan_reference`). The outcome is bit-identical
/// either way — `tests/simulator_index_equivalence.rs` certifies it, and
/// the E17 release test re-asserts it at n = 64 — so the A/B difference
/// is pure wall-clock.
pub fn skno_epidemic_graphical_run_with(
    topology: &Topology,
    o: u32,
    rate: f64,
    seed: u64,
    budget: u64,
    indexed: bool,
) -> SeedRun {
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

/// Peak per-agent token footprint of SKnO on the Pairing workload over
/// `steps` interactions (E6) — the measured side of Theorem 4.1's
/// Θ(|Q_P|·(o+1)·log n) memory bound.
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

/// Worker threads for seed and job fan-out.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, |p| p.get().min(8))
}
