//! The repository benchmark: three simulator workloads run to
//! convergence, one seed per job, fanned out over
//! [`run_seeds`](ppfts_engine::run_seeds) workers.
//!
//! * [`Workload::SknoOmission`] — graphical `SKnO` (o = 1) on the complete
//!   graph of 128 agents under I3 with a bounded omission adversary;
//! * [`Workload::SidSparse`] — graphical `SID` on a random 4-regular graph
//!   of 4096 agents under IO, fault-free;
//! * [`Workload::EpidemicEpoch`] — the two-way epidemic at n = 10⁸ on the
//!   count backend under T1 omissions, through the batch-epoch path.
//!
//! Each workload has an untraced loop (the user-facing
//! `run_batched_until` / `run_epochs_until` calls, timed per seed from
//! outside) and a traced loop (the same work through `run_batched` /
//! `run_epochs` one batch or chunk at a time, with a [`trace::Span`]
//! around every call into a layer). Every seed's final configuration and
//! [`RunStats`] are re-checked independently of the stop predicate
//! ([`check_dense`], [`check_epoch`]), and every seed set is summarized
//! by a determinism [`digest`].
//!
//! See `perfbench/README.md` for why each workload was chosen and how the
//! metrics are defined.

#![forbid(unsafe_code)]

pub mod ladder;
pub mod report;
pub mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ppfts_core::{project, sim_pressure, Sid, SidState, SimPressure, SimulatorState, Skno};
use ppfts_engine::convergence::stably;
use ppfts_engine::{
    run_seeds, BoundedStrategy, NoOmissions, OmissionStrategy, OneWayModel, OneWayProgram,
    OneWayRunner, RateStrategy, RunStats, StatsOnly, TopologyScheduler, TwoWayModel, TwoWayRunner,
    UniformScheduler,
};
use ppfts_population::{dist, Configuration, CountConfiguration, State, Topology};
use ppfts_protocols::Epidemic;

use trace::{Layer, Tracer};

/// Interactions per `run_batched` call on the dense workloads (the
/// repository's harness batch size).
pub const BATCH: u64 = 1024;

/// Omission bound `o` of the `SKnO` workload.
pub const SKNO_O: u32 = 1;

/// Per-interaction omission probability of the `SKnO` workload's bounded
/// adversary.
pub const SKNO_RATE: f64 = 0.02;

/// Agents of the `SKnO` workload's complete graph.
pub const SKNO_N: usize = 128;

/// Agents of the `SID` workload's random regular graph.
pub const SID_N: usize = 4096;

/// Degree of the `SID` workload's random regular graph.
pub const SID_DEGREE: usize = 4;

/// Generation seed of the `SID` workload's graph (the legacy E13/E17
/// `rr4` seed, so the graph is the one those cells measured).
pub const SID_TOPOLOGY_SEED: u64 = 12;

/// Population of the epoch workload.
pub const EPOCH_N: usize = 100_000_000;

/// T1 omission rate of the epoch workload.
pub const EPOCH_RATE: f64 = 0.1;

/// Consecutive boundaries the epoch workload's predicate must hold.
pub const EPOCH_WINDOW: u64 = 2;

/// Interactions per `run_epochs` call in the traced epoch loop: long
/// enough that the epoch-length table each call builds stays a few
/// percent of the call.
pub const EPOCH_CHUNK: u64 = 1 << 25;

/// Interaction budget of the dense workloads.
pub const DENSE_BUDGET: u64 = 48_000_000;

/// Interaction budget of the epoch workload (≈ 20× its convergence time).
pub const EPOCH_BUDGET: u64 = 40_000_000_000;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Graphical `SKnO`, o = 1, complete(128), I3, bounded adversary.
    SknoOmission,
    /// Graphical `SID`, rr4(4096), IO, fault-free.
    SidSparse,
    /// Epidemic, n = 10⁸, count backend, T1 at rate 0.1, epoch path.
    EpidemicEpoch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SknoOmission,
        Workload::SidSparse,
        Workload::EpidemicEpoch,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SknoOmission => "skno-omission",
            Workload::SidSparse => "sid-sparse",
            Workload::EpidemicEpoch => "epidemic-epoch",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seeds the untraced load finishes per second on two workers of the
    /// 2-vCPU Xeon host the benchmark was sized on.
    pub fn nominal_seeds_per_s(self) -> f64 {
        match self {
            Workload::SknoOmission => 5.1,
            Workload::SidSparse => 33.7,
            Workload::EpidemicEpoch => 4.4,
        }
    }

    /// Size of the seed set of a run lasting about `seconds` on the
    /// sizing host. The set depends only on the arguments, never on
    /// measured time, so a run's simulated results are fixed by them.
    pub fn seed_count(self, seconds: f64) -> usize {
        ((seconds * self.nominal_seeds_per_s()).round() as usize).max(2)
    }

    /// Most seeds the traced run covers: enough for stable per-layer
    /// figures while the in-memory spans stay a few tens of MiB.
    pub fn traced_seed_cap(self) -> usize {
        match self {
            Workload::SknoOmission => 48,
            Workload::SidSparse => 128,
            Workload::EpidemicEpoch => 24,
        }
    }

    /// The run seeds of one round, derived from the workload seed: the
    /// same workload seed always gives the same seed set.
    pub fn seed_set(self, workload_seed: u64, count: usize) -> Vec<u64> {
        let base = dist::splitmix64(workload_seed ^ (self as u64).wrapping_mul(0x9e37_79b9)) >> 20;
        (0..count as u64).map(|i| base + i).collect()
    }
}

/// The per-workload inputs shared by every seed: the interaction graph.
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The workload's graph (`None` for the count-backed epoch workload).
    pub topology: Option<Topology>,
}

impl Prepared {
    /// Generates the workload's shared inputs.
    pub fn new(workload: Workload) -> Prepared {
        let topology = match workload {
            Workload::SknoOmission => Some(Topology::complete(SKNO_N).expect("n ≥ 2")),
            Workload::SidSparse => Some(
                Topology::random_regular(SID_N, SID_DEGREE, SID_TOPOLOGY_SEED)
                    .expect("rr4 on 4096 vertices is feasible"),
            ),
            Workload::EpidemicEpoch => None,
        };
        Prepared { workload, topology }
    }

    fn graph(&self) -> &Topology {
        self.topology
            .as_ref()
            .expect("dense workloads have a graph")
    }

    /// Sets up one seed's runner and executes its first interaction — the
    /// unit of the `setup_s` metric.
    pub fn setup_one(&self, seed: u64) {
        match self.workload {
            Workload::SknoOmission => {
                let mut runner = skno_runner(self.graph(), seed);
                runner.run_batched(1, 1).expect("one SKnO step");
            }
            Workload::SidSparse => {
                let mut runner = sid_runner(self.graph(), seed);
                runner.run_batched(1, 1).expect("one SID step");
            }
            Workload::EpidemicEpoch => {
                let mut runner = epoch_runner(seed);
                runner.run_epochs(1).expect("one epoch step");
            }
        }
    }
}

/// The `SKnO` workload's runner type.
pub type SknoRunner = OneWayRunner<Skno<Epidemic>, TopologyScheduler, BoundedStrategy, StatsOnly>;

/// The `SID` workload's runner type.
pub type SidRunner = OneWayRunner<Sid<Epidemic>, TopologyScheduler, NoOmissions, StatsOnly>;

/// The epoch workload's runner type.
pub type EpochRunner =
    TwoWayRunner<Epidemic, UniformScheduler, RateStrategy, StatsOnly, CountConfiguration<bool>>;

/// Simulated inputs: one infected agent, at vertex 0.
fn seeded_inputs(n: usize) -> Vec<bool> {
    (0..n).map(|v| v == 0).collect()
}

/// Builds one seed's `SKnO` runner.
pub fn skno_runner(topology: &Topology, seed: u64) -> SknoRunner {
    OneWayRunner::builder(
        OneWayModel::I3,
        Skno::graphical(Epidemic, SKNO_O, topology.clone()),
    )
    .config(Skno::<Epidemic>::initial(&seeded_inputs(topology.len())))
    .topology(topology.clone())
    .adversary(BoundedStrategy::new(SKNO_RATE, u64::from(SKNO_O)))
    .seed(seed)
    .trace_sink(StatsOnly)
    .build()
    .expect("graphical SKnO assembles on its own topology")
}

/// Builds one seed's `SID` runner.
pub fn sid_runner(topology: &Topology, seed: u64) -> SidRunner {
    OneWayRunner::builder(OneWayModel::Io, Sid::graphical(Epidemic, topology.clone()))
        .config(Sid::<Epidemic>::initial(&seeded_inputs(topology.len())))
        .topology(topology.clone())
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("graphical SID assembles on its own topology")
}

/// Builds one seed's epoch runner.
pub fn epoch_runner(seed: u64) -> EpochRunner {
    TwoWayRunner::builder(TwoWayModel::T1, Epidemic)
        .population(CountConfiguration::from_groups([
            (true, 1),
            (false, EPOCH_N - 1),
        ]))
        .adversary(RateStrategy::new(EPOCH_RATE))
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("count-backed epidemic assembles")
}

/// Whether every agent's simulated state is infected: the runners' stop
/// predicate on the dense workloads.
pub fn all_simulated<S: SimulatorState<Simulated = bool> + State>(
    config: &Configuration<S>,
) -> bool {
    config.as_slice().iter().all(|s| *s.simulated())
}

/// One seed's outcome.
#[derive(Clone, Debug, Default)]
pub struct SeedRun {
    /// The run seed.
    pub seed: u64,
    /// Interactions executed when the run stopped.
    pub steps: u64,
    /// The runner's counters when the run stopped.
    pub stats: RunStats,
    /// Whether the stop predicate held.
    pub converged: bool,
    /// The engine error that ended the run, if any.
    pub error: Option<String>,
    /// Whether the run panicked.
    pub panicked: bool,
    /// The output check's verdict (`None` when the run did not converge).
    pub mismatch: Option<String>,
    /// Seconds from the start of set-up to the end of the run.
    pub busy_s: f64,
    /// Seconds spent in the runner's `build()`.
    pub build_s: f64,
    /// Peak simulator pressure over the run's batch boundaries (traced
    /// `SKnO` runs only).
    pub pressure_peak: SimPressure,
    /// Spans of the run (traced runs only).
    pub spans: Vec<trace::Span>,
}

impl SeedRun {
    /// Whether the seed counts as converged: the predicate held, the
    /// output check passed, and nothing failed on the way.
    pub fn ok(&self) -> bool {
        self.converged && self.mismatch.is_none() && self.error.is_none() && !self.panicked
    }
}

/// Checks the counters' internal consistency against the runner's step
/// count.
fn check_stats(stats: RunStats, steps: u64) -> Result<(), String> {
    if stats.steps != steps {
        return Err(format!(
            "stats.steps {} != runner steps {steps}",
            stats.steps
        ));
    }
    if stats.changed_steps + stats.noop_steps != stats.steps {
        return Err(format!(
            "changed {} + noop {} != steps {}",
            stats.changed_steps, stats.noop_steps, stats.steps
        ));
    }
    Ok(())
}

/// Re-checks a converged dense run independently of the stop predicate:
/// the projection `π_P` counts every agent infected, the counters add
/// up, and the adversary spent at most `omission_bound` omissions.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check_dense<S: SimulatorState<Simulated = bool> + State>(
    config: &Configuration<S>,
    stats: RunStats,
    steps: u64,
    omission_bound: u64,
) -> Result<(), String> {
    let projected = project(config);
    let infected = projected.count_state(&true);
    if infected != projected.len() {
        return Err(format!("{infected}/{} agents infected", projected.len()));
    }
    check_stats(stats, steps)?;
    if stats.omissive_steps > omission_bound {
        return Err(format!(
            "{} omissive steps exceed the bound {omission_bound}",
            stats.omissive_steps
        ));
    }
    Ok(())
}

/// Re-checks a converged epoch run: all `n` agents infected, the counters
/// add up, and the omissive share matches the adversary's rate.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check_epoch(
    config: &CountConfiguration<bool>,
    stats: RunStats,
    steps: u64,
) -> Result<(), String> {
    if config.len() != EPOCH_N || config.count_state(&true) != EPOCH_N {
        return Err(format!(
            "{}/{} agents infected (population {EPOCH_N})",
            config.count_state(&true),
            config.len()
        ));
    }
    check_stats(stats, steps)?;
    let share = stats.omission_fraction();
    if (share - EPOCH_RATE).abs() > 0.01 {
        return Err(format!("omissive share {share:.5} is not ≈ {EPOCH_RATE}"));
    }
    Ok(())
}

/// The determinism digest of a seed set: FNV-1a over every seed's
/// `(seed, steps, converged, RunStats)`, in seed order. Two commits whose
/// digests agree simulated the same runs.
pub fn digest(runs: &[SeedRun]) -> u64 {
    let mut sorted: Vec<&SeedRun> = runs.iter().collect();
    sorted.sort_by_key(|r| r.seed);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in sorted {
        for x in [
            r.seed,
            r.steps,
            u64::from(r.converged),
            r.stats.steps,
            r.stats.omissive_steps,
            r.stats.changed_steps,
            r.stats.noop_steps,
        ] {
            feed(x);
        }
    }
    h
}

/// Which loop a seed runs through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The user-facing predicate-driven call, timed per seed from outside.
    Untraced,
    /// One `run_batched` / `run_epochs` call at a time, with spans.
    Traced,
}

/// Runs one seed of `prepared`'s workload; a panic becomes a failed
/// [`SeedRun`].
pub fn run_seed(prepared: &Prepared, seed: u64, mode: Mode, origin: Instant) -> SeedRun {
    let body = || match (prepared.workload, mode) {
        (Workload::SknoOmission, Mode::Untraced) => {
            dense_untraced(|| skno_runner(prepared.graph(), seed), u64::from(SKNO_O))
        }
        (Workload::SknoOmission, Mode::Traced) => dense_traced(
            || skno_runner(prepared.graph(), seed),
            u64::from(SKNO_O),
            origin,
            Some(|c: &Configuration<_>| sim_pressure(c.as_slice())),
        ),
        (Workload::SidSparse, Mode::Untraced) => {
            dense_untraced(|| sid_runner(prepared.graph(), seed), 0)
        }
        (Workload::SidSparse, Mode::Traced) => dense_traced(
            || sid_runner(prepared.graph(), seed),
            0,
            origin,
            None::<PressureProbe<SidState<bool>>>,
        ),
        (Workload::EpidemicEpoch, Mode::Untraced) => epoch_untraced(seed),
        (Workload::EpidemicEpoch, Mode::Traced) => epoch_traced(seed, origin),
    };
    let mut run = catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|_| SeedRun {
        panicked: true,
        ..SeedRun::default()
    });
    run.seed = seed;
    run
}

/// A simulator-pressure probe of the traced dense loop.
type PressureProbe<S> = fn(&Configuration<S>) -> SimPressure;

/// The user-facing dense path: `build()` then `run_batched_until`.
fn dense_untraced<P, A>(
    build: impl FnOnce() -> OneWayRunner<P, TopologyScheduler, A, StatsOnly>,
    omission_bound: u64,
) -> SeedRun
where
    P: OneWayProgram,
    P::State: SimulatorState<Simulated = bool> + State,
    A: OmissionStrategy,
{
    let start = Instant::now();
    let mut runner = build();
    let build_s = start.elapsed().as_secs_f64();
    let out = runner.run_batched_until(DENSE_BUDGET, BATCH, all_simulated);
    let busy_s = start.elapsed().as_secs_f64();
    let (stats, steps) = (runner.stats(), runner.steps());
    let converged = out.is_satisfied();
    SeedRun {
        steps,
        stats,
        converged,
        mismatch: converged
            .then(|| check_dense(runner.config(), stats, steps, omission_bound).err())
            .flatten(),
        busy_s,
        build_s,
        ..SeedRun::default()
    }
}

/// The traced dense path: the same stop rule as `run_batched_until`
/// (predicate before the first step, then at every batch boundary), one
/// `run_batched(BATCH, BATCH)` call per batch so engine errors surface.
fn dense_traced<P, A>(
    build: impl FnOnce() -> OneWayRunner<P, TopologyScheduler, A, StatsOnly>,
    omission_bound: u64,
    origin: Instant,
    pressure: Option<impl Fn(&Configuration<P::State>) -> SimPressure>,
) -> SeedRun
where
    P: OneWayProgram,
    P::State: SimulatorState<Simulated = bool> + State,
    A: OmissionStrategy,
{
    let mut tracer = Tracer::new(origin);
    let root = tracer.open(Layer::Seed, None);
    let span = tracer.open(Layer::Build, Some(root));
    let mut runner = build();
    let build_s = tracer.close(span, 0);
    let mut error = None;
    let mut peak = SimPressure::default();
    let mut converged = all_simulated(runner.config());
    let mut remaining = DENSE_BUDGET;
    while !converged && remaining > 0 {
        let take = remaining.min(BATCH);
        let span = tracer.open(Layer::RunBatched, Some(root));
        let result = runner.run_batched(take, BATCH);
        tracer.close(span, take);
        if let Err(e) = result {
            error = Some(e.to_string());
            break;
        }
        remaining -= take;
        let span = tracer.open(Layer::Predicate, Some(root));
        converged = all_simulated(runner.config());
        tracer.close(span, 0);
        if let Some(pressure) = &pressure {
            let span = tracer.open(Layer::SimPressure, Some(root));
            let p = pressure(runner.config());
            tracer.close(span, 0);
            peak.pending_agents = peak.pending_agents.max(p.pending_agents);
            peak.stall_depth = peak.stall_depth.max(p.stall_depth);
        }
    }
    let (stats, steps) = (runner.stats(), runner.steps());
    let busy_s = tracer.close(root, steps);
    SeedRun {
        steps,
        stats,
        converged,
        error,
        mismatch: converged
            .then(|| check_dense(runner.config(), stats, steps, omission_bound).err())
            .flatten(),
        busy_s,
        build_s,
        pressure_peak: peak,
        spans: tracer.into_spans(),
        ..SeedRun::default()
    }
}

/// The user-facing epoch path: `build()` then `run_epochs_until` under a
/// two-boundary [`stably`] window.
fn epoch_untraced(seed: u64) -> SeedRun {
    let start = Instant::now();
    let mut runner = epoch_runner(seed);
    let build_s = start.elapsed().as_secs_f64();
    let result = runner.run_epochs_until(
        EPOCH_BUDGET,
        stably(
            |c: &CountConfiguration<bool>| c.count_state(&true) == EPOCH_N,
            EPOCH_WINDOW,
        ),
    );
    let busy_s = start.elapsed().as_secs_f64();
    let (stats, steps) = (runner.stats(), runner.steps());
    let (converged, error) = match result {
        Ok(out) => (out.is_satisfied(), None),
        Err(e) => (false, Some(e.to_string())),
    };
    SeedRun {
        steps,
        stats,
        converged,
        error,
        mismatch: converged
            .then(|| check_epoch(runner.config(), stats, steps).err())
            .flatten(),
        busy_s,
        build_s,
        ..SeedRun::default()
    }
}

/// The traced epoch path: `run_epochs(EPOCH_CHUNK)` calls with the
/// predicate at chunk boundaries under the same two-boundary window. The
/// coarser boundaries stop runs up to two chunks later than the untraced
/// loop, which matters only to the traced run's step counts.
fn epoch_traced(seed: u64, origin: Instant) -> SeedRun {
    let mut tracer = Tracer::new(origin);
    let root = tracer.open(Layer::Seed, None);
    let span = tracer.open(Layer::Build, Some(root));
    let mut runner = epoch_runner(seed);
    let build_s = tracer.close(span, 0);
    let mut predicate = stably(
        |c: &CountConfiguration<bool>| c.count_state(&true) == EPOCH_N,
        EPOCH_WINDOW,
    );
    let mut error = None;
    let mut converged = predicate(runner.config());
    let mut remaining = EPOCH_BUDGET;
    while !converged && remaining > 0 {
        let take = remaining.min(EPOCH_CHUNK);
        let span = tracer.open(Layer::RunEpochs, Some(root));
        let result = runner.run_epochs(take);
        tracer.close(span, take);
        if let Err(e) = result {
            error = Some(e.to_string());
            break;
        }
        remaining -= take;
        let span = tracer.open(Layer::Predicate, Some(root));
        converged = predicate(runner.config());
        tracer.close(span, 0);
    }
    let (stats, steps) = (runner.stats(), runner.steps());
    let busy_s = tracer.close(root, steps);
    SeedRun {
        steps,
        stats,
        converged,
        error,
        mismatch: converged
            .then(|| check_epoch(runner.config(), stats, steps).err())
            .flatten(),
        busy_s,
        build_s,
        spans: tracer.into_spans(),
        ..SeedRun::default()
    }
}

/// One pass over a seed set on the workers.
#[derive(Clone, Debug)]
pub struct Round {
    /// Per-seed outcomes, in seed order.
    pub runs: Vec<SeedRun>,
    /// Seconds from dispatch of the first seed to the end of the last.
    pub wall_s: f64,
    /// Worker threads used.
    pub workers: usize,
}

impl Round {
    /// The round's determinism digest.
    pub fn digest(&self) -> u64 {
        digest(&self.runs)
    }

    /// Fraction of worker time not spent inside a seed:
    /// `1 − Σ busy ÷ (workers × wall)`.
    pub fn idle_frac(&self) -> f64 {
        let busy: f64 = self.runs.iter().map(|r| r.busy_s).sum();
        1.0 - busy / (self.workers as f64 * self.wall_s)
    }
}

/// Runs every seed of `seeds` through `mode` on `workers` threads
/// (closed loop: a worker claims its next seed when the previous one
/// finishes).
pub fn run_round(prepared: &Prepared, seeds: &[u64], workers: usize, mode: Mode) -> Round {
    let origin = Instant::now();
    let runs = run_seeds(seeds.iter().copied(), workers, |seed| {
        run_seed(prepared, seed, mode, origin)
    });
    let wall_s = origin.elapsed().as_secs_f64();
    Round {
        runs: runs.into_iter().map(|s| s.value).collect(),
        wall_s,
        workers: workers.min(seeds.len()).max(1),
    }
}
