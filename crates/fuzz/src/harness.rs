//! The execution harness: the simulator as fuzz executor.

use ppfts_core::{sim_pressure, SimPressure, SimulatorState, Skno, SknoState};
use ppfts_engine::{
    run_seeds, Batched, EngineError, FullTrace, OneWayFault, OneWayModel, OneWayRunner, RunOutcome,
    RunStats, StatsOnly, Stop, Trace,
};
use ppfts_population::{Configuration, Topology};
use ppfts_protocols::Epidemic;
use ppfts_verify::{audit_omission_schedule, ScheduleViolation};

use crate::ScheduleGenome;

/// Batch size for the runner's batched stepping (the schedule adversary
/// is RNG-free, so pairs are drawn in bulk).
const BATCH: u64 = 1024;

/// How bad a found attack is, ordered lexicographically: seeds broken
/// outright, then the most agents `pending` at once, then
/// the deepest token-queue stall, then steps-to-convergence slowdown.
///
/// "Broken" is conservative: a seed counts only when the *fault-free
/// baseline* converged within the same step budget but the attacked run
/// did not — a schedule cannot take credit for a run that was never
/// going to converge (sparse topologies at tight budgets).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct AttackSeverity {
    /// Seeds where the baseline converged but the attacked run did not.
    pub broken_seeds: u32,
    /// Maximum simultaneous pending-agent count over seeds (peak at
    /// batch boundaries).
    pub max_pending: u32,
    /// Maximum single-agent token footprint over seeds (peak at batch
    /// boundaries).
    pub max_stall_depth: u32,
    /// Maximum steps the attacked runs took (budget when exhausted).
    pub max_steps: u64,
}

impl AttackSeverity {
    /// Whether this attack broke at least one seed.
    #[must_use]
    pub fn is_break(&self) -> bool {
        self.broken_seeds > 0
    }
}

/// Fault-free reference outcome for one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaselineRun {
    /// The run seed.
    pub seed: u64,
    /// Whether the fault-free run converged within the step budget.
    pub converged: bool,
    /// Steps at convergence (or the budget).
    pub steps: u64,
}

/// One attacked run's measurements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedOutcome {
    /// The run seed.
    pub seed: u64,
    /// Whether the attacked run converged within the step budget.
    pub converged: bool,
    /// Steps at convergence (or the budget).
    pub steps: u64,
    /// Aggregate step statistics (bit-identical across replays).
    pub stats: RunStats,
    /// Progress-pressure diagnostics, each the peak at batch boundaries.
    pub pressure: SimPressure,
    /// Baseline converged but this run did not (never set on a run
    /// that ended in an engine error).
    pub broken: bool,
    /// The engine error that ended the run, if one did; `steps` and
    /// `stats` then count the steps applied before it.
    pub error: Option<EngineError>,
}

impl SeedOutcome {
    /// Scores one attacked run against its seed's fault-free baseline.
    /// A run that ended in an engine error is reported with that error
    /// and never counted broken: it never got the chance to converge.
    fn new(
        seed: u64,
        out: Result<RunOutcome, EngineError>,
        stats: RunStats,
        pressure: SimPressure,
        baseline_converged: bool,
    ) -> Self {
        let (converged, error) = match out {
            Ok(out) => (out.is_satisfied(), None),
            Err(e) => (false, Some(e)),
        };
        SeedOutcome {
            seed,
            converged,
            steps: stats.steps,
            stats,
            pressure,
            broken: error.is_none() && baseline_converged && !converged,
            error,
        }
    }
}

/// A genome's full evaluation: the scalar severity plus the per-seed
/// evidence behind it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evaluation {
    /// Corpus-ordering score.
    pub severity: AttackSeverity,
    /// Per-seed outcomes, sorted by seed.
    pub seeds: Vec<SeedOutcome>,
}

/// The system under attack: graphical `SKnO` simulating an epidemic on
/// a fixed topology, measured over a fixed seed set.
///
/// `o_sim` provisions the simulator; `o_budget` caps what any compiled
/// schedule may inject. The interesting regimes: `o_sim == o_budget`
/// probes the paper's Theorem 4.1 claim, `o_sim < o_budget`
/// under-provisions the simulator (the seeded-mutant self-test, which
/// the fuzzer must break).
#[derive(Clone, Debug)]
pub struct FuzzTarget {
    topology: Topology,
    o_sim: u32,
    o_budget: u64,
    seeds: Vec<u64>,
    step_budget: u64,
    threads: usize,
    baseline: Vec<BaselineRun>,
}

impl FuzzTarget {
    /// Builds a target and measures its fault-free baselines (one run
    /// per seed, `NoOmissions`).
    #[must_use]
    pub fn new(
        topology: Topology,
        o_sim: u32,
        o_budget: u64,
        seeds: Vec<u64>,
        step_budget: u64,
        threads: usize,
    ) -> Self {
        let mut target = FuzzTarget {
            topology,
            o_sim,
            o_budget,
            seeds,
            step_budget,
            threads,
            baseline: Vec::new(),
        };
        let clean = ScheduleGenome::empty();
        target.baseline = target
            .evaluate(&clean)
            .seeds
            .into_iter()
            .map(|s| BaselineRun {
                seed: s.seed,
                converged: s.converged,
                steps: s.steps,
            })
            .collect();
        target
    }

    /// The fault-free reference outcomes, sorted by seed.
    #[must_use]
    pub fn baseline(&self) -> &[BaselineRun] {
        &self.baseline
    }

    /// The topology under attack.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The adversary-class injection cap.
    #[must_use]
    pub fn o_budget(&self) -> u64 {
        self.o_budget
    }

    /// The simulator's omission provisioning.
    #[must_use]
    pub fn o_sim(&self) -> u32 {
        self.o_sim
    }

    /// The per-run step budget.
    #[must_use]
    pub fn step_budget(&self) -> u64 {
        self.step_budget
    }

    /// Runs the compiled genome over every seed and scores it.
    #[must_use]
    pub fn evaluate(&self, genome: &ScheduleGenome) -> Evaluation {
        let summaries = run_seeds(self.seeds.iter().copied(), self.threads, |seed| {
            self.run_one(genome, seed)
        });
        let mut seeds = Vec::with_capacity(summaries.len());
        let mut severity = AttackSeverity::default();
        for (i, summary) in summaries.into_iter().enumerate() {
            let (out, stats, pressure) = summary.value;
            let baseline_converged = self.baseline.get(i).is_some_and(|b| b.converged);
            let s = SeedOutcome::new(summary.seed, out, stats, pressure, baseline_converged);
            severity.broken_seeds += u32::from(s.broken);
            severity.max_pending = severity
                .max_pending
                .max(u32::try_from(s.pressure.pending_agents).unwrap_or(u32::MAX));
            severity.max_stall_depth = severity
                .max_stall_depth
                .max(u32::try_from(s.pressure.stall_depth).unwrap_or(u32::MAX));
            severity.max_steps = severity.max_steps.max(s.steps);
            seeds.push(s);
        }
        Evaluation { severity, seeds }
    }

    /// One attacked run with a stats-only sink: the driver's result,
    /// the run's statistics, and the peak pressure, sampled at every
    /// batch boundary and at the end of the run.
    fn run_one(
        &self,
        genome: &ScheduleGenome,
        seed: u64,
    ) -> (Result<RunOutcome, EngineError>, RunStats, SimPressure) {
        let mut runner = self
            .builder(seed)
            .adversary(genome.compile(Some(self.o_budget)))
            .trace_sink(StatsOnly)
            .build()
            .expect("graphical SKnO assembles on its own topology");
        let mut peak = SimPressure::default();
        let mut watch = |c: &Configuration<SknoState<bool>>| {
            let p = sim_pressure(c.as_slice());
            peak.pending_agents = peak.pending_agents.max(p.pending_agents);
            peak.queued_tokens = peak.queued_tokens.max(p.queued_tokens);
            peak.stall_depth = peak.stall_depth.max(p.stall_depth);
            all_simulated(c)
        };
        let out = runner.run(Batched(BATCH), Stop::until(self.step_budget, &mut watch));
        // A run that ends in an error stops between boundaries.
        watch(runner.config());
        (out, runner.stats(), peak)
    }

    /// Replays `genome` on one seed with a full trace and audits the
    /// recorded omissions against the genome's own schedule and the
    /// class budget. An empty result certifies the replay faithful.
    ///
    /// # Errors
    ///
    /// The [`EngineError`] that ended the replay, if one did.
    pub fn audit_replay(
        &self,
        genome: &ScheduleGenome,
        seed: u64,
    ) -> Result<Vec<ScheduleViolation>, EngineError> {
        let mut runner = self
            .builder(seed)
            .adversary(genome.compile(Some(self.o_budget)))
            .trace_sink(FullTrace::new())
            .build()
            .expect("graphical SKnO assembles on its own topology");
        runner.run(Batched(BATCH), Stop::until(self.step_budget, all_simulated))?;
        let trace: &Trace<SknoState<bool>, OneWayFault> =
            runner.trace().expect("FullTrace::new() retains the trace");
        let schedule = genome.compile(Some(self.o_budget));
        Ok(audit_omission_schedule(
            trace,
            |f| f.is_omissive(),
            |step, interaction| schedule.permits(step, Some(interaction)),
            Some(self.o_budget),
        ))
    }

    /// The common runner builder for this target (model I3, graphical
    /// indexed SKnO, agent `i` at vertex `i`, agent 0 infected).
    fn builder(&self, seed: u64) -> TargetBuilder {
        let n = self.topology.len();
        let sims: Vec<bool> = (0..n).map(|v| v == 0).collect();
        let skno = Skno::graphical(Epidemic, self.o_sim, self.topology.clone());
        OneWayRunner::builder(OneWayModel::I3, skno)
            .config(Skno::<Epidemic>::initial(&sims))
            .topology(self.topology.clone())
            .seed(seed)
    }
}

/// The runner-builder type [`FuzzTarget::builder`] assembles: model I3,
/// graphical indexed SKnO over [`Epidemic`], topology-scheduled.
type TargetBuilder = ppfts_engine::OneWayRunnerBuilder<
    Skno<Epidemic>,
    ppfts_engine::TopologyScheduler,
    ppfts_engine::NoOmissions,
    StatsOnly,
    Configuration<SknoState<bool>>,
>;

/// Convergence predicate: every agent's *simulated* state reached
/// `true` (the epidemic fully spread in the simulated protocol).
fn all_simulated(config: &Configuration<SknoState<bool>>) -> bool {
    config.as_slice().iter().all(|s| *s.simulated())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_engine::ScheduledEvent;

    fn small_target(o_sim: u32, o_budget: u64) -> FuzzTarget {
        let topology = Topology::complete(8).unwrap();
        FuzzTarget::new(topology, o_sim, o_budget, vec![1, 2], 40_000, 1)
    }

    #[test]
    fn baseline_converges_on_the_complete_graph() {
        let target = small_target(1, 1);
        assert!(target.baseline().iter().all(|b| b.converged));
    }

    #[test]
    fn empty_genome_breaks_nothing() {
        let target = small_target(1, 1);
        let eval = target.evaluate(&ScheduleGenome::empty());
        assert_eq!(eval.severity.broken_seeds, 0);
        assert!(!eval.severity.is_break());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let target = small_target(1, 1);
        let genome = ScheduleGenome {
            events: vec![ScheduledEvent::at(5)],
            segments: vec![],
            salt: 3,
        };
        assert_eq!(target.evaluate(&genome), target.evaluate(&genome));
    }

    #[test]
    fn under_provisioned_simulator_breaks_and_audits_clean() {
        // o_sim = 0 but one omission allowed: the paper's own breaking
        // condition (a single lost token stalls an unprovisioned SKnO).
        let target = small_target(0, 1);
        let genome = ScheduleGenome {
            events: vec![ScheduledEvent {
                from: 0,
                until: 40_000,
                target: Some(0),
            }],
            segments: vec![],
            salt: 0,
        };
        let eval = target.evaluate(&genome);
        assert!(eval.severity.is_break(), "severity: {:?}", eval.severity);
        // The found attack is a faithful member of the class.
        assert!(target.audit_replay(&genome, 1).unwrap().is_empty());
    }

    #[test]
    fn an_errored_seed_is_reported_and_never_counted_broken() {
        let stats = RunStats {
            steps: 12,
            ..RunStats::default()
        };
        let err = EngineError::PerAgentBackendRequired {
            operation: "building step records",
        };
        let s = SeedOutcome::new(4, Err(err.clone()), stats, SimPressure::default(), true);
        assert_eq!((s.converged, s.broken, s.steps), (false, false, 12));
        assert_eq!(s.error, Some(err));
        // The same budget miss without an error is a break.
        let miss = Ok(RunOutcome::Exhausted { steps: 12 });
        let s = SeedOutcome::new(4, miss, stats, SimPressure::default(), true);
        assert!(s.broken && s.error.is_none());
    }

    #[test]
    fn pressure_is_the_peak_over_batch_boundaries() {
        // Seed 2 of the fault-free n = 8 target ends with 4 agents
        // pending but passes 6 at an earlier boundary.
        let (target, seed) = (small_target(1, 1), 2);
        let mut runner = target.builder(seed).build().unwrap();
        let mut peak = (0, 0);
        let watch = |c: &Configuration<SknoState<bool>>| {
            let p = sim_pressure(c.as_slice());
            peak = (peak.0.max(p.pending_agents), peak.1.max(p.stall_depth));
            all_simulated(c)
        };
        runner
            .run(Batched(BATCH), Stop::until(target.step_budget, watch))
            .unwrap();
        let last = sim_pressure(runner.config().as_slice());
        assert!(peak.0 > last.pending_agents, "the peak is not the end");
        let eval = target.evaluate(&ScheduleGenome::empty());
        let p = eval.seeds.iter().find(|s| s.seed == seed).unwrap().pressure;
        assert_eq!((p.pending_agents, p.stall_depth), peak);
    }

    #[test]
    fn severity_orders_lexicographically() {
        let a = AttackSeverity {
            broken_seeds: 1,
            ..AttackSeverity::default()
        };
        let b = AttackSeverity {
            broken_seeds: 0,
            max_pending: 500,
            max_stall_depth: 9,
            max_steps: u64::MAX,
        };
        assert!(a > b, "a broken seed outranks any pressure");
    }
}
