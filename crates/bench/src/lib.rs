//! Multi-seed aggregators and fixed-step routines for the legacy
//! Criterion-shim benches, plus the `bench_gate` regression comparison.
//!
//! Every `measure_*` aggregator fans one of the single-seed bodies of
//! [`ppfts_sweep::workloads`] over seeds, so a bench times exactly the
//! run a sweep manifest job records; step counts are batch aligned (see
//! that module). [`measure_skno_scalar`] keeps the pre-batching scalar
//! path alive as the reference the committed `BENCH_RESULTS.json`
//! baseline is measured against.

#![warn(missing_docs)]

pub mod regression;

use ppfts_core::{project, Skno};
use ppfts_engine::{
    run_seeds, Batched, BoundedStrategy, EngineError, Epochs, OneWayModel, OneWayRunner,
    RunOutcome, StatsOnly, Stop, TwoWayModel, TwoWayRunner,
};
use ppfts_population::{Configuration, Topology};
use ppfts_protocols::{Epidemic, Pairing, PairingState};
use ppfts_sweep::workloads::{
    epidemic_counts, epidemic_epoch_run, epidemic_giant_run, epidemic_topology_run, pairing_inputs,
    sid_epidemic_graphical_run, skno_epidemic_graphical_run, skno_pairing_run, workers,
    GIANT_BATCH,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

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

/// E11: epidemic convergence at giant `n` on the **count** backend
/// (seeds of [`epidemic_giant_run`]). Memory is O(1) in `n`;
/// `steps_per_simulated` normalizes by `n` (interactions per agent).
pub fn measure_epidemic_giant(n: usize, seeds: u64, budget: u64) -> Convergence {
    let results = run_seeds(0..seeds, workers(), |seed| {
        epidemic_giant_run(epidemic_counts(n), seed, budget)
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// The dense-backend twin of [`measure_epidemic_giant`]: same workload,
/// same predicate, on the per-agent `Configuration`. O(n) memory and an
/// O(n) boundary predicate — the floor the count backend is measured
/// against in `BENCH_RESULTS.json` (`benches/e11_giant.rs`).
pub fn measure_epidemic_giant_dense(n: usize, seeds: u64, budget: u64) -> Convergence {
    let results = run_seeds(0..seeds, workers(), |seed| {
        epidemic_giant_run(
            Configuration::from_groups([(true, 1), (false, n - 1)]),
            seed,
            budget,
        )
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// E15: epidemic convergence at giant `n` on the **batch-epoch** path
/// (seeds of [`epidemic_epoch_run`]); `steps_per_simulated` normalizes
/// by `n`, the same unit E11 reports.
pub fn measure_epidemic_epoch(n: usize, seeds: u64, budget: u64) -> Convergence {
    let results = run_seeds(0..seeds, workers(), |seed| {
        epidemic_epoch_run(n, seed, budget)
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
        .population(epidemic_counts(n))
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
        .population(epidemic_counts(n))
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    runner
        .run(Epochs, Stop::steps(steps))
        .expect("fault-free count-backed runs are epoch compatible");
    runner.config().count_state(&true)
}

/// E12: epidemic broadcast on an explicit interaction topology (seeds of
/// [`epidemic_topology_run`]). The graph is generated once and borrowed
/// by every seed; `steps_per_simulated` normalizes by `n`.
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

/// E13: the epidemic simulated through graphical `SID` on `topology`
/// (seeds of [`sid_epidemic_graphical_run`]).
pub fn measure_sid_epidemic_graphical(topology: &Topology, seeds: u64, budget: u64) -> Convergence {
    let n = topology.len();
    let results = run_seeds(0..seeds, workers(), |seed| {
        sid_epidemic_graphical_run(topology, seed, budget)
    });
    aggregate(n, results.into_iter().map(|s| s.value))
}

/// E13: the epidemic simulated through graphical `SKnO` on `topology`
/// under model I3 with omission bound `o` (seeds of
/// [`skno_epidemic_graphical_run`]). Budget-capped cells report partial
/// convergence honestly via [`Convergence::converged`].
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
}
