//! The ladder rungs: single public functions of each layer, timed in
//! isolation from outside on inputs drawn from the workload.
//!
//! Each rung reports the median over [`REPS`] repetitions of nanoseconds
//! per call. The RNG rung is the floor; the arc-draw and adversary rungs
//! include their own RNG draws.

use std::hint::black_box;
use std::time::Instant;

use ppfts_core::{sim_pressure, SimPressure};
use ppfts_engine::outcome::one_way_in_place;
use ppfts_engine::{OmissionStrategy, OneWayFault, OneWayModel, OneWayProgram};
use ppfts_population::{dist, Configuration, Topology};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::{epoch_runner, sid_runner, skno_runner, EPOCH_N, EPOCH_RATE, SID_N, SKNO_N};

/// Repetitions per rung; the rung reports their median.
pub const REPS: usize = 7;

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Times `rep` [`REPS`] times; each call performs `ops` operations and
/// returns a value folded into a black box so the work cannot be elided.
fn ns_per_op(ops: u64, mut rep: impl FnMut() -> u64) -> f64 {
    let mut sink = 0u64;
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        sink = sink.wrapping_add(black_box(rep()));
        samples.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    black_box(sink);
    median(&samples)
}

/// `SmallRng::next_u64`, per call.
pub fn rng_ns(seed: u64) -> f64 {
    const OPS: u64 = 1 << 22;
    let mut rng = SmallRng::seed_from_u64(seed);
    ns_per_op(OPS, || {
        let mut acc = 0u64;
        for _ in 0..OPS {
            acc ^= rng.next_u64();
        }
        acc
    })
}

/// `Topology::sample_arcs_into` on `topology`, per arc, in batches of
/// [`BATCH`](crate::BATCH).
pub fn arc_draw_ns(topology: &Topology, seed: u64) -> f64 {
    const OPS: u64 = 1 << 21;
    let batch = crate::BATCH as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(batch);
    ns_per_op(OPS, || {
        let mut acc = 0u64;
        for _ in 0..OPS / crate::BATCH {
            out.clear();
            topology.sample_arcs_into(&mut out, batch, &mut rng);
            acc = acc.wrapping_add(out[batch - 1].starter().index() as u64);
        }
        acc
    })
}

/// `OmissionStrategy::decide` on a fresh adversary per repetition, per
/// call.
pub fn adversary_ns<A: OmissionStrategy>(make: impl Fn() -> A, seed: u64) -> f64 {
    const OPS: u64 = 1 << 21;
    let mut rng = SmallRng::seed_from_u64(seed);
    ns_per_op(OPS, || {
        let mut adversary = make();
        let mut acc = 0u64;
        for step in 0..OPS {
            acc += u64::from(adversary.decide(step, &mut rng));
        }
        acc
    })
}

/// One epoch's sampler arguments at n = 10⁸: the infected count `k` and
/// the collision-free prefix length `ell`.
#[derive(Clone, Copy, Debug)]
pub struct EpochParams {
    /// Infected agents.
    pub k: u64,
    /// Collision-free prefix length.
    pub ell: u64,
}

/// The epoch workload's sampler arguments: `k` log-uniform over one side
/// of the epidemic (an epoch-driven epidemic spends equal time per
/// doubling of `min(k, n − k)`), mirrored with probability ½, and `ell`
/// drawn from the prefix-length law `P(ℓ ≥ j) ≈ exp(−2j²/n)`.
pub fn epoch_params(seed: u64, count: usize) -> Vec<EpochParams> {
    let n = EPOCH_N as u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let u = dist::uniform_f64(&mut rng);
            let side = ((u * ((n / 2) as f64).ln()).exp() as u64).clamp(1, n / 2);
            let k = if rng.next_u64() & 1 == 0 {
                side
            } else {
                n - side
            };
            let v = dist::uniform_open01(&mut rng);
            let ell = ((-(n as f64) * v.ln() / 2.0).sqrt() as u64).clamp(1, n / 2);
            EpochParams { k, ell }
        })
        .collect()
}

/// Which sampler of `population::dist` a rung times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampler {
    /// `dist::binomial` — the omission thinning of one (state, state)
    /// group at the workload's T1 rate.
    Binomial,
    /// `dist::hypergeometric` — the starter split of an epoch.
    Hypergeometric,
    /// `dist::multivariate_hypergeometric` — the same split through the
    /// multivariate entry point.
    Mvhg,
}

/// One `population::dist` sampler over the epoch parameter mix, per call.
pub fn sampler_ns(sampler: Sampler, params: &[EpochParams], seed: u64) -> f64 {
    const PASSES: u64 = 8;
    let n = EPOCH_N as u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    ns_per_op(PASSES * params.len() as u64, || {
        let mut acc = 0u64;
        for _ in 0..PASSES {
            for (i, p) in params.iter().enumerate() {
                acc = acc.wrapping_add(match sampler {
                    Sampler::Binomial => {
                        // The four (starter, reactor) groups of an epoch
                        // with infected share k/n, in turn.
                        let f = p.k as f64 / n as f64;
                        let share = match i % 4 {
                            0 => f * f,
                            1 | 2 => f * (1.0 - f),
                            _ => (1.0 - f) * (1.0 - f),
                        };
                        let trials = ((p.ell as f64 * share) as u64).max(1);
                        dist::binomial(trials, EPOCH_RATE, &mut rng)
                    }
                    Sampler::Hypergeometric => dist::hypergeometric(p.k, n - p.k, p.ell, &mut rng),
                    Sampler::Mvhg => {
                        dist::multivariate_hypergeometric(&[p.k, n - p.k], p.ell, &mut rng)[0]
                    }
                });
            }
        }
        acc
    })
}

/// The simulator's `OneWayProgram` hooks (through the engine's in-place
/// outcome, fault-free) over a plan of arcs drawn on `topology`, applied
/// to `snapshot`, per interaction. The configuration is restored between
/// repetitions, so every repetition does the same work.
pub fn hook_ns<P: OneWayProgram>(
    model: OneWayModel,
    program: &P,
    snapshot: &Configuration<P::State>,
    topology: &Topology,
    seed: u64,
) -> f64
where
    P::State: ppfts_population::State,
{
    const OPS: usize = 1 << 18;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut plan = Vec::with_capacity(OPS);
    topology.sample_arcs_into(&mut plan, OPS, &mut rng);
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut config = snapshot.clone();
        let start = Instant::now();
        let mut changed = 0u64;
        for &arc in &plan {
            let (s, r) = config.pair_states_mut(arc).expect("plan arcs are in range");
            let (a, b) = one_way_in_place(model, program, s, r, OneWayFault::None)
                .expect("fault-free steps are in every model's relation");
            changed += u64::from(a || b);
        }
        samples.push(start.elapsed().as_nanos() as f64 / OPS as f64);
        black_box((changed, &config));
    }
    median(&samples)
}

/// Interactions after which the `SKnO` hook rung captures the
/// workload's configuration: a quarter, a half and three quarters of a
/// typical convergence time, so the rung averages over a run's phases.
pub const SKNO_SNAPSHOTS: [u64; 3] = [550_000, 1_100_000, 1_650_000];

/// See [`SKNO_SNAPSHOTS`].
pub const SID_SNAPSHOTS: [u64; 3] = [360_000, 720_000, 1_080_000];

/// What the `SKnO` rung measures.
#[derive(Clone, Copy, Debug)]
pub struct SknoRung {
    /// The `SKnO` hooks per interaction, mean over [`SKNO_SNAPSHOTS`].
    pub hook_ns: f64,
    /// Peak [`sim_pressure`] over the batch boundaries up to the last
    /// snapshot.
    pub pressure_peak: SimPressure,
}

/// Runs one `skno-omission` seed batch by batch to its last snapshot,
/// tracking `sim_pressure` at every boundary, and times the `SKnO` hooks
/// on the configurations captured at the snapshots.
pub fn skno_rung(seed: u64) -> SknoRung {
    let topology = Topology::complete(SKNO_N).expect("n ≥ 2");
    let mut runner = skno_runner(&topology, seed);
    let mut peak = SimPressure::default();
    let mut total = 0.0;
    for at in SKNO_SNAPSHOTS {
        while runner.steps() < at {
            let take = (at - runner.steps()).min(crate::BATCH);
            runner
                .run_batched(take, crate::BATCH)
                .expect("the SKnO workload does not fail");
            let p = sim_pressure(runner.config().as_slice());
            peak.pending_agents = peak.pending_agents.max(p.pending_agents);
            peak.stall_depth = peak.stall_depth.max(p.stall_depth);
        }
        total += hook_ns(
            OneWayModel::I3,
            runner.program(),
            runner.config(),
            &topology,
            seed ^ at,
        );
    }
    SknoRung {
        hook_ns: total / SKNO_SNAPSHOTS.len() as f64,
        pressure_peak: peak,
    }
}

/// The `SID` hooks on configurations captured from the `sid-sparse`
/// workload, per interaction (mean over the snapshots).
pub fn sid_hook_ns(topology: &Topology, seed: u64) -> f64 {
    assert_eq!(
        topology.len(),
        SID_N,
        "the SID rung runs on the workload's graph"
    );
    let mut runner = sid_runner(topology, seed);
    let mut total = 0.0;
    for at in SID_SNAPSHOTS {
        runner
            .run_batched(at - runner.steps(), crate::BATCH)
            .expect("the SID workload does not fail");
        total += hook_ns(
            OneWayModel::Io,
            runner.program(),
            runner.config(),
            topology,
            seed ^ at,
        );
    }
    total / SID_SNAPSHOTS.len() as f64
}

/// Interactions the epoch rung advances a fresh runner before timing
/// (about half of a typical convergence time).
pub const EPOCH_WARM_STEPS: u64 = 900_000_000;

/// `run_epochs(chunk)` on a mid-run epoch-workload runner, per
/// interaction.
pub fn epoch_interaction_ns(seed: u64) -> f64 {
    const CHUNK: u64 = crate::EPOCH_CHUNK;
    let mut runner = epoch_runner(seed);
    runner
        .run_epochs(EPOCH_WARM_STEPS)
        .expect("the epoch workload is epoch compatible");
    ns_per_op(CHUNK, || {
        runner
            .run_epochs(CHUNK)
            .expect("the epoch workload is epoch compatible");
        runner.steps()
    })
}
