//! Batch-epoch execution: sub-constant work per interaction.
//!
//! The interleaved count-backend path draws interactions one ordered pair
//! at a time, so a run costs O(interactions) even when only a handful of
//! distinct states exist. Berenbrink, Hammer, Kaaser, Meyer, Penschuck and
//! Tran, *Simulating Population Protocols in Sub-Constant Time per
//! Interaction* (arXiv:2005.03584), observe that under the uniform
//! scheduler a run decomposes into *epochs*: a maximal prefix of
//! collision-free interactions — no agent touched twice — followed by the
//! first colliding one. All agents of the collision-free prefix are
//! distinct, so the prefix order is irrelevant and the whole prefix can be
//! sampled *in bulk*:
//!
//! 1. the prefix length ℓ falls out of one uniform draw inverted against
//!    the precomputed survival table (`EpochLengths`, private),
//! 2. the ℓ starter states are a multivariate hypergeometric split of the
//!    state counts, the ℓ reactor states a second split of the remainder,
//!    and the pairing between them a uniform matching (nested
//!    hypergeometric splits again),
//! 3. each (starter-state, reactor-state) group is split across its
//!    *outcome classes* — the faults of the mix merged by equal outcome —
//!    with a multinomial draw (none for a one-class group), and each
//!    class's outcome applied *once* with a bulk count adjustment,
//! 4. the closing collision interaction re-draws one or two of the
//!    already-touched agents explicitly, which is what makes the epoch
//!    law exact rather than approximate.
//!
//! Which interactions of a class are omissive never feeds back into the
//! dynamics, so a class mixing omissive and fault-free faults only adds
//! its count to a tally keyed by its omissive share; the driver draws one
//! binomial per share when it returns. `RunStats::omissive_steps` is
//! therefore exact in law at the end of each driver call, not epoch by
//! epoch.
//!
//! An epoch of the uniform scheduler has expected length
//! `E[ℓ] = Σ_{j≥1} A(j) ≈ √(πn/8) ≈ 0.63·√n`, so the per-interaction cost
//! is O(d²/√n) for `d` distinct states: *sub-constant* once n ≫ d⁴.
//!
//! The runner surface is [`run_epochs`](crate::OneWayRunner::run_epochs) /
//! [`run_epochs_until`](crate::OneWayRunner::run_epochs_until), available
//! only on backends implementing [`EpochBackend`]. The interleaved path
//! remains the bit-exact reference; this path reproduces its law
//! *distributionally* (certified by the `backend_equivalence`
//! distribution-agreement contracts).

use ppfts_population::dist::{self, AliasTable};
use ppfts_population::{CountConfiguration, State};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::{EngineError, ExecBackend, RunStats};

/// Capability trait for population backends that can execute whole epochs
/// in bulk: expose their state counts and accept bulk count adjustments.
///
/// Only state-addressed backends can implement this — a dense per-agent
/// backend tracks identities that a bulk application would have to invent
/// — so requesting the epoch path on a dense runner fails to *compile*,
/// the same negotiation philosophy as
/// [`EngineError::PerAgentBackendRequired`] one step earlier.
pub trait EpochBackend: ExecBackend {
    /// Appends every `(state, multiplicity)` group with positive
    /// multiplicity to `out`, in a deterministic order.
    fn state_counts_into(&self, out: &mut Vec<(Self::State, u64)>);

    /// Adds `k` agents in state `q`.
    fn add_agents(&mut self, q: Self::State, k: u64);

    /// Removes `k` agents in state `q`.
    ///
    /// # Errors
    ///
    /// Fails, changing nothing, if fewer than `k` agents hold `q`.
    fn remove_agents(&mut self, q: &Self::State, k: u64) -> Result<(), EngineError>;

    /// Replaces the multiplicities of exactly the states the last
    /// [`state_counts_into`](Self::state_counts_into) reported — one
    /// entry of `new_counts` per reported state, same order — then adds
    /// the `extras` groups (states outside that snapshot). The caller
    /// guarantees the backend was not modified in between. This is the
    /// epoch commit: one aligned pass instead of per-state keyed
    /// removals and insertions.
    fn commit_state_counts(&mut self, new_counts: &[u64], extras: &[(Self::State, u64)]);
}

impl<Q: State> EpochBackend for CountConfiguration<Q> {
    fn state_counts_into(&self, out: &mut Vec<(Q, u64)>) {
        out.extend(self.iter().map(|(q, c)| (q.clone(), c as u64)));
    }

    fn add_agents(&mut self, q: Q, k: u64) {
        self.insert_many(q, usize::try_from(k).expect("count fits usize"));
    }

    fn remove_agents(&mut self, q: &Q, k: u64) -> Result<(), EngineError> {
        self.remove_many(q, usize::try_from(k).expect("count fits usize"))?;
        Ok(())
    }

    fn commit_state_counts(&mut self, new_counts: &[u64], extras: &[(Q, u64)]) {
        self.set_live_counts(
            new_counts
                .iter()
                .map(|&c| usize::try_from(c).expect("count fits usize")),
            extras
                .iter()
                .map(|(q, c)| (q.clone(), usize::try_from(*c).expect("count fits usize"))),
        );
    }
}

/// Sampler for the collision-free prefix length ℓ of an epoch.
///
/// The first `j` interactions of an epoch are all collision-free with
/// probability `A(j) = ∏_{i<j} (n−2i)(n−1−2i) / (n(n−1))`, so
/// `P(ℓ ≥ j) = A(j)` and ℓ is sampled exactly by inverting one uniform
/// draw against the precomputed, non-increasing survival table:
/// ℓ = max{ j : A(j) > U }. `A(1) = 1`, so ℓ ≥ 1 always; `A(j) = 0` past
/// `⌊n/2⌋` (the agents run out). The table, built once per driver call,
/// is truncated at `5√n + 16` entries, where `A ≈ e⁻⁵⁰`; the
/// astronomically rare draw below the truncation extends the product on
/// the fly.
///
/// The inversion searches only inside `u`'s cell of a guide table over
/// `(0, 1)`: P(ℓ ≥ j) ≈ e^(−2j²/n) spreads the draws over thousands of
/// entries (at n = 10⁸, half of them land beyond j ≈ 5 900), so a plain
/// binary search would cold-probe the table on every draw.
pub(crate) struct EpochLengths {
    n: u64,
    jmax: u64,
    survival: Vec<f64>,
    /// `guide[c]` counts the entries `A(j) > c / GUIDE_CELLS`, so the
    /// partition point of any `u` in cell `c` lies in
    /// `guide[c + 1]..=guide[c]`.
    guide: Vec<u32>,
}

/// Cells of the [`EpochLengths`] guide table.
const GUIDE_CELLS: usize = 4096;

impl EpochLengths {
    pub(crate) fn new(n: u64) -> Self {
        assert!(n >= 2, "epochs need at least 2 agents");
        let jmax = n / 2;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cap = (5.0 * (n as f64).sqrt()) as u64 + 16;
        let jcap = jmax.min(cap);
        let nf = n as f64;
        let denom = nf * (nf - 1.0);
        let mut survival = Vec::with_capacity(jcap as usize + 1);
        let mut a = 1.0f64;
        survival.push(a);
        for j in 0..jcap {
            let jf = j as f64;
            a *= (nf - 2.0 * jf) * (nf - 1.0 - 2.0 * jf) / denom;
            survival.push(a);
        }
        // One merged pass, cells descending as the table does. It stops
        // at A(j) ≤ 1/GUIDE_CELLS, about 2√n entries in; cell 0 (every
        // positive entry) takes one binary search instead.
        let index = |j: usize| u32::try_from(j).expect("survival table length fits u32");
        let mut guide = vec![0; GUIDE_CELLS + 1];
        let mut j = 0;
        for c in (1..=GUIDE_CELLS).rev() {
            let lo = c as f64 / GUIDE_CELLS as f64;
            while j < survival.len() && survival[j] > lo {
                j += 1;
            }
            guide[c] = index(j);
        }
        guide[0] = index(survival.partition_point(|&a| a > 0.0));
        EpochLengths {
            n,
            jmax,
            survival,
            guide,
        }
    }

    /// The number of survival entries `A(j) > u`, searched inside `u`'s
    /// guide cell only.
    fn partition_point(&self, u: f64) -> usize {
        // GUIDE_CELLS is a power of two, so the scaling is exact and
        // c / GUIDE_CELLS ≤ u < (c + 1) / GUIDE_CELLS.
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let c = ((u * GUIDE_CELLS as f64) as usize).min(GUIDE_CELLS - 1);
        let lo = self.guide[c + 1] as usize;
        let hi = self.guide[c] as usize;
        lo + self.survival[lo..hi].partition_point(|&a| a > u)
    }

    pub(crate) fn sample(&self, rng: &mut SmallRng) -> u64 {
        self.length_at(dist::uniform_open01(rng))
    }

    /// ℓ = max{ j : A(j) > u } for `u ∈ (0, 1)`.
    fn length_at(&self, u: f64) -> u64 {
        let pp = self.partition_point(u);
        if pp < self.survival.len() {
            // survival[0] = survival[1] = 1 > u, so pp ≥ 2 and ℓ ≥ 1.
            return (pp - 1) as u64;
        }
        // u fell below the whole cached table. If the table covers the
        // full support this simply means ℓ = jmax; a truncated table
        // (probability ≈ e⁻⁵⁰) extends the product on the fly.
        let mut j = (self.survival.len() - 1) as u64;
        let mut a = *self.survival.last().expect("table is non-empty");
        let nf = self.n as f64;
        let denom = nf * (nf - 1.0);
        while j < self.jmax {
            let jf = j as f64;
            a *= (nf - 2.0 * jf) * (nf - 1.0 - 2.0 * jf) / denom;
            if a <= u {
                break;
            }
            j += 1;
        }
        j
    }
}

/// Reusable per-epoch buffers: the epoch loop allocates nothing in steady
/// state (all vectors are `clear()`ed and refilled), which matters when a
/// run at n = 10⁶ executes tens of thousands of epochs.
struct Scratch<Q> {
    /// Snapshot of the configuration: (state, count) groups.
    snap: Vec<(Q, u64)>,
    /// Counts of `snap`, split out for slice-shaped samplers.
    counts: Vec<u64>,
    /// `counts` minus the drawn starters (source of the reactor split).
    rem: Vec<u64>,
    /// Starter states drawn this epoch, per group.
    starters: Vec<u64>,
    /// Reactor states drawn this epoch, per group.
    reactors: Vec<u64>,
    /// Reactors not yet matched to a starter group.
    reactors_left: Vec<u64>,
    /// Per-starter-group split of its matched reactors.
    split: Vec<u64>,
    /// Untouched agents drawn by the collision interaction, per group.
    fresh_drawn: Vec<u64>,
    /// Post-interaction pool of the agents touched this epoch.
    updated: Vec<(Q, u64)>,
    /// Final per-snapshot-state counts of the commit writeback.
    final_counts: Vec<u64>,
    /// Updated-pool states absent from the snapshot (new states).
    extras: Vec<(Q, u64)>,
    /// Outcome classes of the bulk group being applied.
    classes: Vec<OutcomeClass<Q>>,
    /// This epoch's interactions whose omissive split is still undrawn,
    /// keyed by their omissive share.
    undrawn: Vec<(f64, u64)>,
}

impl<Q> Scratch<Q> {
    fn new() -> Self {
        Scratch {
            snap: Vec::new(),
            counts: Vec::new(),
            rem: Vec::new(),
            starters: Vec::new(),
            reactors: Vec::new(),
            reactors_left: Vec::new(),
            split: Vec::new(),
            fresh_drawn: Vec::new(),
            updated: Vec::new(),
            final_counts: Vec::new(),
            extras: Vec::new(),
            classes: Vec::new(),
            undrawn: Vec::new(),
        }
    }
}

/// Drives `budget` interactions epoch-by-epoch.
///
/// `fault_mix` is the fixed i.i.d. per-interaction fault distribution
/// (weights summing to 1, fault-free entry included); `outcome_of`
/// computes one interaction's outcome; `boundary` is checked after every
/// epoch and ends the run early when it returns `true`. Returns whether
/// `boundary` fired. The epoch in flight when the budget runs out is
/// truncated *exactly* at the budget: conditioned on the prefix length,
/// the first `m ≤ ℓ` clean interactions keep the uniform-distinct law, so
/// applying only those is still exact.
///
/// The omissive split of the committed epochs' mixed outcome classes is
/// drawn when the driver returns, on every path: a sum of independent
/// Binomial(kᵢ, p) draws is Binomial(Σkᵢ, p), so one draw per distinct
/// omissive share `p` makes `stats.omissive_steps` exact in law.
#[allow(clippy::too_many_arguments)] // monomorphized per runner; the args are the runner's fields
pub(crate) fn run_epochs_driver<C, F, O, B>(
    config: &mut C,
    rng: &mut SmallRng,
    stats: &mut RunStats,
    next_index: &mut u64,
    budget: u64,
    fault_mix: &[(F, f64)],
    mut outcome_of: O,
    is_omissive: impl Fn(&F) -> bool,
    mut boundary: B,
) -> Result<bool, EngineError>
where
    C: EpochBackend,
    F: Copy,
    O: FnMut(&C::State, &C::State, F) -> Result<(C::State, C::State), EngineError>,
    B: FnMut(&C) -> bool,
{
    debug_assert!(!fault_mix.is_empty(), "fault mix includes the None entry");
    let n = config.len() as u64;
    let lengths = EpochLengths::new(n);
    // One alias table over the (run-constant) fault mix serves every
    // collision draw of the run: built once, O(1) per draw.
    let fault_alias = if fault_mix.len() > 1 {
        let weights: Vec<f64> = fault_mix.iter().map(|&(_, w)| w).collect();
        Some(AliasTable::new(&weights).expect("fault mix weights are positive and finite"))
    } else {
        None
    };
    let mut scratch = Scratch::new();
    let mut undrawn = Vec::new();
    let mut remaining = budget;
    let result = 'run: {
        while remaining > 0 {
            let ell = lengths.sample(rng);
            let clean = ell.min(remaining);
            // The closing collision is interaction ℓ+1 of the epoch; it
            // only runs if the budget still covers it.
            let with_collision = remaining > ell;
            if let Err(e) = run_one_epoch(
                config,
                rng,
                stats,
                &mut undrawn,
                fault_mix,
                fault_alias.as_ref(),
                &mut outcome_of,
                &is_omissive,
                clean,
                with_collision,
                n,
                &mut scratch,
            ) {
                break 'run Err(e);
            }
            let advanced = clean + u64::from(with_collision);
            *next_index += advanced;
            remaining -= advanced;
            if boundary(config) {
                break 'run Ok(true);
            }
        }
        Ok(false)
    };
    for (share, k) in undrawn {
        stats.omissive_steps += dist::binomial(k, share, rng);
    }
    result
}

/// Executes one epoch: `clean` collision-free interactions in bulk, plus
/// the closing collision interaction when `with_collision`.
///
/// On error nothing is committed: the configuration, stats and
/// `undrawn` tally stay at the previous epoch boundary.
#[allow(clippy::too_many_arguments)]
fn run_one_epoch<C, F, O>(
    config: &mut C,
    rng: &mut SmallRng,
    stats: &mut RunStats,
    undrawn: &mut Vec<(f64, u64)>,
    fault_mix: &[(F, f64)],
    fault_alias: Option<&AliasTable>,
    outcome_of: &mut O,
    is_omissive: &impl Fn(&F) -> bool,
    clean: u64,
    with_collision: bool,
    n: u64,
    sc: &mut Scratch<C::State>,
) -> Result<(), EngineError>
where
    C: EpochBackend,
    F: Copy,
    O: FnMut(&C::State, &C::State, F) -> Result<(C::State, C::State), EngineError>,
{
    debug_assert!(clean >= 1 && 2 * clean <= n);
    sc.snap.clear();
    config.state_counts_into(&mut sc.snap);
    sc.counts.clear();
    sc.counts.extend(sc.snap.iter().map(|&(_, c)| c));
    // Starter states: a multivariate hypergeometric split (`clean` of the
    // n agents); reactor states: a second split of the remainder.
    mvhg_into(&sc.counts, n, clean, &mut sc.starters, rng);
    sc.rem.clear();
    sc.rem
        .extend(sc.counts.iter().zip(&sc.starters).map(|(&c, &s)| c - s));
    mvhg_into(&sc.rem, n - clean, clean, &mut sc.reactors, rng);

    // Uniform matching between starter and reactor slots: for each
    // starter group in turn, its partners are a hypergeometric split of
    // the reactors not yet matched. Every (starter-state, reactor-state)
    // pair group is then split across its outcome classes and applied
    // once per class.
    let mut delta = RunStats::default();
    sc.reactors_left.clone_from(&sc.reactors);
    sc.updated.clear();
    sc.undrawn.clear();
    let mut unmatched = clean;
    for (i, &a) in sc.starters.iter().enumerate() {
        if a == 0 {
            continue;
        }
        mvhg_into(&sc.reactors_left, unmatched, a, &mut sc.split, rng);
        for (j, &k) in sc.split.iter().enumerate() {
            if k == 0 {
                continue;
            }
            sc.reactors_left[j] -= k;
            apply_group(
                &sc.snap[i].0,
                &sc.snap[j].0,
                k,
                fault_mix,
                outcome_of,
                is_omissive,
                &mut sc.classes,
                &mut sc.updated,
                &mut sc.undrawn,
                &mut delta,
                rng,
            )?;
        }
        unmatched -= a;
    }

    sc.fresh_drawn.clear();
    sc.fresh_drawn.resize(sc.snap.len(), 0);
    if with_collision {
        // The closing interaction collides: at least one endpoint is
        // among the 2ℓ agents already touched this epoch. Conditioned on
        // colliding, the starter is one of them with probability
        // (2ℓ/n) / (1 − A-ratio); otherwise the starter is fresh and the
        // reactor must be touched.
        let ell = clean;
        let two_ell = 2 * ell;
        let nf = n as f64;
        let t1 = nf - 2.0 * ell as f64;
        let t2 = nf - 1.0 - 2.0 * ell as f64;
        let survive = if t1 <= 0.0 || t2 <= 0.0 {
            0.0
        } else {
            t1 * t2 / (nf * (nf - 1.0))
        };
        let p_starter_touched = (2.0 * ell as f64 / nf) / (1.0 - survive);
        let fault = match fault_alias {
            Some(table) => fault_mix[table.sample(rng)].0,
            None => fault_mix[0].0,
        };
        let mut updated_left = two_ell;
        let (qs, qr);
        if dist::uniform_f64(rng) < p_starter_touched {
            // Starter uniform among the touched agents (their current
            // states are exactly the `updated` pool).
            let si = pool_take(&mut sc.updated, updated_left, rng);
            updated_left -= 1;
            qs = sc.updated[si].0.clone();
            // Reactor: one of the other touched agents with probability
            // (2ℓ−1)/(n−1), else a fresh one.
            let p_reactor_touched = (two_ell - 1) as f64 / (nf - 1.0);
            if dist::uniform_f64(rng) < p_reactor_touched {
                let ri = pool_take(&mut sc.updated, updated_left, rng);
                qr = sc.updated[ri].0.clone();
            } else {
                let ri = fresh_take(sc, n - two_ell, rng);
                qr = sc.snap[ri].0.clone();
            }
        } else {
            let si = fresh_take(sc, n - two_ell, rng);
            qs = sc.snap[si].0.clone();
            let ri = pool_take(&mut sc.updated, updated_left, rng);
            qr = sc.updated[ri].0.clone();
        }
        apply_group(
            &qs,
            &qr,
            1,
            &[(fault, 1.0)],
            outcome_of,
            is_omissive,
            &mut sc.classes,
            &mut sc.updated,
            &mut sc.undrawn,
            &mut delta,
            rng,
        )?;
    }

    // Commit: each snapshot state keeps its untouched agents, plus
    // whatever the updated pool pours back into it; pool states outside
    // the snapshot are new. One aligned writeback, no keyed lookups.
    sc.final_counts.clear();
    for (i, &c) in sc.counts.iter().enumerate() {
        let drawn = sc.starters[i] + sc.reactors[i] + sc.fresh_drawn[i];
        debug_assert!(drawn <= c);
        sc.final_counts.push(c - drawn);
    }
    sc.extras.clear();
    for (q, c) in sc.updated.drain(..) {
        if c == 0 {
            continue;
        }
        match sc.snap.iter().position(|(s, _)| *s == q) {
            Some(i) => sc.final_counts[i] += c,
            None => sc.extras.push((q, c)),
        }
    }
    config.commit_state_counts(&sc.final_counts, &sc.extras);
    stats.merge(&delta);
    for (share, k) in sc.undrawn.drain(..) {
        pool_add(undrawn, share, k);
    }
    Ok(())
}

/// Sequential multivariate hypergeometric split: draws `m` of the `total`
/// items described by `src` counts, without replacement, into `out`.
fn mvhg_into(src: &[u64], total: u64, m: u64, out: &mut Vec<u64>, rng: &mut SmallRng) {
    debug_assert_eq!(src.iter().sum::<u64>(), total);
    debug_assert!(m <= total);
    out.clear();
    out.resize(src.len(), 0);
    let mut left_total = total;
    let mut left_draw = m;
    for (slot, &c) in out.iter_mut().zip(src) {
        if left_draw == 0 {
            break;
        }
        let k = if c == 0 {
            0
        } else if c == left_total {
            // Only this group remains: take the rest without a draw.
            left_draw
        } else {
            dist::hypergeometric(c, left_total - c, left_draw, rng)
        };
        *slot = k;
        left_total -= c;
        left_draw -= k;
    }
}

/// One outcome class of a bulk group: the faults of the mix whose
/// outcomes agree, with their summed weight and its omissive part.
struct OutcomeClass<Q> {
    outcome: Result<(Q, Q), EngineError>,
    weight: f64,
    omissive_weight: f64,
}

/// Splits a bulk (starter-state, reactor-state) group of `k` interactions
/// across its outcome classes (sequential conditional binomials — exactly
/// a multinomial split; a one-class group needs no draw) and applies each
/// drawn class's outcome once.
///
/// Faults with equal `Ok` outcomes share a class; an `Err` outcome is a
/// class of its own and fails the epoch only if that class is drawn. A
/// class mixing omissive and fault-free faults adds its count to
/// `undrawn`, keyed by its omissive share, for the driver to resolve.
#[allow(clippy::too_many_arguments)]
fn apply_group<Q: State, F: Copy, O>(
    s: &Q,
    r: &Q,
    k: u64,
    fault_mix: &[(F, f64)],
    outcome_of: &mut O,
    is_omissive: &impl Fn(&F) -> bool,
    classes: &mut Vec<OutcomeClass<Q>>,
    updated: &mut Vec<(Q, u64)>,
    undrawn: &mut Vec<(f64, u64)>,
    delta: &mut RunStats,
    rng: &mut SmallRng,
) -> Result<(), EngineError>
where
    O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
{
    classes.clear();
    for &(fault, w) in fault_mix {
        let outcome = outcome_of(s, r, fault);
        let omissive_weight = if is_omissive(&fault) { w } else { 0.0 };
        let same = match &outcome {
            Ok(out) => classes
                .iter_mut()
                .find(|c| c.outcome.as_ref().is_ok_and(|o| o == out)),
            Err(_) => None,
        };
        if let Some(class) = same {
            class.weight += w;
            class.omissive_weight += omissive_weight;
        } else {
            classes.push(OutcomeClass {
                outcome,
                weight: w,
                omissive_weight,
            });
        }
    }
    let last = classes.len() - 1;
    let mut left = k;
    let mut wleft: f64 = classes.iter().map(|c| c.weight).sum();
    for (t, class) in classes.drain(..).enumerate() {
        if left == 0 {
            break;
        }
        let kt = if t == last || class.weight >= wleft {
            left
        } else {
            dist::binomial(left, (class.weight / wleft).clamp(0.0, 1.0), rng)
        };
        left -= kt;
        wleft -= class.weight;
        if kt == 0 {
            continue;
        }
        let (s2, r2) = class.outcome?;
        let omissive = if class.omissive_weight == 0.0 {
            false
        } else if class.omissive_weight == class.weight {
            true
        } else {
            pool_add(undrawn, class.omissive_weight / class.weight, kt);
            false
        };
        let changed = s2 != *s || r2 != *r;
        delta.record_bulk(omissive, changed, kt);
        pool_add(updated, s2, kt);
        pool_add(updated, r2, kt);
    }
    Ok(())
}

/// Adds `k` copies of `q` to a small linear-scan pool.
fn pool_add<Q: PartialEq>(pool: &mut Vec<(Q, u64)>, q: Q, k: u64) {
    if let Some(entry) = pool.iter_mut().find(|(p, _)| *p == q) {
        entry.1 += k;
    } else {
        pool.push((q, k));
    }
}

/// Draws one agent uniformly from a weighted pool of `total` agents and
/// removes it, returning its group index (the entry stays in place so the
/// caller can read its state).
fn pool_take<Q>(pool: &mut [(Q, u64)], total: u64, rng: &mut SmallRng) -> usize {
    debug_assert!(total > 0);
    debug_assert_eq!(pool.iter().map(|&(_, c)| c).sum::<u64>(), total);
    let mut k = rng.gen_range(0..total);
    for (i, entry) in pool.iter_mut().enumerate() {
        if k < entry.1 {
            entry.1 -= 1;
            return i;
        }
        k -= entry.1;
    }
    unreachable!("pool total matches its entries")
}

/// Draws one *untouched* agent uniformly (weights: snapshot counts minus
/// everything drawn this epoch), marks it drawn, and returns its group
/// index.
fn fresh_take<Q>(sc: &mut Scratch<Q>, total: u64, rng: &mut SmallRng) -> usize {
    debug_assert!(total > 0);
    let mut k = rng.gen_range(0..total);
    for (i, &c) in sc.counts.iter().enumerate() {
        let avail = c - sc.starters[i] - sc.reactors[i] - sc.fresh_drawn[i];
        if k < avail {
            sc.fresh_drawn[i] += 1;
            return i;
        }
        k -= avail;
    }
    unreachable!("fresh total matches availability")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_population::CountConfiguration;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn epidemic(s: &bool, r: &bool) -> Result<(bool, bool), EngineError> {
        Ok((*s, *s || *r))
    }

    #[test]
    fn survival_table_matches_direct_product() {
        let lengths = EpochLengths::new(10);
        assert_eq!(lengths.jmax, 5);
        assert_eq!(lengths.survival.len(), 6); // full support cached
        let mut a = 1.0f64;
        for (j, &cached) in lengths.survival.iter().enumerate() {
            assert!((cached - a).abs() < 1e-12, "A({j}) = {a}, cached {cached}");
            let jf = j as f64;
            a *= (10.0 - 2.0 * jf) * (9.0 - 2.0 * jf) / 90.0;
        }
        // A(1) = 1: the first interaction never collides, so ℓ ≥ 1.
        assert_eq!(lengths.survival[1], 1.0);
    }

    #[test]
    fn epoch_lengths_have_the_analytic_mean() {
        let lengths = EpochLengths::new(100);
        // E[ℓ] = Σ_{j≥1} P(ℓ ≥ j) = Σ_{j≥1} A(j).
        let expected: f64 = lengths.survival[1..].iter().sum();
        let mut rng = SmallRng::seed_from_u64(7);
        let m = 20_000u64;
        let mut sum = 0u64;
        for _ in 0..m {
            let l = lengths.sample(&mut rng);
            assert!((1..=50).contains(&l));
            sum += l;
        }
        let mean = sum as f64 / m as f64;
        assert!(
            (mean - expected).abs() < 0.2,
            "empirical mean {mean} vs analytic {expected}"
        );
    }

    #[test]
    fn tiny_populations_sample_sane_lengths() {
        for n in 2..=5u64 {
            let lengths = EpochLengths::new(n);
            let mut rng = SmallRng::seed_from_u64(n);
            for _ in 0..200 {
                let l = lengths.sample(&mut rng);
                assert!(l >= 1 && l <= n / 2, "ℓ = {l} out of range at n = {n}");
            }
        }
    }

    #[test]
    fn guided_search_matches_the_full_partition_point() {
        let cell = 1.0 / GUIDE_CELLS as f64;
        for n in [2, 3, 4, 5, 10_000, 100_000_000u64] {
            let lengths = EpochLengths::new(n);
            let full = |u: f64| lengths.survival.partition_point(|&a| a > u);
            let mut rng = SmallRng::seed_from_u64(n);
            for _ in 0..1_000_000 {
                let u = dist::uniform_open01(&mut rng);
                assert_eq!(lengths.partition_point(u), full(u), "n = {n}, u = {u}");
            }
            // Cell edges, where an off-by-one in the bounds would show.
            for c in 1..GUIDE_CELLS {
                let edge = c as f64 * cell;
                for u in [edge, edge.next_down(), edge.next_up()] {
                    assert_eq!(lengths.partition_point(u), full(u), "n = {n}, u = {u}");
                }
            }
        }
    }

    #[test]
    fn draws_below_the_truncated_table_extend_the_product() {
        let n = 10_000u64;
        let lengths = EpochLengths::new(n);
        let last = *lengths.survival.last().unwrap();
        assert!(
            (lengths.survival.len() as u64) <= lengths.jmax,
            "table is truncated"
        );
        let nf = n as f64;
        let direct = |u: f64| {
            let (mut j, mut a) = (0u64, 1.0f64);
            while j < n / 2 {
                let jf = j as f64;
                let next = a * ((nf - 2.0 * jf) * (nf - 1.0 - 2.0 * jf) / (nf * (nf - 1.0)));
                if next <= u {
                    break;
                }
                (j, a) = (j + 1, next);
            }
            j
        };
        for u in [last, last * 0.5, last * 1e-6, f64::MIN_POSITIVE] {
            assert_eq!(lengths.length_at(u), direct(u), "u = {u}");
        }
    }

    #[test]
    fn count_backend_exposes_epoch_bulk_ops() {
        let mut config = CountConfiguration::from_groups([('a', 3usize), ('b', 2)]);
        let mut groups = Vec::new();
        config.state_counts_into(&mut groups);
        assert_eq!(groups, vec![('a', 3), ('b', 2)]);
        config.add_agents('c', 4);
        config.remove_agents(&'a', 3).unwrap();
        assert_eq!(config.len(), 6);
        assert_eq!(config.count_state(&'a'), 0);
        assert_eq!(config.count_state(&'c'), 4);
        // Bulk removal past the multiplicity is a typed population error.
        assert!(matches!(
            config.remove_agents(&'b', 5),
            Err(EngineError::Population(_))
        ));
        // The aligned commit writeback: current live order is b, c.
        let mut groups = Vec::new();
        config.state_counts_into(&mut groups);
        assert_eq!(groups, vec![('b', 2), ('c', 4)]);
        config.commit_state_counts(&[1, 0], &[('d', 5)]);
        assert_eq!(config.len(), 6);
        assert_eq!(config.count_state(&'b'), 1);
        assert_eq!(config.count_state(&'c'), 0);
        assert_eq!(config.count_state(&'d'), 5);
    }

    #[test]
    fn driver_preserves_population_and_counts_steps_exactly() {
        let mut config = CountConfiguration::from_groups([(true, 10usize), (false, 990)]);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut stats = RunStats::default();
        let mut next = 0u64;
        let budget = 4_321u64;
        let fired = run_epochs_driver(
            &mut config,
            &mut rng,
            &mut stats,
            &mut next,
            budget,
            &[((), 1.0)],
            |s, r, ()| epidemic(s, r),
            |()| false,
            |_| false,
        )
        .unwrap();
        assert!(!fired);
        assert_eq!(next, budget, "budget truncation lands exactly");
        assert_eq!(stats.steps, budget);
        assert_eq!(config.len(), 1000, "epochs preserve the population size");
        assert!(config.count_state(&true) >= 10, "epidemic is monotone");
    }

    #[test]
    fn driver_boundary_stops_at_epoch_granularity() {
        let n = 10_000usize;
        let mut config = CountConfiguration::from_groups([(true, 1usize), (false, n - 1)]);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut stats = RunStats::default();
        let mut next = 0u64;
        let fired = run_epochs_driver(
            &mut config,
            &mut rng,
            &mut stats,
            &mut next,
            50_000_000,
            &[((), 1.0)],
            |s, r, ()| epidemic(s, r),
            |()| false,
            |c: &CountConfiguration<bool>| c.count_state(&true) == n,
        )
        .unwrap();
        assert!(fired, "epidemic converges well within the budget");
        assert_eq!(config.count_state(&true), n);
        assert!(next < 50_000_000);
        assert_eq!(stats.steps, next);
    }

    #[test]
    fn fault_mix_thins_binomially() {
        // F = bool, true ⇒ omissive no-op. At rate 0.3 the omissive
        // fraction of a long run concentrates near 0.3.
        let mut config = CountConfiguration::from_groups([(true, 100usize), (false, 9900)]);
        let mut rng = SmallRng::seed_from_u64(23);
        let mut stats = RunStats::default();
        let mut next = 0u64;
        run_epochs_driver(
            &mut config,
            &mut rng,
            &mut stats,
            &mut next,
            200_000,
            &[(false, 0.7), (true, 0.3)],
            |s, r, omit| if omit { Ok((*s, *r)) } else { epidemic(s, r) },
            |&f| f,
            |_| false,
        )
        .unwrap();
        assert_eq!(config.len(), 10_000);
        let frac = stats.omission_fraction();
        assert!(
            (frac - 0.3).abs() < 0.01,
            "omissive fraction {frac} far from the 0.3 rate"
        );
        // Omissions slow the epidemic down but don't stop it.
        assert!(config.count_state(&true) > 100);
    }

    #[test]
    fn epochs_work_at_the_smallest_population() {
        // n = 2: every epoch is ℓ = 1 clean interaction + 1 collision
        // that re-draws both touched agents (the fresh pool is empty).
        let mut config = CountConfiguration::from_groups([(true, 1usize), (false, 1)]);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut stats = RunStats::default();
        let mut next = 0u64;
        run_epochs_driver(
            &mut config,
            &mut rng,
            &mut stats,
            &mut next,
            100,
            &[((), 1.0)],
            |s, r, ()| epidemic(s, r),
            |()| false,
            |_| false,
        )
        .unwrap();
        assert_eq!(next, 100);
        assert_eq!(config.len(), 2);
        assert_eq!(config.count_state(&true), 2, "n = 2 epidemic saturates");
    }

    #[test]
    fn odd_populations_exercise_the_fresh_pool_edge() {
        for seed in 0..10u64 {
            let mut config = CountConfiguration::from_groups([(true, 1usize), (false, 4)]);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut stats = RunStats::default();
            let mut next = 0u64;
            run_epochs_driver(
                &mut config,
                &mut rng,
                &mut stats,
                &mut next,
                500,
                &[((), 1.0)],
                |s, r, ()| epidemic(s, r),
                |()| false,
                |_| false,
            )
            .unwrap();
            assert_eq!(config.len(), 5);
            assert_eq!(config.count_state(&true), 5);
        }
    }
}
