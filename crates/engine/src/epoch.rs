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
//!    by a chain of conditional binomial draws (none for a one-class
//!    group), and each class's outcome applied *once* with a bulk count
//!    adjustment,
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
//! An epoch costs its O(d²) splits even when nothing in it changes a
//! state. So when state changes are sparse the driver takes an exact
//! *event step* instead (Gillespie's stochastic-simulation step on the
//! scheduler's i.i.d. interactions). An ordered state pair is *inert*
//! when every fault of the mix maps it to itself; with `p_act` the
//! probability that an interaction draws a non-inert pair, the number of
//! inert interactions before the next non-inert one is
//! Geometric(`p_act`). An event step draws that stretch in one go,
//! records it as no-ops, and then applies one non-inert interaction (pair
//! drawn by weight, fault from the mix). It is chosen whenever
//! `p_act · E[ℓ]` falls below a measured constant; a silent
//! configuration (`p_act = 0`) advances `⌈E[ℓ]⌉` no-ops per boundary.
//! Both step kinds read one table of per-pair outcome classes, built
//! lazily for each live state list.
//!
//! The runner surface is `run(`[`Epochs`](crate::Epochs)`, stop)`,
//! available only on backends implementing [`EpochBackend`]. The
//! interleaved path remains the bit-exact reference; this path
//! reproduces its law *distributionally* (certified by the
//! `backend_equivalence` distribution-agreement contracts).

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
/// `⌊n/2⌋` (the agents run out). The table, built once per n per thread
/// (see [`EpochLengths::shared`]), is truncated at `5√n + 16` entries,
/// where `A ≈ e⁻⁵⁰`; the astronomically rare draw below the truncation
/// extends the product on the fly.
///
/// The inversion searches only inside `u`'s cell of a guide table over
/// `(0, 1)`: P(ℓ ≥ j) ≈ e^(−2j²/n) spreads the draws over thousands of
/// entries (at n = 10⁸, half of them land beyond j ≈ 5 900), so a plain
/// binary search would cold-probe the table on every draw.
pub(crate) struct EpochLengths {
    n: u64,
    jmax: u64,
    survival: Vec<f64>,
    /// The mean epoch length `E[ℓ] = Σ_{j≥1} A(j)` (the truncated tail
    /// is below e⁻⁵⁰).
    mean: f64,
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
        let mut mean = 0.0;
        survival.push(a);
        // `extend` rather than a `push` loop: with the running mean in a
        // push loop the build took twice as long.
        survival.extend((0..jcap).map(|j| {
            let jf = j as f64;
            a *= (nf - 2.0 * jf) * (nf - 1.0 - 2.0 * jf) / denom;
            mean += a;
            a
        }));
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
            mean,
            guide,
        }
    }

    /// The table for `n`, kept per thread until `n` changes: a per-call
    /// table was rebuilt for every seed, and one table per process made
    /// two cores share its reads, which ran slower (EXPERIMENTS.md E17).
    pub(crate) fn shared(n: u64) -> std::rc::Rc<Self> {
        use std::{cell::RefCell, rc::Rc};
        thread_local! {
            static SLOT: RefCell<Option<Rc<EpochLengths>>> = const { RefCell::new(None) };
        }
        SLOT.with_borrow_mut(|slot| match slot {
            Some(lengths) if lengths.n == n => Rc::clone(lengths),
            _ => Rc::clone(slot.insert(Rc::new(EpochLengths::new(n)))),
        })
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

/// Event steps replace epochs while `p_act · E[ℓ]`, the expected number of
/// non-inert interactions in a mean-length epoch, is below this: near the
/// ratio of an epoch's cost to an event step's, where the two break even.
/// Measured on the `epidemic-epoch` perfbench workload (n = 10⁸, T1 at
/// rate 0.1, 2-vCPU Xeon), timing whole driver iterations (snapshot,
/// step, commit, boundary predicate) with the switch forced each way: an
/// epoch costs 840–960 ns at `p_act · E[ℓ]` ∈ [2.8, 11) and an event step
/// 260–310 ns, ratios 3.1–3.5. End to end the optimum is flat and sits
/// higher: against 6, a threshold of 3.5 lost 5 of 6 alternating pairs
/// (perfbench seed 11, 44 seeds per run; interactions per second medians
/// 11.8 against 13.0·10⁹), so 6 stays.
const EVENT_STEP_BELOW: f64 = 6.0;

/// Reusable per-step buffers: the driver allocates nothing in steady
/// state (all vectors are `clear()`ed and refilled), which matters when a
/// run at n = 10⁶ executes tens of thousands of epochs.
struct Scratch<Q> {
    /// Snapshot of the configuration: (state, count) groups.
    snap: Vec<(Q, u64)>,
    /// Counts of `snap`, split out for slice-shaped samplers.
    counts: Vec<u64>,
    /// `counts` minus the drawn starters (source of the reactor split).
    rem: Vec<u64>,
    /// Starter states drawn this step, per group.
    starters: Vec<u64>,
    /// Reactor states drawn this step, per group.
    reactors: Vec<u64>,
    /// Reactors not yet matched to a starter group.
    reactors_left: Vec<u64>,
    /// Per-starter-group split of its matched reactors.
    split: Vec<u64>,
    /// Untouched agents drawn by the collision interaction, per group.
    fresh_drawn: Vec<u64>,
    /// Post-interaction pool of the agents touched this step.
    updated: Vec<(Q, u64)>,
    /// Final per-snapshot-state counts of the commit writeback.
    final_counts: Vec<u64>,
    /// Updated-pool states absent from the snapshot (new states).
    extras: Vec<(Q, u64)>,
    /// Outcome classes of a single-fault interaction (the closing
    /// collision or an event).
    classes: Vec<OutcomeClass<Q>>,
    /// Outcome classes of every ordered pair of the snapshot's states.
    table: ClassTable<Q>,
    /// The snapshot's non-inert ordered pairs `(i, j, weight)`.
    active: Vec<(usize, usize, f64)>,
    /// This step's interactions whose omissive split is still undrawn,
    /// keyed by their omissive share.
    undrawn: Vec<(f64, u64)>,
}

impl<Q: State> Scratch<Q> {
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
            table: ClassTable {
                states: Vec::new(),
                cells: Vec::new(),
                classes: Vec::new(),
            },
            active: Vec::new(),
            undrawn: Vec::new(),
        }
    }

    /// Snapshots the configuration's live groups and re-keys the class
    /// table to their states.
    fn snapshot<C: EpochBackend<State = Q>>(&mut self, config: &C) {
        self.snap.clear();
        config.state_counts_into(&mut self.snap);
        self.counts.clear();
        self.counts.extend(self.snap.iter().map(|&(_, c)| c));
        self.table.sync(&self.snap);
    }
}

/// The run-constant law of one driver call: the i.i.d. fault mix and how
/// one interaction resolves under a fault.
struct Law<'m, F, O, M> {
    fault_mix: &'m [(F, f64)],
    /// One alias table over the mix serves every single-fault draw of the
    /// call: built once, O(1) per draw.
    fault_alias: Option<AliasTable>,
    outcome_of: O,
    is_omissive: M,
    /// Total weight of the mix, summed in mix order: the weight of an
    /// inert pair's one class.
    weight: f64,
    /// Omissive weight of the mix, summed likewise.
    omissive_weight: f64,
}

impl<'m, F: Copy, O, M: Fn(&F) -> bool> Law<'m, F, O, M> {
    fn new(fault_mix: &'m [(F, f64)], outcome_of: O, is_omissive: M) -> Self {
        debug_assert!(!fault_mix.is_empty(), "fault mix includes the None entry");
        let fault_alias = (fault_mix.len() > 1).then(|| {
            let weights: Vec<f64> = fault_mix.iter().map(|&(_, w)| w).collect();
            AliasTable::new(&weights).expect("fault mix weights are positive and finite")
        });
        // The same sums, in the same order, as `classes_into` forms for a
        // class holding the whole mix, so both key one omission tally.
        let (mut weight, mut omissive_weight) = (0.0, 0.0);
        for (fault, w) in fault_mix {
            weight += w;
            omissive_weight += if is_omissive(fault) { *w } else { 0.0 };
        }
        Law {
            fault_mix,
            fault_alias,
            outcome_of,
            is_omissive,
            weight,
            omissive_weight,
        }
    }

    fn draw_fault(&self, rng: &mut SmallRng) -> F {
        match &self.fault_alias {
            Some(table) => self.fault_mix[table.sample(rng)].0,
            None => self.fault_mix[0].0,
        }
    }

    /// Appends the outcome classes of the pair `(s, r)` under `mix` to
    /// `out`. Faults with equal `Ok` outcomes share a class; an `Err`
    /// outcome is a class of its own.
    fn classes_into<Q: State>(
        &mut self,
        s: &Q,
        r: &Q,
        mix: &[(F, f64)],
        out: &mut Vec<OutcomeClass<Q>>,
    ) where
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
    {
        let first = out.len();
        for &(fault, w) in mix {
            let outcome = (self.outcome_of)(s, r, fault);
            let omissive_weight = if (self.is_omissive)(&fault) { w } else { 0.0 };
            let same = match &outcome {
                Ok(o) => out[first..]
                    .iter_mut()
                    .find(|c| c.outcome.as_ref().is_ok_and(|x| x == o)),
                Err(_) => None,
            };
            if let Some(class) = same {
                class.weight += w;
                class.omissive_weight += omissive_weight;
            } else {
                out.push(OutcomeClass {
                    outcome,
                    weight: w,
                    omissive_weight,
                });
            }
        }
    }
}

/// The outcome classes of every ordered pair over one live state list,
/// each pair's filled on first read. Bulk groups, the inert test and the
/// event draw all read it, so a pair's faults are merged once per state
/// list rather than once per epoch.
struct ClassTable<Q> {
    states: Vec<Q>,
    /// Per ordered pair, row-major over `states`, once filled.
    cells: Vec<Option<Cell>>,
    classes: Vec<OutcomeClass<Q>>,
}

/// One filled [`ClassTable`] entry.
#[derive(Clone, Copy)]
struct Cell {
    /// The pair's classes are `classes[start..end]`.
    start: usize,
    end: usize,
    /// Every fault of the mix maps the pair to itself: one class,
    /// carrying the whole mix, whose outcome is the identity.
    inert: bool,
}

impl<Q: State> ClassTable<Q> {
    /// Re-keys the table to the states of `snap` if they changed.
    fn sync(&mut self, snap: &[(Q, u64)]) {
        if self.states.len() == snap.len() && self.states.iter().zip(snap).all(|(a, (b, _))| a == b)
        {
            return;
        }
        self.states.clear();
        self.states.extend(snap.iter().map(|(q, _)| q.clone()));
        self.cells.clear();
        self.cells.resize(snap.len() * snap.len(), None);
        self.classes.clear();
    }

    /// The entry of the pair `(states[i], states[j])`, filled on first
    /// read from the law's mix.
    fn cell<F: Copy, O, M>(&mut self, i: usize, j: usize, law: &mut Law<F, O, M>) -> Cell
    where
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
        M: Fn(&F) -> bool,
    {
        let index = i * self.states.len() + j;
        if let Some(cell) = self.cells[index] {
            return cell;
        }
        let start = self.classes.len();
        let (s, r) = (&self.states[i], &self.states[j]);
        let mix = law.fault_mix;
        law.classes_into(s, r, mix, &mut self.classes);
        let inert = matches!(
            &self.classes[start..],
            [class] if class.outcome.as_ref().is_ok_and(|(s2, r2)| s2 == s && r2 == r)
        );
        let cell = Cell {
            start,
            end: self.classes.len(),
            inert,
        };
        self.cells[index] = Some(cell);
        cell
    }

    /// Refills `active` with the non-inert ordered pairs of positive
    /// weight `c_a·(c_b − [a=b])`, `counts` indexed like the table's
    /// states, and returns their total weight.
    fn active_pairs<F: Copy, O, M>(
        &mut self,
        counts: &[u64],
        law: &mut Law<F, O, M>,
        active: &mut Vec<(usize, usize, f64)>,
    ) -> f64
    where
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
        M: Fn(&F) -> bool,
    {
        active.clear();
        let mut total = 0.0;
        for (i, &ci) in counts.iter().enumerate() {
            for (j, &cj) in counts.iter().enumerate() {
                let w = ci as f64 * (cj - u64::from(i == j)) as f64;
                if w > 0.0 && !self.cell(i, j, law).inert {
                    active.push((i, j, w));
                    total += w;
                }
            }
        }
        total
    }
}

/// Drives `budget` interactions in epochs and event steps.
///
/// `fault_mix` is the fixed i.i.d. per-interaction fault distribution
/// (weights summing to 1, fault-free entry included); `outcome_of`
/// computes one interaction's outcome; `boundary` is checked after every
/// epoch, event step and silent stride, and ends the run early when it
/// returns `true`. Returns whether `boundary` fired. The step in flight
/// when the budget runs out is truncated *exactly* at the budget:
/// conditioned on the prefix length, the first `m ≤ ℓ` clean interactions
/// of an epoch keep the uniform-distinct law, and an inert stretch is
/// memoryless, so applying only those is still exact.
///
/// The omissive split of the committed steps' mixed outcome classes and
/// inert stretches is drawn when the driver returns, on every path: a sum
/// of independent Binomial(kᵢ, p) draws is Binomial(Σkᵢ, p), so one draw
/// per distinct omissive share `p` makes `stats.omissive_steps` exact in
/// law.
#[allow(clippy::too_many_arguments)] // monomorphized per runner; the args are the runner's fields
pub(crate) fn run_epochs_driver<C, F, O, B>(
    config: &mut C,
    rng: &mut SmallRng,
    stats: &mut RunStats,
    next_index: &mut u64,
    budget: u64,
    fault_mix: &[(F, f64)],
    outcome_of: O,
    is_omissive: impl Fn(&F) -> bool,
    boundary: B,
) -> Result<bool, EngineError>
where
    C: EpochBackend,
    F: Copy,
    O: FnMut(&C::State, &C::State, F) -> Result<(C::State, C::State), EngineError>,
    B: FnMut(&C) -> bool,
{
    let law = Law::new(fault_mix, outcome_of, is_omissive);
    drive(
        config,
        rng,
        stats,
        next_index,
        budget,
        law,
        boundary,
        EVENT_STEP_BELOW,
    )
}

/// [`run_epochs_driver`] with the event-step switch as a parameter: an
/// epoch runs whenever `p_act · E[ℓ] ≥ event_below` (so 0 forces epochs).
#[allow(clippy::too_many_arguments)]
fn drive<C, F, O, M, B>(
    config: &mut C,
    rng: &mut SmallRng,
    stats: &mut RunStats,
    next_index: &mut u64,
    budget: u64,
    mut law: Law<F, O, M>,
    mut boundary: B,
    event_below: f64,
) -> Result<bool, EngineError>
where
    C: EpochBackend,
    F: Copy,
    O: FnMut(&C::State, &C::State, F) -> Result<(C::State, C::State), EngineError>,
    M: Fn(&F) -> bool,
    B: FnMut(&C) -> bool,
{
    let n = config.len() as u64;
    let lengths = EpochLengths::shared(n);
    let nf = n as f64;
    let pairs = nf * (nf - 1.0);
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let silent_stride = lengths.mean.ceil() as u64;
    let mut sc = Scratch::new();
    let mut undrawn = Vec::new();
    let mut remaining = budget;
    let result = 'run: {
        while remaining > 0 {
            sc.snapshot(config);
            let active = sc.table.active_pairs(&sc.counts, &mut law, &mut sc.active);
            let p_act = (active / pairs).min(1.0);
            if p_act * lengths.mean >= event_below {
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
                    &mut law,
                    clean,
                    with_collision,
                    n,
                    &mut sc,
                ) {
                    break 'run Err(e);
                }
                let advanced = clean + u64::from(with_collision);
                *next_index += advanced;
                remaining -= advanced;
            } else {
                // The inert interactions before the next non-inert one:
                // Geometric(p_act) by inversion, ⌊ln U / ln(1 − p_act)⌋,
                // cut at the budget (exact, the stretch is memoryless).
                let inert = if active == 0.0 {
                    silent_stride
                } else {
                    // `as` saturates, so a stretch past u64 is cut too.
                    (dist::uniform_open01(rng).ln() / (-p_act).ln_1p()) as u64
                }
                .min(remaining);
                if inert > 0 {
                    let omissive =
                        tally_omissive(law.omissive_weight, law.weight, inert, &mut undrawn);
                    stats.record_bulk(omissive, false, inert);
                    *next_index += inert;
                    remaining -= inert;
                }
                if active > 0.0 && remaining > 0 {
                    if let Err(e) =
                        run_one_event(config, rng, stats, &mut undrawn, &mut law, active, &mut sc)
                    {
                        break 'run Err(e);
                    }
                    *next_index += 1;
                    remaining -= 1;
                }
            }
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

/// Executes one epoch from the current snapshot: `clean` collision-free
/// interactions in bulk, plus the closing collision interaction when
/// `with_collision`.
///
/// On error nothing is committed: the configuration, stats and
/// `undrawn` tally stay at the previous boundary.
#[allow(clippy::too_many_arguments)]
fn run_one_epoch<C, F, O, M>(
    config: &mut C,
    rng: &mut SmallRng,
    stats: &mut RunStats,
    undrawn: &mut Vec<(f64, u64)>,
    law: &mut Law<F, O, M>,
    clean: u64,
    with_collision: bool,
    n: u64,
    sc: &mut Scratch<C::State>,
) -> Result<(), EngineError>
where
    C: EpochBackend,
    F: Copy,
    O: FnMut(&C::State, &C::State, F) -> Result<(C::State, C::State), EngineError>,
    M: Fn(&F) -> bool,
{
    debug_assert!(clean >= 1 && 2 * clean <= n);
    // Starter states: a multivariate hypergeometric split (`clean` of the
    // n agents); reactor states: a second split of the remainder.
    dist::multivariate_hypergeometric_into(&sc.counts, clean, &mut sc.starters, rng);
    sc.rem.clear();
    sc.rem
        .extend(sc.counts.iter().zip(&sc.starters).map(|(&c, &s)| c - s));
    dist::multivariate_hypergeometric_into(&sc.rem, clean, &mut sc.reactors, rng);

    // Uniform matching between starter and reactor slots: for each
    // starter group in turn, its partners are a hypergeometric split of
    // the reactors not yet matched. Every (starter-state, reactor-state)
    // pair group is then split across its outcome classes and applied
    // once per class.
    let mut delta = RunStats::default();
    sc.reactors_left.clone_from(&sc.reactors);
    sc.updated.clear();
    sc.undrawn.clear();
    for (i, &a) in sc.starters.iter().enumerate() {
        if a == 0 {
            continue;
        }
        dist::multivariate_hypergeometric_into(&sc.reactors_left, a, &mut sc.split, rng);
        for (j, &k) in sc.split.iter().enumerate() {
            if k == 0 {
                continue;
            }
            sc.reactors_left[j] -= k;
            let cell = sc.table.cell(i, j, law);
            apply_group(
                &sc.snap[i].0,
                &sc.snap[j].0,
                k,
                &sc.table.classes[cell.start..cell.end],
                &mut sc.updated,
                &mut sc.undrawn,
                &mut delta,
                rng,
            )?;
        }
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
        let fault = law.draw_fault(rng);
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
        sc.classes.clear();
        law.classes_into(&qs, &qr, &[(fault, 1.0)], &mut sc.classes);
        apply_group(
            &qs,
            &qr,
            1,
            &sc.classes,
            &mut sc.updated,
            &mut sc.undrawn,
            &mut delta,
            rng,
        )?;
    }
    commit(config, stats, undrawn, &delta, sc);
    Ok(())
}

/// Executes one non-inert interaction from the current snapshot: the
/// ordered state pair drawn by weight among `sc.active` (`active` in
/// total), the fault from the mix.
///
/// On error nothing is committed.
fn run_one_event<C, F, O, M>(
    config: &mut C,
    rng: &mut SmallRng,
    stats: &mut RunStats,
    undrawn: &mut Vec<(f64, u64)>,
    law: &mut Law<F, O, M>,
    active: f64,
    sc: &mut Scratch<C::State>,
) -> Result<(), EngineError>
where
    C: EpochBackend,
    F: Copy,
    O: FnMut(&C::State, &C::State, F) -> Result<(C::State, C::State), EngineError>,
    M: Fn(&F) -> bool,
{
    let mut x = dist::uniform_f64(rng) * active;
    let &(i, j, _) = sc
        .active
        .iter()
        .find(|&&(_, _, w)| {
            let hit = x < w;
            x -= w;
            hit
        })
        // Floating-point residue past the total weight.
        .unwrap_or_else(|| sc.active.last().expect("positive weight has a pair"));
    let fault = law.draw_fault(rng);
    let d = sc.snap.len();
    for drawn in [&mut sc.starters, &mut sc.reactors, &mut sc.fresh_drawn] {
        drawn.clear();
        drawn.resize(d, 0);
    }
    sc.starters[i] = 1;
    sc.reactors[j] = 1;
    sc.updated.clear();
    sc.undrawn.clear();
    sc.classes.clear();
    let (s, r) = (&sc.snap[i].0, &sc.snap[j].0);
    law.classes_into(s, r, &[(fault, 1.0)], &mut sc.classes);
    let mut delta = RunStats::default();
    apply_group(
        s,
        r,
        1,
        &sc.classes,
        &mut sc.updated,
        &mut sc.undrawn,
        &mut delta,
        rng,
    )?;
    commit(config, stats, undrawn, &delta, sc);
    Ok(())
}

/// Commits a step: each snapshot state keeps its untouched agents, plus
/// whatever the updated pool pours back into it; pool states outside the
/// snapshot are new. One aligned writeback, no keyed lookups. The step's
/// `delta` and omission tally then join the call's.
fn commit<C: EpochBackend>(
    config: &mut C,
    stats: &mut RunStats,
    undrawn: &mut Vec<(f64, u64)>,
    delta: &RunStats,
    sc: &mut Scratch<C::State>,
) {
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
    stats.merge(delta);
    for (share, k) in sc.undrawn.drain(..) {
        pool_add(undrawn, &share, k);
    }
}

/// One outcome class of a state pair: the faults of the mix whose
/// outcomes agree, with their summed weight and its omissive part.
struct OutcomeClass<Q> {
    outcome: Result<(Q, Q), EngineError>,
    weight: f64,
    omissive_weight: f64,
}

/// Splits a bulk (starter-state, reactor-state) group of `k` interactions
/// across its outcome `classes` (sequential conditional binomials, whose
/// joint law is the multinomial over the class weights; a one-class group
/// needs no draw) and applies each drawn class's outcome once.
///
/// An `Err` class fails the step only if it is drawn. A class mixing
/// omissive and fault-free faults adds its count to `undrawn`, keyed by
/// its omissive share, for the driver to resolve.
#[allow(clippy::too_many_arguments)]
fn apply_group<Q: State>(
    s: &Q,
    r: &Q,
    k: u64,
    classes: &[OutcomeClass<Q>],
    updated: &mut Vec<(Q, u64)>,
    undrawn: &mut Vec<(f64, u64)>,
    delta: &mut RunStats,
    rng: &mut SmallRng,
) -> Result<(), EngineError> {
    let last = classes.len() - 1;
    let mut left = k;
    let mut wleft: f64 = classes.iter().map(|c| c.weight).sum();
    for (t, class) in classes.iter().enumerate() {
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
        let (s2, r2) = class.outcome.as_ref().map_err(Clone::clone)?;
        let omissive = tally_omissive(class.omissive_weight, class.weight, kt, undrawn);
        let changed = s2 != s || r2 != r;
        delta.record_bulk(omissive, changed, kt);
        pool_add(updated, s2, kt);
        pool_add(updated, r2, kt);
    }
    Ok(())
}

/// Whether all `k` interactions of a class with these weights are
/// omissive. A class mixing omissive and fault-free faults counts as not
/// omissive and adds `k` to `undrawn` under its omissive share instead.
fn tally_omissive(
    omissive_weight: f64,
    weight: f64,
    k: u64,
    undrawn: &mut Vec<(f64, u64)>,
) -> bool {
    if omissive_weight == 0.0 {
        false
    } else if omissive_weight == weight {
        true
    } else {
        pool_add(undrawn, &(omissive_weight / weight), k);
        false
    }
}

/// Adds `k` copies of `q` to a small linear-scan pool.
fn pool_add<Q: PartialEq + Clone>(pool: &mut Vec<(Q, u64)>, q: &Q, k: u64) {
    if let Some(entry) = pool.iter_mut().find(|(p, _)| p == q) {
        entry.1 += k;
    } else {
        pool.push((q.clone(), k));
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
    use crate::{Epochs, Stop};
    use ppfts_population::CountConfiguration;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::rc::Rc;

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

    fn assert_same_table(got: &EpochLengths, n: u64) {
        let fresh = EpochLengths::new(n);
        assert_eq!((got.n, got.jmax), (fresh.n, fresh.jmax), "n = {n}");
        assert_eq!(got.survival, fresh.survival, "n = {n}");
        assert_eq!(got.guide, fresh.guide, "n = {n}");
        assert_eq!(got.mean.to_bits(), fresh.mean.to_bits(), "n = {n}");
    }

    #[test]
    fn shared_tables_are_kept_per_n_and_replaced_on_a_new_n() {
        // The slot is per thread, and every test runs on its own thread.
        let first = EpochLengths::shared(1_000);
        assert_same_table(&first, 1_000);
        assert!(Rc::ptr_eq(&first, &EpochLengths::shared(1_000)));
        let other = EpochLengths::shared(4_096);
        assert_same_table(&other, 4_096);
        let again = EpochLengths::shared(1_000);
        assert!(!Rc::ptr_eq(&first, &again), "a new n replaces the slot");
        assert_same_table(&again, 1_000);
    }

    #[test]
    fn threads_alternating_n_read_correct_tables_of_their_own() {
        // The barrier puts both threads in the same round, each asking
        // for the n the other one just asked for.
        let round = std::sync::Barrier::new(2);
        let tables: Vec<usize> = std::thread::scope(|scope| {
            let workers: Vec<_> = [[100u64, 2_000], [2_000, 100]]
                .into_iter()
                .map(|ns| {
                    let round = &round;
                    scope.spawn(move || {
                        for i in 0..50 {
                            let n = ns[i % 2];
                            round.wait();
                            assert_same_table(&EpochLengths::shared(n), n);
                        }
                        // Both tables are alive at the last barrier, so
                        // their addresses are distinct if they are two.
                        let table = Rc::as_ptr(&EpochLengths::shared(2_000)) as usize;
                        round.wait();
                        table
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_ne!(tables[0], tables[1], "each thread builds its own table");
    }

    #[test]
    fn epoch_lengths_have_the_analytic_mean() {
        let lengths = EpochLengths::new(100);
        // E[ℓ] = Σ_{j≥1} P(ℓ ≥ j) = Σ_{j≥1} A(j).
        let expected: f64 = lengths.survival[1..].iter().sum();
        assert!((lengths.mean - expected).abs() < 1e-12 * expected);
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

    /// Runs the fault-free one-way epidemic for `budget` interactions,
    /// with epochs whenever `p_act · E[ℓ] ≥ event_below` (0: always).
    fn run_epidemic(
        config: &mut CountConfiguration<bool>,
        seed: u64,
        budget: u64,
        event_below: f64,
    ) -> (RunStats, u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut stats = RunStats::default();
        let mut next = 0u64;
        let law = Law::new(
            &[((), 1.0)],
            |s: &bool, r: &bool, ()| epidemic(s, r),
            |_: &()| false,
        );
        drive(
            config,
            &mut rng,
            &mut stats,
            &mut next,
            budget,
            law,
            |_| false,
            event_below,
        )
        .unwrap();
        (stats, next)
    }

    #[test]
    fn epochs_work_at_the_smallest_population() {
        // n = 2: every epoch is ℓ = 1 clean interaction + 1 collision
        // that re-draws both touched agents (the fresh pool is empty).
        // E[ℓ] = 1 there, so by default only event steps run.
        for event_below in [0.0, EVENT_STEP_BELOW] {
            let mut config = CountConfiguration::from_groups([(true, 1usize), (false, 1)]);
            let (_, next) = run_epidemic(&mut config, 5, 100, event_below);
            assert_eq!(next, 100);
            assert_eq!(config.len(), 2);
            assert_eq!(config.count_state(&true), 2, "n = 2 epidemic saturates");
        }
    }

    #[test]
    fn odd_populations_exercise_the_fresh_pool_edge() {
        for event_below in [0.0, EVENT_STEP_BELOW] {
            for seed in 0..10u64 {
                let mut config = CountConfiguration::from_groups([(true, 1usize), (false, 4)]);
                run_epidemic(&mut config, seed, 500, event_below);
                assert_eq!(config.len(), 5);
                assert_eq!(config.count_state(&true), 5);
            }
        }
    }

    #[test]
    fn budget_truncation_inside_an_inert_stretch_lands_exactly() {
        // One infected agent in 10⁶: p_act · E[ℓ] ≈ 2·10⁻⁶ · 627, so every
        // step is an event step, and its inert stretch (≈ 5·10⁵ long)
        // almost always outruns a 1000-interaction call.
        let mut config = CountConfiguration::from_groups([(true, 1usize), (false, 999_999)]);
        let (mut steps, mut total) = (0u64, RunStats::default());
        for seed in 0..50 {
            let (stats, next) = run_epidemic(&mut config, seed, 1_000, EVENT_STEP_BELOW);
            assert_eq!(next, 1_000);
            assert_eq!(stats.steps, 1_000);
            steps += next;
            total.merge(&stats);
        }
        assert_eq!(total.steps, steps);
        assert_eq!(config.len(), 1_000_000);
        assert_eq!(
            total.changed_steps as usize,
            config.count_state(&true) - 1,
            "each change is one infection"
        );
    }

    #[test]
    fn an_all_infected_start_stops_within_one_mean_epoch_length() {
        use crate::{convergence::stably, RateStrategy, StatsOnly, TwoWayModel, TwoWayRunner};
        use ppfts_population::TableProtocol;
        // Every pair is inert, so each boundary of the silent
        // configuration advances ⌈E[ℓ]⌉ no-ops; the predicate already
        // holds before the first step, so the window closes at the first
        // boundary.
        let n = 100_000usize;
        let epidemic = TableProtocol::builder(vec![false, true])
            .rule((true, false), (true, true))
            .rule((false, true), (true, true))
            .build();
        let mut runner = TwoWayRunner::builder(TwoWayModel::T1, epidemic)
            .population(CountConfiguration::from_groups([(true, n)]))
            .adversary(RateStrategy::new(0.1))
            .seed(1)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Epochs,
                Stop::until(
                    1_000_000_000,
                    stably(|c: &CountConfiguration<bool>| c.count_state(&true) == n, 2),
                ),
            )
            .unwrap();
        let stride = EpochLengths::new(n as u64).mean.ceil() as u64;
        assert!(out.is_satisfied());
        assert_eq!(out.steps(), stride);
        assert_eq!(runner.stats().steps, stride);
        assert_eq!(runner.stats().noop_steps, stride);
    }

    #[test]
    fn event_steps_surface_fault_relation_violations() {
        // The fault `true` is outside the relation on the infecting pair
        // (true, false) only, so the other pairs stay inert and, at
        // n = 10⁶ with one agent infected, only an event step can draw
        // it. The inert stretch before the failing event is committed;
        // the event itself is not.
        let mut config = CountConfiguration::from_groups([(true, 1usize), (false, 999_999)]);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut stats = RunStats::default();
        let mut next = 0u64;
        let err = run_epochs_driver(
            &mut config,
            &mut rng,
            &mut stats,
            &mut next,
            u64::MAX,
            &[(false, 0.5), (true, 0.5)],
            |s, r, bad| {
                if bad && *s && !*r {
                    Err(EngineError::FaultNotInRelation {
                        model: crate::Model::TwoWay(crate::TwoWayModel::T1),
                        fault: "bad".into(),
                    })
                } else {
                    epidemic(s, r)
                }
            },
            |_| false,
            |_| false,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::FaultNotInRelation { .. }));
        assert!(next > 0, "inert interactions ran before the failure");
        assert_eq!(stats.steps, next);
        assert_eq!(config.len(), 1_000_000);
        assert_eq!(stats.changed_steps as usize, config.count_state(&true) - 1);
    }
}
