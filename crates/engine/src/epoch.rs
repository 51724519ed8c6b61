//! Batch-epoch execution: sub-constant work per interaction.
//!
//! The interleaved count-backend path draws interactions one ordered pair
//! at a time, so a run costs O(interactions) even when only a handful of
//! distinct states exist. Berenbrink, Hammer, Kaaser, Meyer, Penschuck and
//! Tran, *Simulating Population Protocols in Sub-Constant Time per
//! Interaction* (arXiv:2005.03584), observe that under the uniform
//! scheduler, which agents an interaction touches never depends on their
//! states. An agent is *touched* once it has interacted in the current
//! *batch*; an interaction is *fresh* when both its agents are untouched,
//! and a *collision* otherwise. The fresh interactions of a batch touch
//! distinct agents, so their order is irrelevant and they can be sampled
//! *in bulk*:
//!
//! 1. the number of fresh interactions before the next collision (the
//!    *gap*) falls out of one uniform draw inverted against the
//!    precomputed survival table (`EpochLengths`, private),
//! 2. a collision draws its endpoints explicitly. A touched endpoint is
//!    uniform over the touched agents; if it belongs to a fresh
//!    interaction whose states are not drawn yet, that interaction is
//!    *realized* on the spot. An untouched endpoint's state, like a
//!    realized interaction's two, is drawn without replacement from the
//!    snapshot's *unrevealed* agents,
//! 3. the batch ends after the collision that brings the touched agents
//!    to `BATCH_TOUCHED · √n`, or exactly at the budget. The fresh
//!    interactions still unrealized are then split in bulk: the starter
//!    states are a multivariate hypergeometric split of the unrevealed
//!    counts, the reactor states a second split of the remainder, and the
//!    pairing between them a uniform matching (nested hypergeometric
//!    splits again),
//! 4. each (starter-state, reactor-state) group is split across its
//!    *outcome classes* — the faults of the mix merged by equal outcome —
//!    by a chain of conditional binomial draws (none for a one-class
//!    group), and each class's outcome applied *once* with a bulk count
//!    adjustment.
//!
//! Revealing states only when an interaction needs them keeps the law
//! exact: the unrevealed agents hold an exchangeable draw of the snapshot
//! counts minus what was revealed. A batch that stops at its first
//! collision is Berenbrink et al.'s *epoch*; keeping it open to ≈ 3√n
//! touched agents lets one bulk split serve ≈ 2.6× more interactions,
//! while each extra collision costs a few O(d) draws.
//!
//! Which interactions of a class are omissive never feeds back into the
//! dynamics, so a class mixing omissive and fault-free faults only adds
//! its count to a tally keyed by its omissive share; the driver draws one
//! binomial per share when it returns. `RunStats::omissive_steps` is
//! therefore exact in law at the end of each driver call, not batch by
//! batch.
//!
//! The first gap of a batch is an epoch's collision-free prefix, of
//! expected length `E[ℓ] = Σ_{j≥1} A(j) ≈ √(πn/8) ≈ 0.63·√n`; a batch
//! holds ≈ 1.6·√n interactions for its O(d²) splits and ≈ 5 collisions,
//! so the per-interaction cost is O(d²/√n) for `d` distinct states:
//! *sub-constant* once n ≫ d⁴.
//!
//! A batch costs its O(d²) splits even when nothing in it changes a
//! state. So when state changes are sparse the driver takes an exact
//! *event step* instead (Gillespie's stochastic-simulation step on the
//! scheduler's i.i.d. interactions). An ordered state pair is *inert*
//! when every fault of the mix maps it to itself; with `p_act` the
//! probability that an interaction draws a non-inert pair, the number of
//! inert interactions before the next non-inert one is
//! Geometric(`p_act`). An event step draws that stretch in one go,
//! records it as no-ops, and then applies one non-inert interaction (pair
//! drawn by weight, then its outcome class). It is chosen whenever
//! `p_act · E[ℓ]` falls below a measured constant; a silent
//! configuration (`p_act = 0`) advances `⌈E[ℓ]⌉` no-ops per boundary.
//!
//! Every interaction the driver applies — a bulk group, a collision, a
//! realized fresh interaction or an event — reads one table of per-pair
//! outcome classes, built lazily for each live state list, and draws its
//! class by weight; no step draws a fault. Only a collision that meets a
//! state outside the snapshot (one a batch created) merges its pair's
//! classes over the full mix. Every step writes the snapshot's counts in
//! place and commits them through one aligned writeback, and the driver
//! re-snapshots only when a state appears or dies.
//!
//! The runner surface is `run(`[`Epochs`](crate::Epochs)`, stop)`,
//! available only on backends implementing [`EpochBackend`]. The
//! interleaved path remains the bit-exact reference; this path
//! reproduces its law *distributionally* (certified by the
//! `interleaved_law_eq_epochs_*` rows of `tests/differential.rs` and by
//! this module's exact-law test against a sequential reference).

use ppfts_population::dist;
use ppfts_population::{CountConfiguration, State};
use rand::rngs::SmallRng;
use rand::RngCore;

use crate::{EngineError, ExecBackend, Family, RunStats};

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
    /// guarantees the backend was not modified in between, except by
    /// earlier commits that kept every count positive and had no extras:
    /// such a commit must leave the reported states, and their order, as
    /// they were. This is the epoch commit: one aligned pass instead of
    /// per-state keyed removals and insertions.
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

/// Sampler for the gaps of a batch: the fresh interactions before the
/// next collision.
///
/// With no agent touched, the first `j` interactions are all fresh with
/// probability `A(j) = ∏_{i<j} (n−2i)(n−1−2i) / (n(n−1))`, the survival
/// table; `A(1) = 1`, and `A(j) = 0` past `⌊n/2⌋` (the agents run out).
/// With `t` agents touched the product starts at `(n−t)(n−t−1)`. For even
/// `t = 2h` that is `A(h+j)/A(h)`, so one uniform `U` gives the gap
/// `G = max{k : A(k) > U·A(h)} − h`. For odd `t` the product is the one at
/// `t − 1` times `∏_{i<j} (n−t−1−2i)/(n−t+1−2i) = 1 − 2j/(n−t+1)`, the
/// survival function of `X = ⌊U′·(n−t+1)/2⌋`, so `G` is the even gap at
/// `t − 1` cut at an independent `X`. One table serves every `t`.
///
/// The table, built once per n per thread (see [`EpochLengths::shared`]),
/// is truncated at `5√n + 16` entries, where `A ≈ e⁻⁵⁰`; the
/// astronomically rare draw below the truncation extends the product on
/// the fly.
pub(crate) struct EpochLengths {
    n: u64,
    jmax: u64,
    survival: Vec<f64>,
    /// The mean first gap `E[ℓ] = Σ_{j≥1} A(j)` (the truncated tail is
    /// below e⁻⁵⁰).
    mean: f64,
}

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
        EpochLengths {
            n,
            jmax,
            survival,
            mean,
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

    /// The gap before the next collision with `touched` agents touched.
    /// `A(touched / 2)` must be inside the table: it is when the table
    /// covers the full support, and a batch stops at `BATCH_TOUCHED · √n`
    /// touched agents, well inside `5√n` table entries.
    pub(crate) fn gap(&self, touched: u64, rng: &mut SmallRng) -> u64 {
        let h = touched / 2;
        let v = dist::uniform_open01(rng) * self.survival[h as usize];
        // `saturating_sub`: a `U·A(h)` rounded up to `A(h)` can put the
        // inversion below `h`.
        let even = self.length_at(v).saturating_sub(h);
        if touched.is_multiple_of(2) {
            return even;
        }
        // `as` truncates toward zero: ⌊U′·(n−t+1)/2⌋.
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = (dist::uniform_f64(rng) * ((self.n - touched + 1) as f64 / 2.0)) as u64;
        even.min(cut)
    }

    #[cfg(test)]
    fn sample(&self, rng: &mut SmallRng) -> u64 {
        self.gap(0, rng)
    }

    /// ℓ = max{ j : A(j) > u } for `u ∈ [0, 1)`.
    ///
    /// `A(j) ≈ e^(−2j(j−1)/n)` puts the answer near
    /// `j₀ = (1 + √(1 − 2n·ln u))/2`; a short walk on the table from there
    /// makes it exact (a few entries at n = 10⁸ over the gaps of a batch).
    fn length_at(&self, u: f64) -> u64 {
        let last = self.survival.len() - 1;
        let j0 = 0.5 * (1.0 + (1.0 - 2.0 * self.n as f64 * u.ln()).sqrt());
        // `as` saturates (u = 0 gives j₀ = ∞).
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let mut j = (j0 as usize).min(last);
        while j < last && self.survival[j + 1] > u {
            j += 1;
        }
        // survival[0] = 1 > u stops the walk down.
        while self.survival[j] <= u {
            j -= 1;
        }
        let mut j = j as u64;
        if j < last as u64 {
            return j;
        }
        // u fell below the whole cached table. If the table covers the
        // full support this simply means ℓ = jmax; a truncated table
        // (probability ≈ e⁻⁵⁰ at the first gap) extends the product on
        // the fly.
        let mut a = self.survival[last];
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

/// Event steps replace batches while `p_act · E[ℓ]`, the expected number
/// of non-inert interactions in a mean-length epoch, is below this.
/// Measured on the `epidemic-epoch` perfbench workload (n = 10⁸, T1 at
/// rate 0.1, 2-vCPU Xeon): the perfbench binary with the threshold set
/// per run, 3 runs of `--seed 7 --seconds 10` per threshold, each next
/// to one of the driver before one class path and in-place event steps.
/// Median ps per interaction (1 / interactions_per_s), this driver
/// against that one: 61.1 / 68.1 at 2, 53.9 / 58.3 at 3.5, 50.5 / 61.0
/// at 6, 57.7 / 68.6 at 8 and 57.4 / 69.9 at 12. The host drifts by
/// ±20% between runs, so the optimum is flat over [3.5, 12]. Absolute
/// figures depend on the harness and the host's state (an in-process
/// sweep of the older driver once read 40–41 ps); only figures taken
/// side by side compare.
const EVENT_STEP_BELOW: f64 = 6.0;

/// A batch ends after the collision that brings the touched agents to
/// `BATCH_TOUCHED · √n`. Measured like `EVENT_STEP_BELOW`, in ps per
/// interaction, this driver against the older one: 52.5 / 63.9 at 2,
/// 51.6 / 53.5 at 2.5, 50.5 / 61.0 at 3, 49.2 / 59.3 at 3.5, 47.3 /
/// 57.4 at 4 and 56.9 / 73.8 at 5: flat over [2.5, 4]. At 3 a seed runs
/// ≈ 49 k batches and ≈ 270 k collisions.
const BATCH_TOUCHED: f64 = 3.0;

/// Reusable per-step buffers: the driver allocates nothing in steady
/// state (all vectors are `clear()`ed and refilled), which matters when a
/// run at n = 10⁶ executes tens of thousands of batches.
struct Scratch<Q> {
    /// The backend's (state, count) groups, read at each re-snapshot.
    snap: Vec<(Q, u64)>,
    /// Counts of the snapshot's states (`table.states`). A commit writes
    /// them in place, so they stay the backend's live counts, in its
    /// order, until a state appears or dies.
    counts: Vec<u64>,
    /// A commit added or emptied a state, so `counts` no longer lines up
    /// with the backend and the next step re-snapshots.
    stale: bool,
    /// Unrevealed counts, then minus the drawn starters (the sources of
    /// the starter and reactor splits).
    rem: Vec<u64>,
    /// Starter states drawn in bulk this step, per group.
    starters: Vec<u64>,
    /// Reactor states drawn in bulk this step, per group.
    reactors: Vec<u64>,
    /// Reactors not yet matched to a starter group.
    reactors_left: Vec<u64>,
    /// Per-starter-group split of its matched reactors.
    split: Vec<u64>,
    /// Agents whose pre-states a collision revealed, per group.
    revealed: Vec<u64>,
    /// Agents that have interacted in the batch in flight.
    touched: u64,
    /// Its fresh interactions whose states are not drawn yet.
    fresh: u64,
    /// Snapshot agents whose pre-states are not drawn yet: the untouched
    /// ones and the `2 · fresh` of unrealized fresh interactions.
    unrevealed: u64,
    /// Post-interaction pool of the touched agents whose states are
    /// known: (state, snapshot index, count).
    updated: Vec<(Agent<Q>, u64)>,
    /// Updated-pool states absent from the snapshot (new states).
    extras: Vec<(Q, u64)>,
    /// Outcome classes of a collision pair with a state outside the
    /// snapshot, merged over the full mix.
    classes: Vec<OutcomeClass<Q>>,
    /// Outcome classes of every ordered pair of the snapshot's states.
    table: ClassTable<Q>,
    /// The snapshot's non-inert ordered pairs `(i, j, weight)`.
    active: Vec<(usize, usize, f64)>,
    /// This step's interactions whose omissive split is still undrawn,
    /// keyed by their omissive share.
    undrawn: Vec<(f64, u64)>,
}

/// A state with its index in the snapshot (`None` for a state outside
/// it), so an interaction finds its class-table cell without a search.
type Agent<Q> = (Q, Option<usize>);

impl<Q: State> Scratch<Q> {
    fn new() -> Self {
        Scratch {
            snap: Vec::new(),
            counts: Vec::new(),
            stale: true,
            rem: Vec::new(),
            starters: Vec::new(),
            reactors: Vec::new(),
            reactors_left: Vec::new(),
            split: Vec::new(),
            revealed: Vec::new(),
            touched: 0,
            fresh: 0,
            unrevealed: 0,
            updated: Vec::new(),
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
        self.stale = false;
    }
}

/// The run-constant law of one driver call: the i.i.d. fault mix and how
/// one interaction resolves under a fault.
struct Law<'m, F, O, M> {
    fault_mix: &'m [(F, f64)],
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
        // The same sums, in the same order, as `classes_into` forms for a
        // class holding the whole mix, so both key one omission tally.
        let (mut weight, mut omissive_weight) = (0.0, 0.0);
        for (fault, w) in fault_mix {
            weight += w;
            omissive_weight += if is_omissive(fault) { *w } else { 0.0 };
        }
        Law {
            fault_mix,
            outcome_of,
            is_omissive,
            weight,
            omissive_weight,
        }
    }

    /// Appends the outcome classes of the pair `(s, r)` under the mix to
    /// `out`, each outcome state with its index in `states`. Faults with
    /// equal `Ok` outcomes share a class; an `Err` outcome is a class of
    /// its own.
    fn classes_into<Q: State>(&mut self, s: &Q, r: &Q, states: &[Q], out: &mut Vec<OutcomeClass<Q>>)
    where
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
    {
        let first = out.len();
        for &(fault, w) in self.fault_mix {
            let outcome = (self.outcome_of)(s, r, fault);
            let omissive_weight = if (self.is_omissive)(&fault) { w } else { 0.0 };
            let same = match &outcome {
                Ok((s2, r2)) => out[first..].iter_mut().find(|c| {
                    c.outcome
                        .as_ref()
                        .is_ok_and(|((x, _), (y, _))| x == s2 && y == r2)
                }),
                Err(_) => None,
            };
            if let Some(class) = same {
                class.weight += w;
                class.omissive_weight += omissive_weight;
            } else {
                let at = |q: &Q| states.iter().position(|x| x == q);
                out.push(OutcomeClass {
                    outcome: outcome.map(|(s2, r2)| {
                        let (i, j) = (at(&s2), at(&r2));
                        ((s2, i), (r2, j))
                    }),
                    weight: w,
                    omissive_weight,
                });
            }
        }
    }
}

/// The outcome classes of every ordered pair over one live state list,
/// each pair's filled on first read. Bulk groups, collisions, the inert
/// test and event steps all read it, so a pair's faults are merged once
/// per state list rather than once per interaction.
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
        law.classes_into(
            &self.states[i],
            &self.states[j],
            &self.states,
            &mut self.classes,
        );
        let inert = matches!(
            &self.classes[start..],
            [class] if class.outcome.as_ref().is_ok_and(|((_, s2), (_, r2))| *s2 == Some(i) && *r2 == Some(j))
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

/// Drives `budget` interactions in batches and event steps.
///
/// `fault_mix` is the fixed i.i.d. per-interaction fault distribution
/// (weights summing to 1, fault-free entry included); `outcome_of`
/// computes one interaction's outcome; `boundary` is checked after every
/// batch, event step and silent stride, and ends the run early when it
/// returns `true`. Returns whether `boundary` fired. The step in flight
/// when the budget runs out is truncated *exactly* at the budget:
/// conditioned on a gap's length, its first `m` fresh interactions keep
/// the uniform-distinct law, and an inert stretch is memoryless, so
/// applying only those is still exact.
///
/// The omissive split of the committed steps' mixed outcome classes and
/// inert stretches is drawn when the driver returns, on every path: a sum
/// of independent Binomial(kᵢ, p) draws is Binomial(Σkᵢ, p), so one draw
/// per distinct omissive share `p` makes `stats.omissive_steps` exact in
/// law.
#[allow(clippy::too_many_arguments)] // monomorphized per runner; the args are the runner's fields
pub(crate) fn run_epochs_driver<M, C, O, B>(
    config: &mut C,
    rng: &mut SmallRng,
    stats: &mut RunStats,
    next_index: &mut u64,
    budget: u64,
    fault_mix: &[(M::Fault, f64)],
    outcome_of: O,
    boundary: B,
) -> Result<bool, EngineError>
where
    M: Family,
    C: EpochBackend,
    O: FnMut(&C::State, &C::State, M::Fault) -> Result<(C::State, C::State), EngineError>,
    B: FnMut(&C) -> bool,
{
    let law = Law::new(fault_mix, outcome_of, |f: &M::Fault| M::is_omissive(*f));
    drive(
        config,
        rng,
        stats,
        next_index,
        budget,
        law,
        boundary,
        EVENT_STEP_BELOW,
        BATCH_TOUCHED,
    )
}

/// [`run_epochs_driver`] with its two measured constants as parameters:
/// a batch runs whenever `p_act · E[ℓ] ≥ event_below` (so 0 forces
/// batches, ∞ event steps), and ends after the collision that brings the
/// touched agents to `batch_touched · √n` (0 ends it at its first
/// collision, ∞ only at the budget).
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
    batch_touched: f64,
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
    // `as` saturates, so an infinite `batch_touched` never ends a batch.
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let (silent_stride, stop_touched) = (
        lengths.mean.ceil() as u64,
        (batch_touched * nf.sqrt()).ceil() as u64,
    );
    let mut sc = Scratch::new();
    let mut undrawn = Vec::new();
    let mut remaining = budget;
    let result = 'run: {
        while remaining > 0 {
            if sc.stale {
                sc.snapshot(config);
            }
            let active = sc.table.active_pairs(&sc.counts, &mut law, &mut sc.active);
            let p_act = (active / pairs).min(1.0);
            if p_act * lengths.mean >= event_below {
                let ran = run_batch(
                    config,
                    rng,
                    stats,
                    &mut undrawn,
                    &mut law,
                    &lengths,
                    remaining,
                    stop_touched,
                    &mut sc,
                );
                match ran {
                    Ok(advanced) => {
                        *next_index += advanced;
                        remaining -= advanced;
                    }
                    Err(e) => break 'run Err(e),
                }
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

/// Executes one batch from the current snapshot: gaps of fresh
/// interactions, each closed by a collision, until the collision that
/// brings the touched agents to `stop_touched`, or exactly `budget`
/// interactions. Returns the interactions executed.
///
/// On error nothing is committed: the configuration, stats and
/// `undrawn` tally stay at the previous boundary.
#[allow(clippy::too_many_arguments)]
fn run_batch<C, F, O, M>(
    config: &mut C,
    rng: &mut SmallRng,
    stats: &mut RunStats,
    undrawn: &mut Vec<(f64, u64)>,
    law: &mut Law<F, O, M>,
    lengths: &EpochLengths,
    budget: u64,
    stop_touched: u64,
    sc: &mut Scratch<C::State>,
) -> Result<u64, EngineError>
where
    C: EpochBackend,
    F: Copy,
    O: FnMut(&C::State, &C::State, F) -> Result<(C::State, C::State), EngineError>,
    M: Fn(&F) -> bool,
{
    let mut delta = RunStats::default();
    sc.revealed.clear();
    sc.revealed.resize(sc.counts.len(), 0);
    sc.updated.clear();
    sc.undrawn.clear();
    (sc.touched, sc.fresh, sc.unrevealed) = (0, 0, lengths.n);
    let mut steps = 0;
    loop {
        let gap = lengths.gap(sc.touched, rng).min(budget - steps);
        sc.fresh += gap;
        sc.touched += 2 * gap;
        steps += gap;
        if steps == budget {
            break;
        }
        sc.collide(lengths.n, law, &mut delta, rng)?;
        steps += 1;
        if sc.touched >= stop_touched || steps == budget {
            break;
        }
    }

    // The unrealized fresh interactions in bulk. Starter states: a
    // multivariate hypergeometric split of the unrevealed counts; reactor
    // states: a second split of the remainder.
    sc.rem.clear();
    sc.rem
        .extend(sc.counts.iter().zip(&sc.revealed).map(|(&c, &r)| c - r));
    dist::multivariate_hypergeometric_into(&sc.rem, sc.fresh, &mut sc.starters, rng);
    for (r, &s) in sc.rem.iter_mut().zip(&sc.starters) {
        *r -= s;
    }
    dist::multivariate_hypergeometric_into(&sc.rem, sc.fresh, &mut sc.reactors, rng);

    // Uniform matching between starter and reactor slots: for each
    // starter group in turn, its partners are a hypergeometric split of
    // the reactors not yet matched. Every (starter-state, reactor-state)
    // pair group is then split across its outcome classes and applied
    // once per class.
    sc.reactors_left.clone_from(&sc.reactors);
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
                &sc.table.states[i],
                &sc.table.states[j],
                k,
                &sc.table.classes[cell.start..cell.end],
                &mut sc.updated,
                &mut sc.undrawn,
                &mut delta,
                rng,
            )?;
        }
    }
    // Every agent drawn this batch leaves its snapshot count; the pool
    // pours the post-states back at the commit.
    for (i, c) in sc.counts.iter_mut().enumerate() {
        let drawn = sc.starters[i] + sc.reactors[i] + sc.revealed[i];
        debug_assert!(drawn <= *c);
        *c -= drawn;
    }
    commit(config, stats, undrawn, &delta, sc);
    Ok(steps)
}

impl<Q: State> Scratch<Q> {
    /// Executes one collision: an interaction with at least one touched
    /// endpoint, its outcome class drawn by weight. Conditioned on
    /// colliding, the starter is touched with probability
    /// `(t/n) / (1 − survive)`; a touched starter's reactor is touched
    /// with probability `(t−1)/(n−1)`, and an untouched starter's reactor
    /// always is.
    fn collide<F: Copy, O, M>(
        &mut self,
        n: u64,
        law: &mut Law<F, O, M>,
        delta: &mut RunStats,
        rng: &mut SmallRng,
    ) -> Result<(), EngineError>
    where
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
        M: Fn(&F) -> bool,
    {
        let (nf, t) = (n as f64, self.touched as f64);
        let survive = (nf - t) * (nf - t - 1.0) / (nf * (nf - 1.0));
        let p_starter_touched = (t / nf) / (1.0 - survive);
        let (s, r, untouched);
        if dist::uniform_f64(rng) < p_starter_touched {
            s = self.take_touched(self.touched, law, delta, rng)?;
            if dist::uniform_f64(rng) < (t - 1.0) / (nf - 1.0) {
                r = self.take_touched(self.touched - 1, law, delta, rng)?;
                untouched = 0;
            } else {
                r = self.take_untouched(rng);
                untouched = 1;
            }
        } else {
            s = self.take_untouched(rng);
            r = self.take_touched(self.touched, law, delta, rng)?;
            untouched = 1;
        }
        // A pair with a state outside the snapshot merges its classes
        // over the full mix; every other pair reads the table.
        let classes = if let (Some(i), Some(j)) = (s.1, r.1) {
            let cell = self.table.cell(i, j, law);
            &self.table.classes[cell.start..cell.end]
        } else {
            self.classes.clear();
            law.classes_into(&s.0, &r.0, &self.table.states, &mut self.classes);
            &self.classes
        };
        let (s2, r2) = apply_one(&s.0, &r.0, classes, &mut self.undrawn, delta, rng)?;
        pool_add(&mut self.updated, &s2, 1);
        pool_add(&mut self.updated, &r2, 1);
        self.touched += untouched;
        Ok(())
    }

    /// Takes one of `avail` touched agents uniformly (the `2 · fresh` of
    /// unrealized fresh interactions, then the pool) and returns its
    /// current state. An agent of an unrealized fresh interaction realizes
    /// it: both pre-states drawn from the unrevealed agents, its outcome
    /// class from the class table, and the partner's post-state joins the
    /// pool.
    fn take_touched<F: Copy, O, M>(
        &mut self,
        avail: u64,
        law: &mut Law<F, O, M>,
        delta: &mut RunStats,
        rng: &mut SmallRng,
    ) -> Result<Agent<Q>, EngineError>
    where
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
        M: Fn(&F) -> bool,
    {
        let k = below(rng, avail);
        if k >= 2 * self.fresh {
            let i = pool_take(&mut self.updated, k - 2 * self.fresh);
            return Ok(self.updated[i].0.clone());
        }
        self.fresh -= 1;
        let i = self.take_unrevealed(rng);
        let j = self.take_unrevealed(rng);
        let cell = self.table.cell(i, j, law);
        let (s2, r2) = apply_one(
            &self.table.states[i],
            &self.table.states[j],
            &self.table.classes[cell.start..cell.end],
            &mut self.undrawn,
            delta,
            rng,
        )?;
        // Given k < 2·fresh, k's parity is a uniform role.
        let (endpoint, partner) = if k.is_multiple_of(2) {
            (s2, r2)
        } else {
            (r2, s2)
        };
        pool_add(&mut self.updated, &partner, 1);
        Ok(endpoint)
    }

    /// The state of one untouched agent, drawn from the unrevealed ones.
    fn take_untouched(&mut self, rng: &mut SmallRng) -> Agent<Q> {
        let i = self.take_unrevealed(rng);
        (self.table.states[i].clone(), Some(i))
    }

    /// Reveals one unrevealed agent uniformly (weights: snapshot counts
    /// minus everything revealed this batch) and returns its group index.
    fn take_unrevealed(&mut self, rng: &mut SmallRng) -> usize {
        let mut k = below(rng, self.unrevealed);
        self.unrevealed -= 1;
        for (i, (&c, r)) in self.counts.iter().zip(&mut self.revealed).enumerate() {
            let avail = c - *r;
            if k < avail {
                *r += 1;
                return i;
            }
            k -= avail;
        }
        unreachable!("unrevealed total matches availability")
    }
}

/// Executes one non-inert interaction from the current snapshot: the
/// ordered state pair drawn by weight among `sc.active` (`active` in
/// total), its outcome class by weight from the class table. The two
/// agents leave the snapshot counts in place and their post-states go
/// through the one commit.
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
    let &(i, j, _) = pick(&sc.active, |&(_, _, w)| w, active, rng);
    let cell = sc.table.cell(i, j, law);
    let mut delta = RunStats::default();
    sc.undrawn.clear();
    let (s2, r2) = apply_one(
        &sc.table.states[i],
        &sc.table.states[j],
        &sc.table.classes[cell.start..cell.end],
        &mut sc.undrawn,
        &mut delta,
        rng,
    )?;
    sc.counts[i] -= 1;
    sc.counts[j] -= 1;
    sc.updated.clear();
    pool_add(&mut sc.updated, &s2, 1);
    pool_add(&mut sc.updated, &r2, 1);
    commit(config, stats, undrawn, &delta, sc);
    Ok(())
}

/// Commits a step: `sc.counts` already holds each snapshot state's agents
/// that the step did not draw; the updated pool pours its post-states
/// back into them, and pool states outside the snapshot are new. One
/// aligned writeback, no keyed lookups; the snapshot goes stale only if
/// a state appeared or died. The step's `delta` and omission tally then
/// join the call's.
fn commit<C: EpochBackend>(
    config: &mut C,
    stats: &mut RunStats,
    undrawn: &mut Vec<(f64, u64)>,
    delta: &RunStats,
    sc: &mut Scratch<C::State>,
) {
    sc.extras.clear();
    for ((q, at), c) in sc.updated.drain(..) {
        if c == 0 {
            continue;
        }
        match at {
            Some(i) => sc.counts[i] += c,
            None => sc.extras.push((q, c)),
        }
    }
    config.commit_state_counts(&sc.counts, &sc.extras);
    sc.stale = !sc.extras.is_empty() || sc.counts.contains(&0);
    stats.merge(delta);
    for (share, k) in sc.undrawn.drain(..) {
        pool_add(undrawn, &share, k);
    }
}

/// One outcome class of a state pair: the faults of the mix whose
/// outcomes agree, with their summed weight and its omissive part.
struct OutcomeClass<Q> {
    outcome: Result<(Agent<Q>, Agent<Q>), EngineError>,
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
    updated: &mut Vec<(Agent<Q>, u64)>,
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
        delta.record_bulk(omissive, s2.0 != *s || r2.0 != *r, kt);
        pool_add(updated, s2, kt);
        pool_add(updated, r2, kt);
    }
    Ok(())
}

/// One interaction of the pair `(s, r)`: draws its outcome class by
/// weight (no draw for one class), records it, and returns its outcome.
fn apply_one<Q: State>(
    s: &Q,
    r: &Q,
    classes: &[OutcomeClass<Q>],
    undrawn: &mut Vec<(f64, u64)>,
    delta: &mut RunStats,
    rng: &mut SmallRng,
) -> Result<(Agent<Q>, Agent<Q>), EngineError> {
    let class = match classes {
        [only] => only,
        _ => pick(
            classes,
            |c| c.weight,
            classes.iter().map(|c| c.weight).sum(),
            rng,
        ),
    };
    let (s2, r2) = class.outcome.clone()?;
    let omissive = tally_omissive(class.omissive_weight, class.weight, 1, undrawn);
    delta.record_bulk(omissive, s2.0 != *s || r2.0 != *r, 1);
    Ok((s2, r2))
}

/// The item of non-empty `items` that a uniform draw over their `total`
/// weight lands in (the last one on floating-point residue past it).
fn pick<'a, T>(
    items: &'a [T],
    weight: impl Fn(&T) -> f64,
    total: f64,
    rng: &mut SmallRng,
) -> &'a T {
    let mut x = dist::uniform_f64(rng) * total;
    items
        .iter()
        .find(|item| {
            let w = weight(item);
            let hit = x < w;
            x -= w;
            hit
        })
        .unwrap_or_else(|| items.last().expect("a draw needs an item"))
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

/// Removes the agent at position `k` of a weighted pool (agents counted
/// entry by entry) and returns its group index (the entry stays in place
/// so the caller can read its state).
fn pool_take<Q>(pool: &mut [(Q, u64)], mut k: u64) -> usize {
    for (i, entry) in pool.iter_mut().enumerate() {
        if k < entry.1 {
            entry.1 -= 1;
            return i;
        }
        k -= entry.1;
    }
    unreachable!("pool position within its total")
}

/// A uniform draw from `0..s`, `s > 0`: Lemire's multiply-shift with
/// rejection, exact and division-free but on the rare path that computes
/// the rejection threshold. The `rand` shim's `gen_range` takes two
/// 64-bit `%` per call: 8.6 ns per draw against 2.0 ns here in a tight
/// loop (2-vCPU Xeon), and a collision takes three or four draws. The
/// shim stays as it is, so the dense paths' streams do not move.
fn below(rng: &mut SmallRng, s: u64) -> u64 {
    debug_assert!(s > 0);
    let mut m = u128::from(rng.next_u64()) * u128::from(s);
    if (m as u64) < s {
        let threshold = s.wrapping_neg() % s;
        while (m as u64) < threshold {
            m = u128::from(rng.next_u64()) * u128::from(s);
        }
    }
    (m >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Epochs, OneWayFault, OneWayModel, Stop};
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
    fn single_inversion_matches_the_full_partition_point() {
        // Targets U·A(h) as the gaps draw them, across t, and the table's
        // own entries and their neighbours, where an off-by-one in the
        // walk would show.
        for n in [2, 3, 4, 5, 10_000, 100_000_000u64] {
            let lengths = EpochLengths::new(n);
            let table = &lengths.survival;
            let last = table.len() - 1;
            let check = |v: f64| {
                let pp = table.partition_point(|&a| a > v);
                let got = lengths.length_at(v);
                if pp <= last {
                    assert_eq!(got, pp as u64 - 1, "n = {n}, v = {v}");
                } else {
                    assert!(got >= last as u64, "n = {n}, v = {v}");
                }
            };
            let mut rng = SmallRng::seed_from_u64(n);
            for _ in 0..1_000_000 {
                let h = below(&mut rng, last as u64 + 1) as usize;
                check(dist::uniform_open01(&mut rng) * table[h]);
            }
            for &a in table.iter().filter(|&&a| a < 1.0) {
                for v in [a, a.next_down(), a.next_up()] {
                    check(v);
                }
            }
        }
    }

    /// `P(G ≥ j)` with `t` agents touched, as the direct product.
    fn gap_survival(n: u64, t: u64, j: u64) -> f64 {
        let nf = n as f64;
        (0..j).fold(1.0, |a, i| {
            let free = (n - t) as f64 - 2.0 * i as f64;
            a * (free.max(0.0) * (free - 1.0).max(0.0)) / (nf * (nf - 1.0))
        })
    }

    #[test]
    fn odd_gaps_are_even_gaps_cut_at_an_independent_uniform() {
        // P(G ≥ j | t) from the table as `gap` reads it: A(h+j)/A(h),
        // times 1 − 2j/(n−t+1) for odd t.
        for n in 2..40u64 {
            let lengths = EpochLengths::new(n);
            for t in 0..=n {
                let h = t / 2;
                for j in 0..=n {
                    let table = &lengths.survival;
                    let even = if h + j <= n / 2 {
                        table[(h + j) as usize] / table[h as usize]
                    } else {
                        0.0
                    };
                    let cut = if t.is_multiple_of(2) {
                        1.0
                    } else {
                        (1.0 - 2.0 * j as f64 / (n - t + 1) as f64).max(0.0)
                    };
                    let direct = gap_survival(n, t, j);
                    assert!(
                        (even * cut - direct).abs() <= 1e-12 * direct.max(1e-300),
                        "n = {n}, t = {t}, j = {j}: {} vs {direct}",
                        even * cut
                    );
                }
            }
        }
    }

    #[test]
    fn gaps_follow_the_direct_product_at_every_touched_count() {
        let draws = 20_000u32;
        for n in [11u64, 12] {
            let lengths = EpochLengths::new(n);
            let mut rng = SmallRng::seed_from_u64(n);
            for t in 0..=n {
                let mut at_least = vec![0u32; n as usize + 2];
                for _ in 0..draws {
                    let g = lengths.gap(t, &mut rng) as usize;
                    assert!(2 * g as u64 <= n - t, "n = {n}, t = {t}, gap {g}");
                    at_least[..=g].iter_mut().for_each(|c| *c += 1);
                }
                for (j, &c) in at_least.iter().enumerate() {
                    let p = gap_survival(n, t, j as u64);
                    let sd = (p * (1.0 - p) / f64::from(draws)).sqrt();
                    let got = f64::from(c) / f64::from(draws);
                    assert!(
                        (got - p).abs() <= 5.0 * sd + 1e-12,
                        "n = {n}, t = {t}: P(G ≥ {j}) = {got} vs {p}"
                    );
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
        // A commit that keeps every count positive and adds nothing
        // keeps the reported states in order, so a second one lines up.
        config.commit_state_counts(&[4, 2], &[]);
        config.commit_state_counts(&[3, 3], &[]);
        let mut groups = Vec::new();
        config.state_counts_into(&mut groups);
        assert_eq!(groups, vec![('b', 3), ('c', 3)]);
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
        let fired = run_epochs_driver::<OneWayModel, _, _, _>(
            &mut config,
            &mut rng,
            &mut stats,
            &mut next,
            budget,
            &[(OneWayFault::None, 1.0)],
            |s, r, _| epidemic(s, r),
            |_| false,
        )
        .unwrap();
        assert!(!fired);
        assert_eq!(next, budget, "budget truncation lands exactly");
        assert_eq!(stats.steps, budget);
        assert_eq!(config.len(), 1000, "epochs preserve the population size");
        assert!(config.count_state(&true) >= 10, "epidemic is monotone");
        // Forced batches. At n = 10⁶ these budgets end inside the first
        // gap (≈ 627 long); at n ≤ 3 every interaction of a batch after
        // its first is a collision, so an unstopped batch's budget from 2
        // on ends on one.
        for n in [1_000_000usize, 2, 3] {
            for batch_touched in [0.0, BATCH_TOUCHED, f64::INFINITY] {
                for budget in [1, 2, 3, 10, 57] {
                    let mut config = CountConfiguration::from_groups([(true, 1), (false, n - 1)]);
                    let (stats, next) =
                        run_epidemic_with(&mut config, budget, budget, 0.0, batch_touched);
                    let case = format!("n = {n}, T = {batch_touched}, budget {budget}");
                    assert_eq!((next, stats.steps), (budget, budget), "{case}");
                    assert_eq!(config.len(), n, "{case}");
                }
            }
        }
    }

    #[test]
    fn driver_boundary_stops_at_epoch_granularity() {
        let n = 10_000usize;
        let mut config = CountConfiguration::from_groups([(true, 1usize), (false, n - 1)]);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut stats = RunStats::default();
        let mut next = 0u64;
        let fired = run_epochs_driver::<OneWayModel, _, _, _>(
            &mut config,
            &mut rng,
            &mut stats,
            &mut next,
            50_000_000,
            &[(OneWayFault::None, 1.0)],
            |s, r, _| epidemic(s, r),
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
        // An omission is a no-op. At rate 0.3 the omissive fraction of a
        // long run concentrates near 0.3.
        let mut config = CountConfiguration::from_groups([(true, 100usize), (false, 9900)]);
        let mut rng = SmallRng::seed_from_u64(23);
        let mut stats = RunStats::default();
        let mut next = 0u64;
        run_epochs_driver::<OneWayModel, _, _, _>(
            &mut config,
            &mut rng,
            &mut stats,
            &mut next,
            200_000,
            &[(OneWayFault::None, 0.7), (OneWayFault::Omission, 0.3)],
            |s, r, f| {
                if f.is_omissive() {
                    Ok((*s, *r))
                } else {
                    epidemic(s, r)
                }
            },
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
        run_epidemic_with(config, seed, budget, event_below, BATCH_TOUCHED)
    }

    /// [`run_epidemic`] with the batch stop as a parameter.
    fn run_epidemic_with(
        config: &mut CountConfiguration<bool>,
        seed: u64,
        budget: u64,
        event_below: f64,
        batch_touched: f64,
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
            batch_touched,
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
        // The same budget with unstopped batches forced: at n = 10⁶ it
        // ends inside a gap (the ≈ 2000 touched agents make a collision
        // ≈ 0.4% of interactions); at n = 64 every agent is touched long
        // before, so it ends on a collision.
        for n in [1_000_000usize, 64] {
            let mut config = CountConfiguration::from_groups([(true, 1), (false, n - 1)]);
            let mut total = RunStats::default();
            for seed in 0..50 {
                let (stats, next) = run_epidemic_with(&mut config, seed, 1_000, 0.0, f64::INFINITY);
                assert_eq!((next, stats.steps), (1_000, 1_000), "n = {n}");
                total.merge(&stats);
            }
            assert_eq!(config.len(), n);
            assert_eq!(total.changed_steps as usize, config.count_state(&true) - 1);
        }
    }

    /// A three-state protocol under a two-fault mix: the starter steps
    /// on, the reactor takes the sum, and the omissive fault (`true`)
    /// leaves the reactor as it was.
    fn tri(s: &u8, r: &u8, omit: bool) -> Result<(u8, u8), EngineError> {
        Ok(((s + 1) % 3, if omit { *r } else { (s + r) % 3 }))
    }

    const TRI_MIX: [(bool, f64); 2] = [(false, 0.7), (true, 0.3)];

    /// End state counts of 0 and 1, and the omissive steps.
    type EndKey = (usize, usize, u64);

    /// The exact law by definition: each step draws a uniform ordered
    /// pair of distinct agents and one fault.
    fn sequential_reference(agents: &mut [u8], budget: u64, rng: &mut SmallRng) -> EndKey {
        let n = agents.len() as u64;
        let mut omissive = 0;
        for _ in 0..budget {
            let a = below(rng, n) as usize;
            let b = below(rng, n - 1) as usize;
            let b = if b >= a { b + 1 } else { b };
            let omit = dist::uniform_f64(rng) < TRI_MIX[1].1;
            (agents[a], agents[b]) = tri(&agents[a], &agents[b], omit).unwrap();
            omissive += u64::from(omit);
        }
        let count = |q| agents.iter().filter(|&&x| x == q).count();
        (count(0), count(1), omissive)
    }

    /// The two-sample χ² of the driver's end histogram (batches run while
    /// `p_act · E[ℓ] ≥ event_below`, stopped at `batch_touched · √n`)
    /// against the sequential reference, `runs` per side, as a z-score:
    /// `(χ² − df)/√(2·df)`, with the bins holding fewer than 40 runs of
    /// both sides pooled into one.
    fn end_law_z(
        groups: [usize; 3],
        budget: u64,
        event_below: f64,
        batch_touched: f64,
        runs: u32,
    ) -> f64 {
        use std::collections::BTreeMap;
        let init: Vec<u8> = (0u8..3)
            .flat_map(|q| std::iter::repeat_n(q, groups[q as usize]))
            .collect();
        let mut hist: BTreeMap<EndKey, [u64; 2]> = BTreeMap::new();
        let mut rng = SmallRng::seed_from_u64(init.len() as u64);
        for _ in 0..runs {
            let mut config = CountConfiguration::from_groups((0u8..3).zip(groups));
            let (mut stats, mut next) = (RunStats::default(), 0);
            let law = Law::new(&TRI_MIX, |s: &u8, r: &u8, omit| tri(s, r, omit), |&f| f);
            drive(
                &mut config,
                &mut rng,
                &mut stats,
                &mut next,
                budget,
                law,
                |_| false,
                event_below,
                batch_touched,
            )
            .unwrap();
            let key = (
                config.count_state(&0),
                config.count_state(&1),
                stats.omissive_steps,
            );
            hist.entry(key).or_default()[0] += 1;
            let key = sequential_reference(&mut init.clone(), budget, &mut rng);
            hist.entry(key).or_default()[1] += 1;
        }
        let (mut chi2, mut bins, mut pooled) = (0.0, 0u32, [0u64; 2]);
        for &[a, b] in hist.values() {
            if a + b < 40 {
                pooled = [pooled[0] + a, pooled[1] + b];
            } else {
                chi2 += (a as f64 - b as f64).powi(2) / (a + b) as f64;
                bins += 1;
            }
        }
        if pooled[0] + pooled[1] > 0 {
            let [a, b] = pooled;
            chi2 += (a as f64 - b as f64).powi(2) / (a + b) as f64;
            bins += 1;
        }
        let df = f64::from(bins - 1);
        (chi2 - df) / (2.0 * df).sqrt()
    }

    /// Fails at z > 5: under the exact law the statistic is ≈ N(0, 1),
    /// and a batch that biases a realized endpoint's role, drops the
    /// `1/(1 − survive)` conditioning of a collision, or draws a
    /// collision's outcome class off its weight scores far above. Six
    /// cells force batches at three stops; one forces event steps
    /// throughout; and one starts without state 2, so a collision meets
    /// it outside the snapshot and merges its classes over the full mix.
    fn assert_end_law(runs: u32) {
        let batches = [[5, 4, 2], [5, 4, 3]].into_iter().flat_map(|groups| {
            [0.0, BATCH_TOUCHED, f64::INFINITY].map(|batch_touched| (groups, 0.0, batch_touched))
        });
        let cells = batches.chain([
            ([5, 4, 2], f64::INFINITY, BATCH_TOUCHED),
            ([5, 4, 0], 0.0, f64::INFINITY),
        ]);
        for (groups, event_below, batch_touched) in cells {
            let z = end_law_z(groups, 9, event_below, batch_touched, runs);
            assert!(
                z < 5.0,
                "groups {groups:?}, E = {event_below}, T = {batch_touched}: z = {z:.2}"
            );
        }
    }

    #[test]
    fn batches_reproduce_the_sequential_end_law() {
        assert_end_law(20_000);
    }

    #[test]
    #[ignore = "high power: run in release with --ignored"]
    fn batches_reproduce_the_sequential_end_law_at_high_power() {
        assert_end_law(300_000);
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
        // The omission is outside the relation on the infecting pair
        // (true, false) only, so the other pairs stay inert and, at
        // n = 10⁶ with one agent infected, only an event step can draw
        // it. The inert stretch before the failing event is committed;
        // the event itself is not.
        let mut config = CountConfiguration::from_groups([(true, 1usize), (false, 999_999)]);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut stats = RunStats::default();
        let mut next = 0u64;
        let err = run_epochs_driver::<OneWayModel, _, _, _>(
            &mut config,
            &mut rng,
            &mut stats,
            &mut next,
            u64::MAX,
            &[(OneWayFault::None, 0.5), (OneWayFault::Omission, 0.5)],
            |s, r, f| {
                if f.is_omissive() && *s && !*r {
                    Err(EngineError::FaultNotInRelation {
                        model: crate::Model::TwoWay(crate::TwoWayModel::T1),
                        fault: "bad".into(),
                    })
                } else {
                    epidemic(s, r)
                }
            },
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
