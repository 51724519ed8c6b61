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
//!    *gap*) falls out of one Exp(1) draw inverted against a table of the
//!    log-survival function (`EpochLengths`, private),
//! 2. a collision draws its endpoints explicitly, its roles by one exact
//!    integer draw. A touched endpoint is
//!    uniform over the touched agents; if it belongs to a fresh
//!    interaction whose states are not drawn yet, that interaction is
//!    *realized* on the spot. An untouched endpoint's state, like a
//!    realized interaction's two, is drawn without replacement from the
//!    snapshot's *unrevealed* agents,
//! 3. the batch ends after the collision that brings the touched agents
//!    to `BATCH_TOUCHED · √n`, or exactly at the budget. The fresh
//!    interactions still unrealized are then split in bulk: their agents'
//!    states are a multivariate hypergeometric split of the unrevealed
//!    counts, the starters' a second split of those in halves, the
//!    reactors' the rest, and the pairing between them a uniform matching
//!    (nested hypergeometric splits again),
//! 4. each (starter-state, reactor-state) group is split across its
//!    *outcome classes* — the faults of the mix merged by equal outcome —
//!    by a chain of conditional binomial draws (none for a one-class
//!    group), and each class's outcome applied *once* with a bulk count
//!    adjustment. A group whose mirror pair's classes match it up to the
//!    order of each outcome's states (the epidemic's (I, S) and (S, I))
//!    is split together with the mirror's group.
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
//! its count to a tally indexed by its omissive share's id; the driver
//! draws one binomial per share when it returns. `RunStats::omissive_steps` is
//! therefore exact in law at the end of each driver call, not batch by
//! batch.
//!
//! The first gap of a batch is an epoch's collision-free prefix, of
//! expected length `E[ℓ] = Σ_{j≥1} A(j) ≈ √(πn/8) ≈ 0.63·√n`; a batch
//! holds ≈ 1.65·√n interactions for its O(d²) splits and ≈ 5.5
//! collisions (the epidemic at n = 10⁸), so the per-interaction cost is
//! O(d²/√n) for `d` distinct states: *sub-constant* once n ≫ d⁴.
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
//! class by integer bounds fixed when the pair's entry is filled (no
//! draw for a one-class pair); no step draws a fault. Only a collision that meets a
//! state outside the snapshot (one a batch created) merges its pair's
//! classes over the full mix. An agent in flight is a *slot*: slot
//! `i < d` is the snapshot's state `i`, and slot `d + e` the `e`-th state
//! outside it that an outcome produced, interned once per state list, so
//! the touched-agent pool is a vector of counts aligned with the slots.
//! Every step writes the snapshot's counts in place and commits them
//! through one aligned writeback, and the driver re-snapshots only when a
//! state appears or dies.
//!
//! The runner surface is `run(`[`Epochs`](crate::Epochs)`, stop)`,
//! available only on backends implementing [`EpochBackend`]. The
//! interleaved path remains the bit-exact reference; this path
//! reproduces its law *distributionally* (certified by the
//! `interleaved_law_eq_epochs_*` rows of `tests/differential.rs` and by
//! this module's exact-law test against a sequential reference).

use std::cell::OnceCell;

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
/// function; `A(1) = 1`, and `A(j) = 0` past `⌊n/2⌋` (the agents run out).
/// With `t` agents touched the product starts at `(n−t)(n−t−1)`. For even
/// `t = 2h` that is `A(h+j)/A(h)`, so a uniform `U` gives the gap
/// `G = max{k : A(k) > U·A(h)} − h`; in logarithms, with
/// `E = −ln U ~ Exp(1)`, `G = max{k : ln A(k) > ln A(h) − E} − h`, one
/// [`dist::exp1`] draw and no logarithm per gap. For odd `t` the product
/// is the one at `t − 1` times `∏_{i<j} (n−t−1−2i)/(n−t+1−2i) =
/// 1 − 2j/(n−t+1)`, the survival function of `⌊K/2⌋` for `K` uniform on
/// `0..n−t+1`, so `G` is the even gap at `t − 1` cut at that independent
/// integer draw. One table of `ln A` serves every `t`.
///
/// The table is truncated at `5√n + 16` entries, where `A ≈ e⁻⁵⁰`; the
/// astronomically rare draw past the truncation extends the sum on the
/// fly. It is built at the first gap, not in [`EpochLengths::new`], which
/// keeps only the running product that gives the mean: a run of event
/// steps never reads it. Each thread keeps one per n (see
/// [`EpochLengths::shared`]).
pub(crate) struct EpochLengths {
    n: u64,
    jmax: u64,
    /// The table's last index, `min(jmax, 5√n + 16)`.
    jcap: u64,
    /// `ln A(j)` for `j ∈ 0..=jcap`, built at the first gap.
    ln_survival: OnceCell<Vec<f64>>,
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
        let (mut a, mut mean) = (1.0f64, 0.0);
        for j in 0..jcap {
            let jf = j as f64;
            a *= (nf - 2.0 * jf) * (nf - 1.0 - 2.0 * jf) / denom;
            mean += a;
        }
        EpochLengths {
            n,
            jmax,
            jcap,
            ln_survival: OnceCell::new(),
            mean,
        }
    }

    /// The sampler for `n`, kept per thread until `n` changes: a per-call
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

    /// `ln A(j)` for `j ∈ 0..=jcap`, built on first use.
    fn ln_survival(&self) -> &[f64] {
        self.ln_survival.get_or_init(|| {
            let mut l = 0.0;
            std::iter::once(0.0)
                .chain((0..self.jcap).map(|j| {
                    l += self.ln_factor(j);
                    l
                }))
                .collect()
        })
    }

    /// `ln(A(j+1)/A(j)) = ln(1 − 2j(2n−1−2j)/(n(n−1)))`, through `ln_1p`
    /// so that a factor near 1 keeps its relative precision.
    fn ln_factor(&self, j: u64) -> f64 {
        let (nf, jf) = (self.n as f64, j as f64);
        (-2.0 * jf * (2.0 * nf - 1.0 - 2.0 * jf) / (nf * (nf - 1.0))).ln_1p()
    }

    /// The gap before the next collision with `touched` agents touched.
    /// `A(touched / 2)` must be inside the table: it is when the table
    /// covers the full support, and a batch stops at `BATCH_TOUCHED · √n`
    /// touched agents, well inside `5√n` table entries.
    #[inline]
    pub(crate) fn gap(&self, touched: u64, rng: &mut SmallRng) -> u64 {
        let table = self.ln_survival();
        let h = touched / 2;
        let target = table[h as usize] - dist::exp1(rng);
        // `saturating_sub`: an `E` below half an ulp of `ln A(h)` leaves
        // the target at `ln A(h)`, which puts the inversion below `h`.
        let even = self.length_at(table, target).saturating_sub(h);
        if touched.is_multiple_of(2) {
            return even;
        }
        even.min(below(rng, self.n - touched + 1) / 2)
    }

    #[cfg(test)]
    fn sample(&self, rng: &mut SmallRng) -> u64 {
        self.gap(0, rng)
    }

    /// ℓ = max{ j : ln A(j) > target } for `target < 0`, on `table`, the
    /// built [`Self::ln_survival`].
    ///
    /// `ln A(j) ≈ −2j(j−1)/n − 4j³/(3n²)`. The quadratic term alone puts
    /// the answer at `j₀ = (1 + √(1 − 2n·target))/2`; the cubic one moves
    /// it down by `≈ j₀²/(3n) ≈ −target/6` (as `j₀² − j₀ = −n·target/2`).
    /// From there the start is the answer in all but ≈ 10⁻⁴ of the gaps
    /// at n = 10⁸ (one entry above it otherwise), and a walk on the table
    /// makes it exact.
    fn length_at(&self, table: &[f64], target: f64) -> u64 {
        let last = table.len() - 1;
        let nf = self.n as f64;
        let j0 = 0.5 * (1.0 + (1.0 - 2.0 * nf * target).sqrt());
        // `as` saturates a negative start to 0.
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let mut j = ((j0 + target * (1.0 / 6.0)) as usize).min(last);
        while j < last && table[j + 1] > target {
            j += 1;
        }
        // ln A(0) = 0 > target stops the walk down.
        while table[j] <= target {
            j -= 1;
        }
        let mut j = j as u64;
        if j < last as u64 {
            return j;
        }
        // The target fell below the whole table. If the table covers the
        // full support this simply means ℓ = jmax; a truncated table
        // (probability ≈ e⁻⁵⁰ at the first gap) extends the sum on the
        // fly.
        let mut l = table[last];
        while j < self.jmax {
            l += self.ln_factor(j);
            if l <= target {
                break;
            }
            j += 1;
        }
        j
    }
}

/// Event steps replace batches while `p_act · E[ℓ]`, the expected number
/// of non-inert interactions in a mean-length epoch, is below this.
/// Measured on the `epidemic-epoch` workload (n = 10⁸, T1 at rate 0.1,
/// one thread, seeds 7–16, 2-vCPU Xeon) with the threshold set per run,
/// each run next to one of the driver before one-draw splits, integer
/// class bounds, paired position draws and the tabulated ln n!, at its
/// own constants. Median ps per interaction (1 / interactions/s) over 4
/// rounds, this driver against that one: 24.6 / 30.4 at 3, 26.6 / 30.7 at
/// 4.5, 25.0 / 30.1 at 6 and 25.0 / 29.5 at 9. The host drifts by ±15%
/// between runs, so the optimum is flat over [3, 9]. Only figures taken
/// side by side compare.
const EVENT_STEP_BELOW: f64 = 6.0;

/// A batch ends after the collision that brings the touched agents to
/// `BATCH_TOUCHED · √n`. Measured like `EVENT_STEP_BELOW`, in ps per
/// interaction, this driver against the older one: 26.2 / 28.9 at 2,
/// 25.6 / 28.3 at 2.5, 25.7 / 29.9 at 3, 24.8 / 28.9 at 3.5 and 25.5 /
/// 29.2 at 4: flat over [2.5, 4]. At 3 a batch holds ≈ 1.65·√n
/// interactions and ≈ 5.5 collisions, and a seed runs ≈ 49 k batches.
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
    /// Reactor states drawn in bulk this step, per group; the matching
    /// takes them down to zero.
    reactors: Vec<u64>,
    /// Per-starter-group split of its matched reactors.
    split: Vec<u64>,
    /// The bulk interactions per ordered state pair, row-major.
    groups: Vec<u64>,
    /// Agents whose pre-states a collision revealed, per group.
    revealed: Vec<u64>,
    /// Agents that have interacted in the batch in flight.
    touched: u64,
    /// Its fresh interactions whose states are not drawn yet.
    fresh: u64,
    /// Snapshot agents whose pre-states are not drawn yet: the untouched
    /// ones and the `2 · fresh` of unrealized fresh interactions.
    unrevealed: u64,
    /// What the step in flight has drawn.
    step: Step,
    /// The states outside the snapshot that a commit adds.
    extras: Vec<(Q, u64)>,
    /// Outcome classes of a collision pair with a state outside the
    /// snapshot, merged over the full mix.
    classes: Vec<OutcomeClass>,
    /// Outcome classes of every ordered pair of the snapshot's states.
    table: ClassTable<Q>,
    /// The snapshot's non-inert ordered pairs, filled at each re-snapshot
    /// (a count can only reach zero through one).
    active: Vec<(usize, usize)>,
}

/// What a step has drawn and not yet committed. All zero between steps:
/// a commit drains it, and a failure ends the driver call.
#[derive(Default)]
struct Step {
    /// Post-interaction pool of the touched agents whose states are
    /// known, a count per slot (see `ClassTable::outside`). Always one
    /// entry per slot, so adding to it never grows it.
    pool: Vec<u64>,
    delta: RunStats,
    /// Interactions whose omissive split is still undrawn, per share id
    /// (see `ClassTable::shares`).
    undrawn: Vec<u64>,
    /// The error of the first failing class drawn: the step goes on, and
    /// is then dropped instead of committed.
    failed: Option<Box<EngineError>>,
}

impl Step {
    #[cold]
    #[inline(never)]
    fn fail(&mut self, e: &EngineError) {
        self.failed.get_or_insert_with(|| Box::new(e.clone()));
    }

    /// Records `k` interactions of `class` and pools their post-states.
    #[inline(always)]
    fn apply(&mut self, class: &OutcomeClass, k: u64) {
        if let Some(e) = &class.error {
            self.fail(e);
        }
        class
            .tally
            .record(class.changed, k, &mut self.delta, &mut self.undrawn);
        self.pool[class.post.0] += k;
        self.pool[class.post.1] += k;
    }
}

impl<Q: State> Scratch<Q> {
    fn new() -> Self {
        Scratch {
            snap: Vec::new(),
            counts: Vec::new(),
            stale: true,
            rem: Vec::new(),
            starters: Vec::new(),
            reactors: Vec::new(),
            split: Vec::new(),
            groups: Vec::new(),
            revealed: Vec::new(),
            touched: 0,
            fresh: 0,
            unrevealed: 0,
            step: Step::default(),
            extras: Vec::new(),
            classes: Vec::new(),
            table: ClassTable {
                states: Vec::new(),
                outside: Vec::new(),
                cells: Vec::new(),
                classes: Vec::new(),
                shares: Vec::new(),
            },
            active: Vec::new(),
        }
    }

    /// Snapshots the configuration's live groups, re-keys the class
    /// table to their states and lists their non-inert pairs.
    fn snapshot<C, F, O, M>(&mut self, config: &C, law: &mut Law<F, O, M>)
    where
        C: EpochBackend<State = Q>,
        F: Copy,
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
        M: Fn(&F) -> bool,
    {
        self.snap.clear();
        config.state_counts_into(&mut self.snap);
        self.counts.clear();
        self.counts.extend(self.snap.iter().map(|&(_, c)| c));
        self.table.sync(&self.snap);
        self.step.pool.clear();
        self.fit_step();
        let d = self.counts.len();
        self.active.clear();
        for i in 0..d {
            for j in 0..d {
                if !self.cell(i, j, law).inert {
                    self.active.push((i, j));
                }
            }
        }
        self.stale = false;
    }

    /// The entry of the pair `(states[i], states[j])`, filled on first
    /// read from the law's mix.
    #[inline]
    fn cell<F: Copy, O, M>(&mut self, i: usize, j: usize, law: &mut Law<F, O, M>) -> Cell
    where
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
        M: Fn(&F) -> bool,
    {
        match self.table.cells[i * self.counts.len() + j] {
            Some(cell) => cell,
            None => {
                let cell = self.table.fill(i, j, law);
                self.fit_step();
                cell
            }
        }
    }

    /// Grows the step's pool to a slot per state met and its tally to a
    /// count per share met.
    fn fit_step(&mut self) {
        let slots = self.table.states.len() + self.table.outside.len();
        if self.step.pool.len() < slots {
            self.step.pool.resize(slots, 0);
        }
        if self.step.undrawn.len() < self.table.shares.len() {
            self.step.undrawn.resize(self.table.shares.len(), 0);
        }
    }
}

/// The run-constant law of one driver call: the i.i.d. fault mix and how
/// one interaction resolves under a fault.
struct Law<'m, F, O, M> {
    fault_mix: &'m [(F, f64)],
    outcome_of: O,
    is_omissive: M,
    /// Omissive share of the mix: that of an inert pair's one class.
    omissive: f64,
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
            omissive: omissive_weight / weight,
        }
    }

    /// Appends the outcome classes of the pair `(s, r)` under the mix to
    /// `out` and returns their total weight. Each outcome is a pair of
    /// slots over `states`, an outcome state outside them interned into
    /// `outside`. Faults with equal `Ok` outcomes share a class; an `Err`
    /// outcome is a class of its own. The classes are drawn only once
    /// [`compile`] has fixed their bounds.
    fn classes_into<Q: State>(
        &mut self,
        s: &Q,
        r: &Q,
        states: &[Q],
        outside: &mut Vec<Q>,
        out: &mut Vec<OutcomeClass>,
    ) -> f64
    where
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
    {
        let first = out.len();
        for &(fault, w) in self.fault_mix {
            let omissive_weight = if (self.is_omissive)(&fault) { w } else { 0.0 };
            let (post, error) = match (self.outcome_of)(s, r, fault) {
                Ok((s2, r2)) => {
                    let pair = (slot_of(s2, states, outside), slot_of(r2, states, outside));
                    let same = out[first..]
                        .iter_mut()
                        .find(|c| c.error.is_none() && c.post == pair);
                    if let Some(class) = same {
                        class.weight += w;
                        class.omissive += omissive_weight;
                        continue;
                    }
                    (pair, None)
                }
                Err(e) => ((0, 0), Some(Box::new(e))),
            };
            out.push(OutcomeClass {
                post,
                error,
                weight: w,
                omissive: omissive_weight,
                below: 0,
                cond: 0.0,
                tally: Tally::Never,
                changed: false,
            });
        }
        let classes = &mut out[first..];
        // A class without omissive weight has share 0, even at weight 0
        // (a fault the mix gives no weight), where the division is 0/0.
        for class in classes.iter_mut().filter(|c| c.omissive != 0.0) {
            class.omissive /= class.weight;
        }
        classes.iter().map(|c| c.weight).sum()
    }
}

/// The slot of `q` over `states`: its index there, else `states.len()`
/// plus its index in `outside`, where it is interned on first sight.
fn slot_of<Q: PartialEq>(q: Q, states: &[Q], outside: &mut Vec<Q>) -> usize {
    if let Some(i) = states.iter().position(|x| *x == q) {
        return i;
    }
    let e = outside.iter().position(|x| *x == q).unwrap_or_else(|| {
        outside.push(q);
        outside.len() - 1
    });
    states.len() + e
}

/// The outcome classes of every ordered pair over one live state list,
/// each pair's filled on first read. Bulk groups, collisions, the inert
/// test and event steps all read it, so a pair's faults are merged once
/// per state list rather than once per interaction.
struct ClassTable<Q> {
    states: Vec<Q>,
    /// The outcome states outside `states`, in the order the classes met
    /// them: slot `states.len() + e` is `outside[e]`.
    outside: Vec<Q>,
    /// Per ordered pair, row-major over `states`, once filled.
    cells: Vec<Option<Cell>>,
    classes: Vec<OutcomeClass>,
    /// The omissive shares strictly between 0 and 1 met in this driver
    /// call, in the order met: share id `i` is `shares[i]`. A re-key
    /// keeps them, so the omission tallies of a whole call line up.
    shares: Vec<f64>,
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
    /// The mirror pair `(j, i)` of this pair `(i, j)` has the same
    /// classes up to the order of each outcome's two states, so a bulk
    /// group of either pair changes the counts, stats and tallies alike
    /// and the two groups split as one. The epidemic's (I, S) and (S, I)
    /// under T1 mirror: splitting each group on its own costs 7–9% more
    /// per interaction at n = 10⁸ (seeds 7–16 in one process, 2-vCPU
    /// Xeon).
    mirrored: bool,
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
        self.outside.clear();
        self.cells.clear();
        self.cells.resize(snap.len() * snap.len(), None);
        self.classes.clear();
    }

    /// The state in `slot`.
    fn state(&self, slot: usize) -> &Q {
        self.states
            .get(slot)
            .unwrap_or_else(|| &self.outside[slot - self.states.len()])
    }

    #[cold]
    #[inline(never)]
    fn fill<F: Copy, O, M>(&mut self, i: usize, j: usize, law: &mut Law<F, O, M>) -> Cell
    where
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
        M: Fn(&F) -> bool,
    {
        let start = self.classes.len();
        let weight = law.classes_into(
            &self.states[i],
            &self.states[j],
            &self.states,
            &mut self.outside,
            &mut self.classes,
        );
        let classes = &mut self.classes[start..];
        compile(classes, (i, j), weight, &mut self.shares);
        let inert = matches!(classes, [class] if class.error.is_none() && !class.changed);
        let d = self.states.len();
        let mut cell = Cell {
            start,
            end: self.classes.len(),
            inert,
            mirrored: false,
        };
        if let Some(mirror) = &mut self.cells[j * d + i] {
            let theirs = &self.classes[mirror.start..mirror.end];
            cell.mirrored = i != j
                && theirs.len() == self.classes.len() - start
                && theirs.iter().zip(&self.classes[start..]).all(|(a, b)| {
                    let swapped = (b.post.1, b.post.0);
                    (a.post == b.post || a.post == swapped)
                        && (a.error.is_none() && b.error.is_none())
                        && (a.cond, a.tally, a.changed) == (b.cond, b.tally, b.changed)
                });
            mirror.mirrored = cell.mirrored;
        }
        self.cells[i * d + j] = Some(cell);
        cell
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
    let inert_tally = Tally::of(law.omissive, &mut sc.table.shares);
    let mut undrawn = vec![0; sc.table.shares.len()];
    let mut remaining = budget;
    let result = 'run: {
        while remaining > 0 {
            if sc.stale {
                sc.snapshot(config, &mut law);
            }
            let active: f64 = sc.active.iter().map(|&p| weight(&sc.counts, p)).sum();
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
                // Geometric(p_act) by inversion, ⌊E / −ln(1 − p_act)⌋ for
                // E ~ Exp(1), cut at the budget (exact, the stretch is
                // memoryless).
                let inert = if active == 0.0 {
                    silent_stride
                } else {
                    // `as` saturates, so a stretch past u64 is cut too.
                    (dist::exp1(rng) / -(-p_act).ln_1p()) as u64
                }
                .min(remaining);
                if inert > 0 {
                    inert_tally.record(false, inert, stats, &mut undrawn);
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
    for (&share, &k) in sc.table.shares.iter().zip(&undrawn) {
        stats.omissive_steps += dist::binomial(k, share, rng);
    }
    result
}

/// The number of ordered pairs `(a, b)` of distinct agents in states
/// `(i, j)`: `c_i·(c_j − [i = j])`.
fn weight(counts: &[u64], (i, j): (usize, usize)) -> f64 {
    counts[i] as f64 * (counts[j] - u64::from(i == j)) as f64
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
    undrawn: &mut Vec<u64>,
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
    sc.revealed.clear();
    sc.revealed.resize(sc.counts.len(), 0);
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
        sc.collide(lengths.n, law, rng);
        steps += 1;
        if sc.touched >= stop_touched || steps == budget {
            break;
        }
    }

    // The unrealized fresh interactions in bulk. Their agents' states: a
    // multivariate hypergeometric split of the unrevealed counts (into
    // `reactors` at first); the starters' a split of those in halves, and
    // the reactors' the rest.
    sc.rem.clear();
    sc.rem
        .extend(sc.counts.iter().zip(&sc.revealed).map(|(&c, &r)| c - r));
    dist::multivariate_hypergeometric_into(&sc.rem, 2 * sc.fresh, &mut sc.reactors, rng);
    dist::multivariate_hypergeometric_into(&sc.reactors, sc.fresh, &mut sc.starters, rng);
    // Every agent drawn this batch leaves its snapshot count; the pool
    // pours the post-states back at the commit.
    for (i, c) in sc.counts.iter_mut().enumerate() {
        *c -= sc.reactors[i] + sc.revealed[i];
        sc.reactors[i] -= sc.starters[i];
    }

    // Uniform matching between starter and reactor slots: for each
    // starter group in turn, its partners are a hypergeometric split of
    // the reactors not yet matched.
    let d = sc.counts.len();
    sc.groups.clear();
    sc.groups.resize(d * d, 0);
    for (i, &a) in sc.starters.iter().enumerate() {
        if a == 0 {
            continue;
        }
        dist::multivariate_hypergeometric_into(&sc.reactors, a, &mut sc.split, rng);
        for (j, &k) in sc.split.iter().enumerate() {
            sc.reactors[j] -= k;
            sc.groups[i * d + j] = k;
        }
    }
    // Every (starter-state, reactor-state) pair group is then split
    // across its outcome classes, together with its mirror pair's if
    // their classes mirror, and applied once per class.
    for i in 0..d {
        for j in 0..d {
            let mut k = std::mem::take(&mut sc.groups[i * d + j]);
            if k == 0 {
                continue;
            }
            let cell = sc.cell(i, j, law);
            if cell.mirrored {
                k += std::mem::take(&mut sc.groups[j * d + i]);
            }
            apply_group(
                &sc.table.classes[cell.start..cell.end],
                k,
                &mut sc.step,
                rng,
            );
        }
    }
    if let Some(e) = sc.step.failed.take() {
        return Err(*e);
    }
    commit(config, stats, undrawn, sc);
    Ok(steps)
}

impl<Q: State> Scratch<Q> {
    /// Executes one collision: an interaction with at least one touched
    /// endpoint (roles by [`collision_roles`]), its outcome class drawn by
    /// weight.
    fn collide<F: Copy, O, M>(&mut self, n: u64, law: &mut Law<F, O, M>, rng: &mut SmallRng)
    where
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
        M: Fn(&F) -> bool,
    {
        let t = self.touched;
        let mut s = 0;
        let roles = collision_roles(rng, n, t, |rng| s = self.take_touched(t, law, rng));
        let r = match roles {
            (true, true) => self.take_touched(t - 1, law, rng),
            (true, false) => self.take_unrevealed(rng),
            (false, _) => {
                s = self.take_unrevealed(rng);
                self.take_touched(t, law, rng)
            }
        };
        // A pair with a state outside the snapshot merges its classes
        // over the full mix; every other pair reads the table.
        let d = self.counts.len();
        if s < d && r < d {
            let cell = self.cell(s, r, law);
            let class = OutcomeClass::draw(&self.table.classes[cell.start..cell.end], rng);
            self.step.apply(class, 1);
        } else {
            let (sq, rq) = (self.table.state(s).clone(), self.table.state(r).clone());
            self.classes.clear();
            let table = &mut self.table;
            let weight = law.classes_into(
                &sq,
                &rq,
                &table.states,
                &mut table.outside,
                &mut self.classes,
            );
            compile(&mut self.classes, (s, r), weight, &mut table.shares);
            self.fit_step();
            self.step.apply(OutcomeClass::draw(&self.classes, rng), 1);
        }
        self.touched += u64::from(roles != (true, true));
    }

    /// Takes one of `avail` touched agents uniformly (the `2 · fresh` of
    /// unrealized fresh interactions, then the pool) and returns its
    /// slot. An agent of an unrealized fresh interaction realizes it: both
    /// pre-states drawn from the unrevealed agents, its outcome class from
    /// the class table, and the partner's post-state stays in the pool.
    #[inline(always)]
    fn take_touched<F: Copy, O, M>(
        &mut self,
        avail: u64,
        law: &mut Law<F, O, M>,
        rng: &mut SmallRng,
    ) -> usize
    where
        O: FnMut(&Q, &Q, F) -> Result<(Q, Q), EngineError>,
        M: Fn(&F) -> bool,
    {
        let k = below(rng, avail);
        if k >= 2 * self.fresh {
            return pool_take(&mut self.step.pool, k - 2 * self.fresh);
        }
        self.fresh -= 1;
        let u = self.unrevealed;
        let (first, second) = below2(rng, u, u - 1);
        let i = self.reveal(first);
        let j = self.reveal(second);
        let cell = self.cell(i, j, law);
        let class = OutcomeClass::draw(&self.table.classes[cell.start..cell.end], rng);
        self.step.apply(class, 1);
        // Given k < 2·fresh, k's parity is a uniform role.
        let endpoint = if k.is_multiple_of(2) {
            class.post.0
        } else {
            class.post.1
        };
        self.step.pool[endpoint] -= 1;
        endpoint
    }

    /// Reveals one unrevealed agent uniformly (weights: snapshot counts
    /// minus everything revealed this batch) and returns its slot, its
    /// group's index.
    #[inline(always)]
    fn take_unrevealed(&mut self, rng: &mut SmallRng) -> usize {
        let k = below(rng, self.unrevealed);
        self.reveal(k)
    }

    /// Reveals the unrevealed agent at position `k` (agents counted group
    /// by group) and returns its group's index.
    #[inline(always)]
    fn reveal(&mut self, k: u64) -> usize {
        self.unrevealed -= 1;
        let avail = self.counts.iter().zip(&self.revealed).map(|(&c, &r)| c - r);
        let i = group_of(k, avail);
        self.revealed[i] += 1;
        i
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
    undrawn: &mut Vec<u64>,
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
    let counts = &sc.counts;
    let &(i, j) = pick(&sc.active, |&p| weight(counts, p), active, rng);
    let cell = sc.cell(i, j, law);
    sc.step.apply(
        OutcomeClass::draw(&sc.table.classes[cell.start..cell.end], rng),
        1,
    );
    if let Some(e) = sc.step.failed.take() {
        return Err(*e);
    }
    sc.counts[i] -= 1;
    sc.counts[j] -= 1;
    commit(config, stats, undrawn, sc);
    Ok(())
}

/// Commits a step: `sc.counts` already holds each snapshot state's agents
/// that the step did not draw; the step's pool pours its post-states
/// back into them slot by slot, and its slots past the snapshot are new
/// states. One aligned writeback, no keyed lookups; the step is left
/// empty, and the snapshot goes stale only if a state appeared or died.
/// The step's stats and omission tally then join the call's, whose
/// tally grows to a count per share met.
fn commit<C: EpochBackend>(
    config: &mut C,
    stats: &mut RunStats,
    undrawn: &mut Vec<u64>,
    sc: &mut Scratch<C::State>,
) {
    let d = sc.counts.len();
    for (c, u) in sc.counts.iter_mut().zip(&mut sc.step.pool) {
        *c += std::mem::take(u);
    }
    sc.extras.clear();
    for (q, u) in sc.table.outside.iter().zip(&mut sc.step.pool[d..]) {
        let c = std::mem::take(u);
        if c > 0 {
            sc.extras.push((q.clone(), c));
        }
    }
    config.commit_state_counts(&sc.counts, &sc.extras);
    sc.stale = !sc.extras.is_empty() || sc.counts.contains(&0);
    stats.merge(&std::mem::take(&mut sc.step.delta));
    undrawn.resize(sc.step.undrawn.len(), 0);
    for (u, k) in undrawn.iter_mut().zip(&mut sc.step.undrawn) {
        *u += std::mem::take(k);
    }
}

/// One outcome class of a state pair: the faults of the mix whose
/// outcomes agree, with their summed weight and its omissive share, and
/// how a draw picks and records it.
struct OutcomeClass {
    /// The post-states as slots (see [`ClassTable::outside`]); a failing
    /// class keeps the pre-states.
    post: (usize, usize),
    /// The error of an `Err` outcome.
    error: Option<Box<EngineError>>,
    weight: f64,
    /// The omissive share of `weight`, `omissive_weight / weight`; while
    /// `Law::classes_into` merges the class, its omissive weight.
    omissive: f64,
    /// A 53-bit uniform below this, and not below an earlier class's,
    /// draws this class; the last class's is 2⁵³.
    below: u64,
    /// The class's share of its own and the later classes' weight: the
    /// binomial probability of its link in a bulk group's split chain.
    cond: f64,
    tally: Tally,
    /// The outcome differs from the pre-states.
    changed: bool,
}

impl OutcomeClass {
    /// The class of one interaction of a pair with `classes` (no draw
    /// for one class): one integer compare per class passed.
    #[inline]
    fn draw<'a>(classes: &'a [OutcomeClass], rng: &mut SmallRng) -> &'a OutcomeClass {
        if let [only] = classes {
            return only;
        }
        let u = rng.next_u64() >> 11;
        classes
            .iter()
            .find(|c| u < c.below)
            .expect("the last class's bound is 2⁵³")
    }
}

/// Fixes how `classes`, those of the slot pair `(s, r)` of total
/// `weight`, are drawn and recorded: their bounds, split links, tallies
/// and whether they change the pair.
fn compile(
    classes: &mut [OutcomeClass],
    (s, r): (usize, usize),
    weight: f64,
    shares: &mut Vec<f64>,
) {
    const SCALE: f64 = (1u64 << 53) as f64;
    let last = classes.len() - 1;
    let (mut before, mut left) = (0.0, weight);
    for (t, class) in classes.iter_mut().enumerate() {
        before += class.weight;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let below = (before / weight * SCALE) as u64;
        class.below = if t == last { 1 << 53 } else { below };
        class.cond = if t == last || class.weight >= left {
            1.0
        } else {
            (class.weight / left).clamp(0.0, 1.0)
        };
        left -= class.weight;
        if class.error.is_some() {
            class.post = (s, r);
        }
        class.tally = Tally::of(class.omissive, shares);
        class.changed = class.post != (s, r);
    }
}

/// Where an interaction goes in the omission tallies.
#[derive(Clone, Copy, PartialEq)]
enum Tally {
    /// Its class holds no omissive fault.
    Never,
    /// Its class holds only omissive faults.
    Always,
    /// Its class mixes both, with omissive share `shares[id]`: counted
    /// in `undrawn[id]`, for the driver to split by one binomial draw.
    Share(usize),
}

impl Tally {
    /// The tally of omissive share `share`, interning it in `shares`.
    fn of(share: f64, shares: &mut Vec<f64>) -> Tally {
        if share == 0.0 {
            Tally::Never
        } else if share == 1.0 {
            Tally::Always
        } else {
            let id = shares.iter().position(|&p| p == share);
            Tally::Share(id.unwrap_or_else(|| {
                shares.push(share);
                shares.len() - 1
            }))
        }
    }

    /// Records `k` interactions in `stats`, and a mixed share's in
    /// `undrawn`.
    #[inline]
    fn record(self, changed: bool, k: u64, stats: &mut RunStats, undrawn: &mut [u64]) {
        // `RunStats::record_bulk` without its branches: the class of a
        // collision is a coin flip to a branch predictor.
        stats.steps += k;
        stats.omissive_steps += k * u64::from(self == Tally::Always);
        stats.changed_steps += k * u64::from(changed);
        stats.noop_steps += k * u64::from(!changed);
        if let Tally::Share(id) = self {
            undrawn[id] += k;
        }
    }
}

/// Splits a bulk group of `k` interactions of one pair across its
/// outcome `classes` (sequential conditional binomials, whose joint law
/// is the multinomial over the class weights; a one-class group needs no
/// draw), and applies each drawn class once.
fn apply_group(classes: &[OutcomeClass], k: u64, step: &mut Step, rng: &mut SmallRng) {
    let mut left = k;
    for class in classes {
        if left == 0 {
            break;
        }
        let kt = dist::binomial(left, class.cond, rng);
        left -= kt;
        if kt > 0 {
            step.apply(class, kt);
        }
    }
}

/// The item of non-empty `items` that a uniform draw over their `total`
/// weight lands in (the last one of positive weight on floating-point
/// residue past it).
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
        .or_else(|| items.iter().rev().find(|item| weight(item) > 0.0))
        .expect("a draw needs an item of positive weight")
}

/// Removes the agent at position `k` of the updated pool (agents counted
/// slot by slot) and returns its slot.
fn pool_take(pool: &mut [u64], k: u64) -> usize {
    let slot = group_of(k, pool.iter().copied());
    pool[slot] -= 1;
    slot
}

/// The group that position `k` falls in, positions counted group by
/// group over groups of `sizes`. It counts the groups that end at or
/// before `k`, with no branch on the sizes: which group a uniform
/// position falls in is a coin flip to a branch predictor.
fn group_of(k: u64, sizes: impl Iterator<Item = u64>) -> usize {
    let mut end = 0;
    sizes
        .map(|c| {
            end += c;
            end
        })
        .filter(|&end| end <= k)
        .count()
}

/// Whether the starter and the reactor of a collision are touched, with
/// `t ≥ 1` of `n` agents touched. `t·(2n−t−1)` of the `n(n−1)` ordered
/// pairs collide, and `t·(n−1)` of those have a touched starter. So,
/// conditioned on colliding, the starter is touched with probability
/// `(n−1)/(2n−t−1)`, a touched starter's reactor with probability
/// `(t−1)/(n−1)`, and an untouched starter's reactor always. One exact
/// integer draw `v = below(2n−t−1)` decides both: the starter is touched
/// iff `v < n−1`, and its reactor too iff `v < t−1`. `take_starter` runs
/// when the starter is touched, so that the caller takes it before its
/// reactor.
#[inline]
fn collision_roles(
    rng: &mut SmallRng,
    n: u64,
    t: u64,
    take_starter: impl FnOnce(&mut SmallRng),
) -> (bool, bool) {
    let v = below(rng, 2 * n - t - 1);
    if v < n - 1 {
        take_starter(rng);
        (true, v < t - 1)
    } else {
        (false, true)
    }
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

/// Two independent uniform draws from `0..a` and `0..b`, from one
/// `next_u64` unless it is rejected: Lemire's method over `0..a·b` (when
/// `a·b` fits in 64 bits), whose result `i·b + j` two multiplications
/// read off as `(i, j)` without a division (Brackett-Rozinsky and Lemire,
/// *Batched Ranged Random Integer Generation*, 2024). `x·a = i·2⁶⁴ + l`
/// and `l·b = j·2⁶⁴ + l'` give `x·a·b = (i·b + j)·2⁶⁴ + l'`, so the
/// rejection test on `l'` is the single draw's.
fn below2(rng: &mut SmallRng, a: u64, b: u64) -> (u64, u64) {
    debug_assert!(a > 0 && b > 0);
    let Some(p) = a.checked_mul(b) else {
        return (below(rng, a), below(rng, b));
    };
    let draw = |rng: &mut SmallRng| {
        let x = u128::from(rng.next_u64()) * u128::from(a);
        let y = u128::from(x as u64) * u128::from(b);
        ((x >> 64) as u64, (y >> 64) as u64, y as u64)
    };
    let (mut i, mut j, mut low) = draw(rng);
    if low < p {
        let threshold = p.wrapping_neg() % p;
        while low < threshold {
            (i, j, low) = draw(rng);
        }
    }
    (i, j)
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
        let table = lengths.ln_survival();
        assert_eq!(table.len(), 6); // full support cached
        for n in [10u64, 10_000] {
            let lengths = EpochLengths::new(n);
            let nf = n as f64;
            // ln A(j) as the log of the direct product's factors.
            let mut ln_a = 0.0f64;
            for (j, &cached) in lengths.ln_survival().iter().enumerate() {
                assert!(
                    (cached - ln_a).abs() < 1e-12 * ln_a.abs().max(1.0),
                    "n = {n}: ln A({j}) = {ln_a}, cached {cached}"
                );
                let jf = j as f64;
                ln_a += ((nf - 2.0 * jf) * (nf - 1.0 - 2.0 * jf) / (nf * (nf - 1.0))).ln();
            }
        }
        // A(1) = 1: the first interaction never collides, so ℓ ≥ 1.
        assert_eq!(table[..2], [0.0, 0.0]);
    }

    /// The table as an eager build in `new` would hold it.
    fn eager_table(lengths: &EpochLengths) -> Vec<f64> {
        let mut l = 0.0;
        (0..=lengths.jcap)
            .map(|j| {
                let at = l;
                l += lengths.ln_factor(j);
                at
            })
            .collect()
    }

    #[test]
    fn the_log_table_is_built_at_the_first_gap_as_an_eager_build_holds_it() {
        for n in [2u64, 3, 10, 10_000, 100_000_000] {
            let lengths = EpochLengths::new(n);
            assert!(lengths.ln_survival.get().is_none(), "n = {n}: built in new");
            let mut rng = SmallRng::seed_from_u64(n);
            lengths.gap(0, &mut rng);
            let lazy = lengths.ln_survival.get().expect("the first gap builds it");
            assert_eq!(lazy.len() as u64, lengths.jcap + 1, "n = {n}");
            assert_eq!(*lazy, eager_table(&lengths), "n = {n}");
        }
    }

    fn assert_same_table(got: &EpochLengths, n: u64) {
        let fresh = EpochLengths::new(n);
        assert_eq!(
            (got.n, got.jmax, got.jcap),
            (fresh.n, fresh.jmax, fresh.jcap),
            "n = {n}"
        );
        assert_eq!(got.ln_survival(), fresh.ln_survival(), "n = {n}");
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
        let expected: f64 = lengths.ln_survival()[1..].iter().map(|l| l.exp()).sum();
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
        // Targets ln A(h) − E as the gaps draw them, across t, and the
        // table's own entries and their neighbours, where an off-by-one
        // in the walk would show.
        for n in [2, 3, 4, 5, 10_000, 100_000_000u64] {
            let lengths = EpochLengths::new(n);
            let table = lengths.ln_survival();
            let last = table.len() - 1;
            let check = |target: f64| {
                let pp = table.partition_point(|&l| l > target);
                let got = lengths.length_at(table, target);
                if pp <= last {
                    assert_eq!(got, pp as u64 - 1, "n = {n}, target {target}");
                } else {
                    assert!(got >= last as u64, "n = {n}, target {target}");
                }
            };
            let mut rng = SmallRng::seed_from_u64(n);
            for _ in 0..1_000_000 {
                let h = below(&mut rng, last as u64 + 1) as usize;
                check(table[h] - dist::exp1(&mut rng));
            }
            for &l in table.iter().filter(|&&l| l < 0.0) {
                for target in [l, l.next_down(), l.next_up()] {
                    check(target);
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
                    let table = lengths.ln_survival();
                    let even = if h + j <= n / 2 {
                        (table[(h + j) as usize] - table[h as usize]).exp()
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
        let table = lengths.ln_survival();
        let last = *table.last().unwrap();
        assert!((table.len() as u64) <= lengths.jmax, "table is truncated");
        // The sum from ln A(0), with the table build's own terms.
        let direct = |target: f64| {
            let (mut j, mut l) = (0u64, 0.0f64);
            while j < n / 2 {
                let next = l + lengths.ln_factor(j);
                if next <= target {
                    break;
                }
                (j, l) = (j + 1, next);
            }
            j
        };
        // Down to ln A(n/2) = −∞.
        for target in [last, last - 2f64.ln(), last - 1e6f64.ln(), -1e4] {
            let got = lengths.length_at(table, target);
            assert_eq!(got, direct(target), "target {target}");
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

    #[test]
    fn a_class_the_mix_gives_no_weight_has_omissive_share_zero() {
        // At omission rate 1 the fault-free entry keeps weight 0; its
        // class must not key the omission tally with 0/0.
        let mix = [(false, 0.0), (true, 1.0)];
        let mut law = Law::new(&mix, |s: &u8, r: &u8, omit| tri(s, r, omit), |&f| f);
        let (mut outside, mut classes) = (Vec::new(), Vec::new());
        let weight = law.classes_into(&1, &1, &[0, 1, 2], &mut outside, &mut classes);
        assert_eq!(weight, 1.0);
        let shares: Vec<f64> = classes.iter().map(|c| c.omissive).collect();
        assert_eq!(shares, [0.0, 1.0]);
        assert!(outside.is_empty());
    }

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
    /// and a batch that biases a realized endpoint's role, draws a
    /// collision's starter touched off `(n−1)/(2n−t−1)`, or draws a
    /// collision's outcome class off its weight scores far above. Six
    /// cells force batches at three stops; one forces event steps
    /// throughout; and two start without state 2 or state 0, so a
    /// collision meets it outside the snapshot and merges its classes
    /// over the full mix.
    fn assert_end_law(runs: u32) {
        let batches = [[5, 4, 2], [5, 4, 3]].into_iter().flat_map(|groups| {
            [0.0, BATCH_TOUCHED, f64::INFINITY].map(|batch_touched| (groups, 0.0, batch_touched))
        });
        let cells = batches.chain([
            ([5, 4, 2], f64::INFINITY, BATCH_TOUCHED),
            ([5, 4, 0], 0.0, f64::INFINITY),
            ([0, 4, 5], 0.0, f64::INFINITY),
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
    fn omissive_steps_are_binomial_in_the_budget() {
        // Faults are i.i.d. per interaction, so a call's omissive steps
        // are Binomial(budget, 0.4) whatever the states. Fault 1 keeps
        // the reactor's state and fault 2 the starter's. A starter in
        // state 0 gives faults 0 and 1 one outcome, a class of omissive
        // share 0.25/0.85. From [0, 4, 5] only a collision with a state
        // outside the snapshot meets it, and at T = ∞ the whole budget is
        // one batch, so the call's last commit is the first to carry it.
        let mix = [(0u8, 0.6), (1, 0.25), (2, 0.15)];
        let (budget, runs) = (9u64, 20_000u32);
        let mut pmf = vec![0.6f64.powi(9)];
        for k in 1..=budget {
            let last = pmf[pmf.len() - 1];
            pmf.push(last * (budget - k + 1) as f64 / k as f64 * (0.4 / 0.6));
        }
        let cells = [
            ([0, 4, 5], 0.0, f64::INFINITY),
            ([0, 4, 5], 0.0, BATCH_TOUCHED),
            ([0, 4, 5], f64::INFINITY, BATCH_TOUCHED),
            ([3, 3, 3], 0.0, f64::INFINITY),
        ];
        for (seed, (groups, event_below, batch_touched)) in (17..).zip(cells) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut seen = vec![0u64; budget as usize + 1];
            for _ in 0..runs {
                let mut config = CountConfiguration::from_groups((0u8..3).zip(groups));
                let (mut stats, mut next) = (RunStats::default(), 0);
                let outcome = |s: &u8, r: &u8, f: u8| {
                    let (s2, r2) = ((s + 1) % 3, (s + r) % 3);
                    Ok(match f {
                        0 => (s2, r2),
                        1 => (s2, *r),
                        _ => (*s, r2),
                    })
                };
                let law = Law::new(&mix, outcome, |&f| f != 0);
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
                seen[stats.omissive_steps as usize] += 1;
            }
            // The tail of expected count below 5 pooled into one cell.
            let expected: Vec<f64> = pmf.iter().map(|p| p * f64::from(runs)).collect();
            let last = expected.iter().rposition(|&e| e >= 5.0).unwrap();
            let mut observed = seen[..=last].to_vec();
            let mut pooled = expected[..=last].to_vec();
            observed.push(seen[last + 1..].iter().sum());
            pooled.push(expected[last + 1..].iter().sum());
            let g = g_statistic(&observed, &pooled);
            let df = (observed.len() - 1) as f64;
            assert!(
                g < chi2_bound(df),
                "groups {groups:?}, E = {event_below}, T = {batch_touched}: G = {g:.1} for {seen:?}"
            );
        }
    }

    #[test]
    fn collision_roles_follow_the_colliding_pair_law() {
        // Of the t·(2n−t−1) colliding ordered pairs, t·(t−1) join two
        // touched agents, and t·(n−t) put the untouched agent on each
        // side. χ² on 2 degrees of freedom has survival e^(−x/2), so
        // −2 ln 10⁻⁶ is its p = 10⁻⁶ bound.
        let bound = -2.0 * 1e-6f64.ln();
        let draws = 100_000u64;
        for (n, t) in [(4u64, 2u64), (5, 3), (12, 7)] {
            let mut rng = SmallRng::seed_from_u64(100 * n + t);
            let (mut seen, mut taken) = ([0u64; 3], 0u64);
            for _ in 0..draws {
                let roles = collision_roles(&mut rng, n, t, |_| taken += 1);
                seen[match roles {
                    (true, true) => 0,
                    (true, false) => 1,
                    (false, true) => 2,
                    (false, false) => unreachable!("a collision has a touched endpoint"),
                }] += 1;
            }
            assert_eq!(taken, seen[0] + seen[1], "a touched starter is taken");
            let pairs = (2 * n - t - 1) as f64;
            let law = [t - 1, n - t, n - t].map(|k| k as f64 / pairs);
            let chi2: f64 = seen
                .iter()
                .zip(law)
                .map(|(&o, p)| (o as f64 - p * draws as f64).powi(2) / (p * draws as f64))
                .sum();
            assert!(chi2 < bound, "(n, t) = ({n}, {t}): χ² = {chi2:.2}");
        }
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

    /// The G statistic `2·Σ o·ln(o/e)` of `observed` counts against
    /// `expected` ones.
    fn g_statistic(observed: &[u64], expected: &[f64]) -> f64 {
        let g: f64 = observed
            .iter()
            .zip(expected)
            .filter(|&(&o, _)| o > 0)
            .map(|(&o, &e)| o as f64 * (o as f64 / e).ln())
            .sum();
        2.0 * g
    }

    /// The χ² quantile on `df` degrees of freedom that a statistic passes
    /// with probability 10⁻⁶ (Wilson and Hilferty's cube-root normal
    /// approximation, with 4.753 the normal's 1 − 10⁻⁶ quantile).
    fn chi2_bound(df: f64) -> f64 {
        let v = 2.0 / (9.0 * df);
        df * (1.0 - v + 4.753 * v.sqrt()).powi(3)
    }

    #[test]
    fn class_draws_follow_the_class_weights() {
        // Each fault's value becomes the starter's state: three classes.
        let mix = [(0u8, 0.5), (1, 0.3), (2, 0.2)];
        let states = [0u8, 1, 2];
        let mut law = Law::new(&mix, |_: &u8, r: &u8, f| Ok((f, *r)), |_| false);
        let (mut outside, mut classes, mut shares) = (Vec::new(), Vec::new(), Vec::new());
        let weight = law.classes_into(&0, &1, &states, &mut outside, &mut classes);
        compile(&mut classes, (0, 1), weight, &mut shares);
        assert_eq!(classes.len(), 3);
        let mut rng = SmallRng::seed_from_u64(5);
        let draws = 300_000u32;
        let mut seen = [0u64; 3];
        for _ in 0..draws {
            seen[OutcomeClass::draw(&classes, &mut rng).post.0] += 1;
        }
        let expected = mix.map(|(_, w)| w * f64::from(draws));
        let g = g_statistic(&seen, &expected);
        assert!(g < chi2_bound(2.0), "G = {g:.2} for {seen:?}");
        // Every fault maps the pair to itself: one class, and its draw
        // reads no RNG output.
        let mut law = Law::new(&mix, |s: &u8, r: &u8, _| Ok((*s, *r)), |_| false);
        let mut one = Vec::new();
        let weight = law.classes_into(&2, &2, &states, &mut outside, &mut one);
        compile(&mut one, (2, 2), weight, &mut shares);
        let before = rng.clone();
        assert_eq!(OutcomeClass::draw(&one, &mut rng).post, (2, 2));
        assert_eq!(rng, before, "a one-class draw consumes no RNG output");
    }

    #[test]
    fn paired_draws_are_uniform_on_the_product() {
        let (a, b, draws) = (3u64, 5u64, 150_000u32);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut seen = [0u64; 15];
        for _ in 0..draws {
            let (i, j) = below2(&mut rng, a, b);
            seen[(i * b + j) as usize] += 1;
        }
        let g = g_statistic(&seen, &[f64::from(draws) / 15.0; 15]);
        assert!(g < chi2_bound(14.0), "G = {g:.2} for {seen:?}");
        // A product past 64 bits takes one draw per range.
        let big = 1u64 << 40;
        for _ in 0..1_000 {
            let (i, j) = below2(&mut rng, big, big + 1);
            assert!(i < big && j <= big);
        }
    }

    #[test]
    fn mirror_pairs_split_as_one_only_when_their_classes_mirror() {
        // T1's epidemic: an omission keeps its side's state, so (I, S)
        // and (S, I) each infect at weight 0.95 and stay put otherwise.
        let mix = [(0u8, 0.9), (1, 0.05), (2, 0.05)];
        let t1 = |s: &bool, r: &bool, f: u8| -> Result<(bool, bool), EngineError> {
            let infected = *s || *r;
            Ok(match f {
                0 => (infected, infected),
                1 => (*s, infected),
                _ => (infected, *r),
            })
        };
        let mut law = Law::new(&mix, t1, |&f| f != 0);
        let mut table = Scratch::<bool>::new().table;
        table.sync(&[(true, 5), (false, 5)]);
        table.fill(0, 1, &mut law);
        let mirror = table.fill(1, 0, &mut law);
        assert!(mirror.mirrored && table.cells[1].unwrap().mirrored);
        // The three-state protocol's (0, 1) and (1, 0) have different
        // outcomes.
        let mut law = Law::new(&TRI_MIX, |s: &u8, r: &u8, omit| tri(s, r, omit), |&f| f);
        let mut table = Scratch::<u8>::new().table;
        table.sync(&[(0, 5), (1, 5), (2, 5)]);
        table.fill(0, 1, &mut law);
        assert!(!table.fill(1, 0, &mut law).mirrored);
        assert!(
            !table.fill(0, 0, &mut law).mirrored,
            "a pair is not its own mirror"
        );
    }

    /// The law of the infected count after `m` interactions of the
    /// epidemic under T1 at rate 0.1 from `i0` of `n` infected: a
    /// pure-birth chain, `P(i → i+1) = 0.95 · 2i(n−i)/(n(n−1))` (an
    /// omission on the susceptible side blocks the infection), stepped
    /// `m` times.
    fn birth_chain_law(n: usize, i0: usize, m: u64) -> Vec<f64> {
        let (nf, mut p) = (n as f64, vec![0.0; n + 1]);
        p[i0] = 1.0;
        let (mut lo, mut hi) = (i0, i0);
        for _ in 0..m {
            // Downward, so each step reads its predecessor's old mass.
            for i in (lo..=hi.min(n - 1)).rev() {
                let up = 0.95 * 2.0 * i as f64 * (nf - i as f64) / (nf * (nf - 1.0)) * p[i];
                p[i + 1] += up;
                p[i] -= up;
            }
            hi = (hi + 1).min(n);
            while p[lo] < 1e-300 && lo < hi {
                lo += 1;
            }
        }
        p
    }

    /// Fails at p < 10⁻⁶ per start (α stated before running): G-tests
    /// the infected count of 2·10⁴ `run(Epochs, Stop::steps(m))` runs at
    /// n = 10⁴ against the exact birth-chain law, the cells of expected
    /// count below 5 pooled per tail. From n/2 every step is a batch
    /// (p_act · E[ℓ] ≈ 31); from 100 the runs start in event steps and
    /// switch to batches near 500 infected, ≈ 8·10³ interactions in. The
    /// batches' splits take the envelope, HRUA and BTRD samplers.
    #[test]
    #[ignore = "exact law gate: run in release with --ignored"]
    fn epochs_follow_the_exact_epidemic_birth_chain() {
        use crate::{RateStrategy, StatsOnly, TwoWayModel, TwoWayRunner};
        use ppfts_population::TableProtocol;
        let n = 10_000usize;
        let epidemic = TableProtocol::builder(vec![false, true])
            .rule((true, false), (true, true))
            .rule((false, true), (true, true))
            .build();
        let runs = 20_000u64;
        for (i0, m) in [(n / 2, 4_000u64), (100, 16_000)] {
            let law = birth_chain_law(n, i0, m);
            let mut seen = vec![0u64; n + 1];
            for seed in 0..runs {
                let mut runner = TwoWayRunner::builder(TwoWayModel::T1, epidemic.clone())
                    .population(CountConfiguration::from_groups([
                        (true, i0),
                        (false, n - i0),
                    ]))
                    .adversary(RateStrategy::new(0.1))
                    .seed(seed)
                    .trace_sink(StatsOnly)
                    .build()
                    .unwrap();
                runner.run(Epochs, Stop::steps(m)).unwrap();
                seen[runner.config().count_state(&true)] += 1;
            }
            // Cells with an expected count of 5 or more, each tail
            // beyond them pooled into one cell.
            let expected: Vec<f64> = law.iter().map(|p| p * runs as f64).collect();
            let first = expected.iter().position(|&e| e >= 5.0).unwrap();
            let last = expected.iter().rposition(|&e| e >= 5.0).unwrap();
            let pool = |r: std::ops::Range<usize>| {
                (
                    seen[r.clone()].iter().sum::<u64>(),
                    expected[r].iter().sum::<f64>(),
                )
            };
            let mut cells = vec![pool(0..first), pool(last + 1..n + 1)];
            cells.extend((first..=last).map(|i| (seen[i], expected[i])));
            // An empty tail of expected count 0 is no cell.
            cells.retain(|&(o, e)| o > 0 || e > 0.0);
            let (observed, expected): (Vec<u64>, Vec<f64>) = cells.into_iter().unzip();
            let g = g_statistic(&observed, &expected);
            let df = (observed.len() - 1) as f64;
            assert!(
                g < chi2_bound(df),
                "i0 = {i0}, m = {m}: G = {g:.1} on {df} degrees of freedom"
            );
        }
    }
}
