//! Dense ↔ count backend agreement, and interleaved ↔ epoch-path
//! agreement.
//!
//! Three contracts tie the execution paths together:
//!
//! 1. **Exact replay** — a configuration of anonymous agents is fully
//!    captured by its state multiset, so folding a dense run's step
//!    records `(old_starter, old_reactor) → (new_starter, new_reactor)`
//!    through `CountConfiguration::apply_outcome` must land on *exactly*
//!    the dense run's final multiset, for any interaction sequence
//!    (scheduled or scripted), any model and any fault pattern.
//! 2. **Distributional agreement (backends)** — both backends realize
//!    the same uniform-pairing law, so convergence-step distributions of
//!    the ported protocols must agree across backends within sampling
//!    tolerance.
//! 3. **Distributional agreement (epoch path)** — the batch-epoch path
//!    (`run_epochs_until`) draws whole collision-free epochs in bulk but
//!    realizes the same uniform-pair, i.i.d.-fault process as the
//!    interleaved reference, so convergence-step distributions must agree
//!    across *execution paths* too — fault-free and under binomially
//!    thinned omissions, where a fixed-budget comparison of the state and
//!    the omission count pins the law down to a few percent — and
//!    schedules the bulk thinning cannot honor
//!    (no fixed i.i.d. rate) must be rejected with the typed
//!    [`EngineError::EpochIncompatible`] before any state is mutated.
//!
//! CI runs this suite with a bounded `PROPTEST_CASES` on every push.

use proptest::prelude::*;

use ppfts::engine::convergence::stably;
use ppfts::engine::{
    EngineError, ExecBackend, FullTrace, HorizonStrategy, OneWayModel, OneWayProgram, OneWayRunner,
    RateStrategy, StatsOnly, TwoWayModel, TwoWayRunner,
};
use ppfts::population::{
    Configuration, CountConfiguration, Multiset, Population, Semantics, State, TableProtocol,
    TwoWayProtocol,
};
use ppfts::protocols::{
    majority_states, ApproximateMajority, Epidemic, ExactMajority, ExactMajorityState,
    LeaderElection, LeaderState, MajorityState, Pairing, PairingState, Remainder, RemainderState,
};

/// One-way epidemic used by the one-way replay case.
struct Or;
impl OneWayProgram for Or {
    type State = bool;
    fn on_receive(&self, s: &bool, r: &bool) -> bool {
        *s || *r
    }
}

fn pairing_state_strategy() -> impl Strategy<Value = PairingState> {
    prop_oneof![
        Just(PairingState::Paired),
        Just(PairingState::Consumer),
        Just(PairingState::Producer),
        Just(PairingState::Spent),
    ]
}

/// Replays a full trace onto the count view of `initial` and asserts the
/// final multisets agree exactly.
fn assert_replay_matches<Q: State>(
    initial: &Configuration<Q>,
    trace_records: impl Iterator<Item = (Q, Q, Q, Q)>,
    dense_final: &Configuration<Q>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut counts = CountConfiguration::from_dense(initial);
    for (old_s, old_r, new_s, new_r) in trace_records {
        counts
            .apply_outcome(&old_s, &old_r, (new_s, new_r))
            .expect("dense run only interacts present agents");
    }
    prop_assert_eq!(
        counts.counts(),
        Population::counts(dense_final),
        "replayed multiset diverged from the dense run"
    );
    prop_assert_eq!(counts.len(), Population::len(dense_final));
    Ok(())
}

/// Steps-to-convergence of one seeded run on any backend, or `None` if
/// the budget ran out.
fn steps_to<P, C>(
    protocol: P,
    population: C,
    seed: u64,
    budget: u64,
    batch: u64,
    pred: impl Fn(&Multiset<P::State>) -> bool,
) -> Option<u64>
where
    P: TwoWayProtocol,
    C: ExecBackend<State = P::State>,
{
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, protocol)
        .population(population)
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    let out = runner.run_batched_until(budget, batch, stably(|c: &C| pred(&c.counts()), 2));
    out.is_satisfied().then(|| out.steps())
}

/// Mean convergence steps over a fixed seed set; every seed must converge.
fn mean_steps<P, C>(
    make_protocol: impl Fn() -> P,
    make_population: impl Fn() -> C,
    seeds: std::ops::Range<u64>,
    budget: u64,
    pred: impl Fn(&Multiset<P::State>) -> bool + Copy,
) -> f64
where
    P: TwoWayProtocol,
    C: ExecBackend<State = P::State>,
{
    let mut total = 0f64;
    let mut count = 0usize;
    for seed in seeds {
        let steps = steps_to(make_protocol(), make_population(), seed, budget, 64, pred)
            .expect("seed must converge within budget");
        total += steps as f64;
        count += 1;
    }
    total / count as f64
}

/// Steps-to-convergence of one seeded *epoch-path* run on the count
/// backend, or `None` if the budget ran out. Fault-free (`Tw`), so the
/// epoch path can never reject.
fn epoch_steps_to<P>(
    protocol: P,
    population: CountConfiguration<P::State>,
    seed: u64,
    budget: u64,
    pred: impl Fn(&Multiset<P::State>) -> bool,
) -> Option<u64>
where
    P: TwoWayProtocol,
{
    let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, protocol)
        .population(population)
        .seed(seed)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    let out = runner
        .run_epochs_until(
            budget,
            stably(|c: &CountConfiguration<P::State>| pred(&c.counts()), 2),
        )
        .expect("fault-free count-backed runs are epoch compatible");
    out.is_satisfied().then(|| out.steps())
}

/// Mean epoch-path convergence steps over a fixed seed set; every seed
/// must converge.
fn epoch_mean_steps<P>(
    make_protocol: impl Fn() -> P,
    make_population: impl Fn() -> CountConfiguration<P::State>,
    seeds: std::ops::Range<u64>,
    budget: u64,
    pred: impl Fn(&Multiset<P::State>) -> bool + Copy,
) -> f64
where
    P: TwoWayProtocol,
{
    let mut total = 0f64;
    let mut count = 0usize;
    for seed in seeds {
        let steps = epoch_steps_to(make_protocol(), make_population(), seed, budget, pred)
            .expect("seed must converge within budget");
        total += steps as f64;
        count += 1;
    }
    total / count as f64
}

/// Mean convergence steps of the omissive epidemic (`T1`, i.i.d. rate
/// adversary) on the count backend, through either execution path.
fn omissive_epidemic_mean_steps(
    n: usize,
    rate: f64,
    seeds: std::ops::Range<u64>,
    budget: u64,
    epoch_path: bool,
) -> f64 {
    let mut total = 0f64;
    let mut count = 0usize;
    for seed in seeds {
        let pred = stably(
            |c: &CountConfiguration<bool>| c.counts().count(&true) == c.counts().len(),
            2,
        );
        let mut runner = TwoWayRunner::builder(TwoWayModel::T1, Epidemic)
            .population(CountConfiguration::from_groups([(true, 1), (false, n - 1)]))
            .adversary(RateStrategy::new(rate))
            .seed(seed)
            .trace_sink(StatsOnly)
            .build()
            .expect("valid population");
        let out = if epoch_path {
            runner
                .run_epochs_until(budget, pred)
                .expect("a rate adversary has a fixed i.i.d. rate")
        } else {
            runner.run_batched_until(budget, 64, pred)
        };
        assert!(out.is_satisfied(), "seed must converge within budget");
        total += out.steps() as f64;
        count += 1;
    }
    total / count as f64
}

/// Per-seed `[infected count, omission fraction]` of the `T1` epidemic
/// after exactly `budget` interactions on the count backend, through
/// either execution path.
fn omissive_epidemic_at_budget(
    n: usize,
    infected: usize,
    rate: f64,
    seeds: std::ops::Range<u64>,
    budget: u64,
    epoch_path: bool,
) -> Vec<[f64; 2]> {
    seeds
        .map(|seed| {
            let mut runner = TwoWayRunner::builder(TwoWayModel::T1, Epidemic)
                .population(CountConfiguration::from_groups([
                    (true, infected),
                    (false, n - infected),
                ]))
                .adversary(RateStrategy::new(rate))
                .seed(seed)
                .trace_sink(StatsOnly)
                .build()
                .expect("valid population");
            if epoch_path {
                runner
                    .run_epochs(budget)
                    .expect("a rate adversary has a fixed i.i.d. rate");
            } else {
                runner
                    .run_batched(budget, 64)
                    .expect("T1 permits the rate adversary's faults");
            }
            assert_eq!(runner.stats().steps, budget);
            [
                runner.config().count_state(&true) as f64,
                runner.stats().omission_fraction(),
            ]
        })
        .collect()
}

/// Sample mean and its standard error.
fn mean_and_se(xs: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let k = xs.clone().count() as f64;
    let mean = xs.clone().sum::<f64>() / k;
    let var = xs.map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1.0);
    (mean, (var / k).sqrt())
}

/// Fixed-budget law contract under `T1` omissions: after exactly `m`
/// interactions, the epoch path and the interleaved reference agree on
/// the mean infected count and the mean omission fraction within 4
/// standard errors. Budget truncation is exact on the epoch path, so
/// there is no stop-granularity offset, and 2000 seeds resolve a bias of
/// a few percent in either quantity — which the stopping-time ratio
/// bands below cannot.
#[test]
fn epoch_omissive_epidemic_agrees_at_a_fixed_budget() {
    // From 10% infected, m = 1200 ends near the midpoint of the
    // epidemic, where the infected count is most sensitive to the rate.
    let (n, infected, rate, m, seeds) = (1000, 100, 0.1, 1200, 0..2000);
    assert_paths_agree_at_budget(n, infected, rate, seeds, m);
}

/// The fixed-budget contract across the event/epoch switch: at n = 10⁵
/// (E[ℓ] ≈ 198) the driver takes event steps while fewer than ≈ 1.5% of
/// the agents are infected or susceptible, and epochs in between. From
/// 1% infected, m = 5·10⁵ interactions carry the epidemic into the epoch
/// branch and back out of it, ending with ≈ 740 susceptible agents. 30
/// seeds resolve a ≈ 5% bias in that count (a 10% error in the event
/// steps' skip rate moves it ≈ 12%).
#[test]
fn epoch_omissive_epidemic_agrees_across_the_event_switch() {
    assert_paths_agree_at_budget(100_000, 1_000, 0.1, 0..30, 500_000);
}

/// Runs the `T1` epidemic for exactly `m` interactions through both
/// paths and asserts that the mean infected count and the mean omission
/// fraction agree within 4 standard errors.
fn assert_paths_agree_at_budget(
    n: usize,
    infected: usize,
    rate: f64,
    seeds: std::ops::Range<u64>,
    m: u64,
) {
    let interleaved = omissive_epidemic_at_budget(n, infected, rate, seeds.clone(), m, false);
    let epoch = omissive_epidemic_at_budget(n, infected, rate, seeds, m, true);
    for (i, what) in ["infected count", "omission fraction"]
        .into_iter()
        .enumerate()
    {
        let (a, sa) = mean_and_se(interleaved.iter().map(|r| r[i]));
        let (b, sb) = mean_and_se(epoch.iter().map(|r| r[i]));
        let se = sa.hypot(sb);
        assert!(
            (a - b).abs() < 4.0 * se,
            "{what} diverged at n = {n}, budget {m}: interleaved {a:.4} vs epoch {b:.4} \
             (SE {se:.4})"
        );
    }
}

proptest! {
    /// Exact replay, two-way: a seeded Pairing run under any two-way
    /// model with a rate adversary, replayed record-by-record onto
    /// counts.
    #[test]
    fn two_way_replay_yields_identical_multisets(
        states in prop::collection::vec(pairing_state_strategy(), 2..14),
        rate in 0u32..=100,
        seed in 0u64..10_000,
        steps in 0u64..300,
    ) {
        let initial = Configuration::new(states);
        let mut runner = TwoWayRunner::builder(TwoWayModel::T1, Pairing)
            .config(initial.clone())
            .adversary(RateStrategy::new(rate as f64 / 100.0))
            .seed(seed)
            .trace_sink(FullTrace::new())
            .build()
            .unwrap();
        runner.run(steps).unwrap();
        let trace = runner.take_trace().unwrap();
        assert_replay_matches(
            &initial,
            trace.records().iter().map(|r| (
                r.old_starter,
                r.old_reactor,
                r.new_starter,
                r.new_reactor,
            )),
            runner.config(),
        )?;
    }

    /// Exact replay, one-way: the epidemic under an omissive one-way
    /// model — omissive steps are recorded too and must replay exactly.
    #[test]
    fn one_way_replay_yields_identical_multisets(
        infected in prop::collection::vec(any::<bool>(), 2..14),
        rate in 0u32..=100,
        seed in 0u64..10_000,
        steps in 0u64..300,
    ) {
        let initial = Configuration::new(infected);
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Or)
            .config(initial.clone())
            .adversary(RateStrategy::new(rate as f64 / 100.0))
            .seed(seed)
            .trace_sink(FullTrace::new())
            .build()
            .unwrap();
        runner.run(steps).unwrap();
        let trace = runner.take_trace().unwrap();
        assert_replay_matches(
            &initial,
            trace.records().iter().map(|r| (
                r.old_starter,
                r.old_reactor,
                r.new_starter,
                r.new_reactor,
            )),
            runner.config(),
        )?;
    }

    /// Distributional agreement on the epidemic: the mean convergence
    /// step count over a window of seeds must agree across backends
    /// within sampling tolerance. (Both backends realize the same
    /// uniform-pair law but consume the RNG differently, so only the
    /// distribution — not individual runs — can match.)
    #[test]
    fn epidemic_convergence_distributions_agree(
        n in 30usize..80,
        seed_base in 0u64..1_000,
    ) {
        let table = TableProtocol::from_protocol(&Epidemic);
        let pred = |m: &Multiset<bool>| m.count(&true) == m.len();
        let budget = 500_000;
        let seeds = 16;
        let dense = mean_steps(
            || table.clone(),
            || {
                Configuration::from_groups([(true, 1), (false, n - 1)])
            },
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let count = mean_steps(
            || table.clone(),
            || CountConfiguration::from_groups([(true, 1), (false, n - 1)]),
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let ratio = dense / count;
        prop_assert!(
            (0.5..=2.0).contains(&ratio),
            "epidemic mean steps diverged: dense {dense:.0} vs count {count:.0} (n = {n})"
        );
    }

    /// Distributional agreement on approximate majority (a protocol with
    /// a non-monotone trajectory) and leader election (quadratic
    /// meeting times) at a fixed size, seed-windowed.
    #[test]
    fn ported_protocol_distributions_agree(
        seed_base in 0u64..1_000,
    ) {
        // Approximate majority, 2:1 margin at n = 48. The comparison is
        // steps-to-consensus (either opinion): the X-majority wins w.h.p.
        // but an unlucky seed may flip, and that seed must still count.
        let budget = 2_000_000;
        let seeds = 12;
        let pred = |m: &Multiset<MajorityState>| {
            m.count(&MajorityState::X) == m.len() || m.count(&MajorityState::Y) == m.len()
        };
        let groups = [(MajorityState::X, 32), (MajorityState::Y, 16)];
        let dense = mean_steps(
            || ApproximateMajority,
            || Configuration::from_groups(groups),
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let count = mean_steps(
            || ApproximateMajority,
            || CountConfiguration::from_groups(groups),
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let ratio = dense / count;
        prop_assert!(
            (0.4..=2.5).contains(&ratio),
            "approximate-majority mean steps diverged: dense {dense:.0} vs count {count:.0}"
        );

        // Leader election at n = 32.
        let pred = |m: &Multiset<LeaderState>| m.count(&LeaderState::Leader) == 1;
        let dense = mean_steps(
            || LeaderElection,
            || LeaderElection::initial(32),
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let count = mean_steps(
            || LeaderElection,
            || LeaderElection::initial_counts(32),
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let ratio = dense / count;
        prop_assert!(
            (0.4..=2.5).contains(&ratio),
            "leader-election mean steps diverged: dense {dense:.0} vs count {count:.0}"
        );
    }

    /// Distributional agreement across *execution paths*: the batch-epoch
    /// sampler draws whole collision-free epochs in bulk, but the epidemic
    /// convergence-step distribution must match the interleaved reference
    /// within sampling tolerance. Seed-windowed, fault-free.
    #[test]
    fn epoch_epidemic_convergence_distributions_agree(
        n in 100usize..240,
        seed_base in 0u64..1_000,
    ) {
        let pred = |m: &Multiset<bool>| m.count(&true) == m.len();
        let budget = 500_000;
        let seeds = 12;
        let interleaved = mean_steps(
            || Epidemic,
            || CountConfiguration::from_groups([(true, 1), (false, n - 1)]),
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let epoch = epoch_mean_steps(
            || Epidemic,
            || CountConfiguration::from_groups([(true, 1), (false, n - 1)]),
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let ratio = interleaved / epoch;
        prop_assert!(
            (0.5..=2.0).contains(&ratio),
            "epidemic mean steps diverged: interleaved {interleaved:.0} vs epoch {epoch:.0} (n = {n})"
        );
    }

    /// Epoch-path distributional agreement on the remaining ported
    /// protocols of the contract: exact majority (cancellation +
    /// conversion, margin-carrying strongs) and remainder mod 3 (active
    /// absorption + opinion flooding), both seed-windowed and fault-free.
    #[test]
    fn epoch_ported_protocol_distributions_agree(
        seed_base in 0u64..1_000,
    ) {
        // Exact majority, 2:1 margin at n = 600: X wins deterministically,
        // so the comparison is steps until no Y-opinion agent remains.
        // There E[ℓ] ≈ 15 and 4/9 of the first pairs can change, so the
        // run starts on the epoch branch and ends on event steps.
        let budget = 2_000_000;
        let seeds = 10;
        let pred = |m: &Multiset<ExactMajorityState>| {
            m.count(&majority_states::SY) == 0 && m.count(&majority_states::WY) == 0
        };
        let groups = [(majority_states::SX, 400), (majority_states::SY, 200)];
        let interleaved = mean_steps(
            || ExactMajority,
            || CountConfiguration::from_groups(groups),
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let epoch = epoch_mean_steps(
            || ExactMajority,
            || CountConfiguration::from_groups(groups),
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let ratio = interleaved / epoch;
        prop_assert!(
            (0.4..=2.5).contains(&ratio),
            "exact-majority mean steps diverged: interleaved {interleaved:.0} vs epoch {epoch:.0}"
        );

        // Remainder mod 3 on 100 unit inputs (100 ≡ 1, so the true output
        // is `true`): converged once one active survives and every agent
        // votes `true`. Every agent starts active, so every pair can
        // change and E[ℓ] ≈ 6.3 puts the first steps on the epoch branch.
        let remainder = Remainder::new(3, 1);
        let inputs = [1u32; 100];
        assert!(remainder.expected(&inputs));
        let pred = |m: &Multiset<RemainderState>| {
            let actives: usize = m
                .iter()
                .filter(|(q, _)| q.value.is_some())
                .map(|(_, c)| c)
                .sum();
            actives == 1 && m.iter().all(|(q, _)| q.opinion)
        };
        let interleaved = mean_steps(
            || remainder,
            || remainder.initial_counts(&inputs),
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let epoch = epoch_mean_steps(
            || remainder,
            || remainder.initial_counts(&inputs),
            seed_base..seed_base + seeds,
            budget,
            pred,
        );
        let ratio = interleaved / epoch;
        prop_assert!(
            (0.4..=2.5).contains(&ratio),
            "remainder mean steps diverged: interleaved {interleaved:.0} vs epoch {epoch:.0}"
        );
    }

    /// Epoch-path distributional agreement under faults: `T1` omissions
    /// at a fixed i.i.d. rate are thinned binomially per bulk group on
    /// the epoch path and drawn per-interaction on the interleaved path —
    /// the same law, so the slowed convergence distributions must still
    /// agree.
    #[test]
    fn epoch_omissive_epidemic_distributions_agree(
        rate_pct in 5u32..35,
        seed_base in 0u64..1_000,
    ) {
        let n = 150;
        let rate = f64::from(rate_pct) / 100.0;
        let budget = 500_000;
        let seeds = 12;
        let interleaved =
            omissive_epidemic_mean_steps(n, rate, seed_base..seed_base + seeds, budget, false);
        let epoch =
            omissive_epidemic_mean_steps(n, rate, seed_base..seed_base + seeds, budget, true);
        let ratio = interleaved / epoch;
        prop_assert!(
            (0.5..=2.0).contains(&ratio),
            "omissive epidemic mean steps diverged at rate {rate}: \
             interleaved {interleaved:.0} vs epoch {epoch:.0}"
        );
    }
}

/// Typed rejection: the epoch path thins omissions binomially from a
/// fixed i.i.d. rate, so a schedule-shaped adversary (here a horizon
/// strategy) must be refused with `EpochIncompatible` — and the refusal
/// must leave the runner untouched, so the interleaved path can still
/// honor the exact schedule afterwards.
#[test]
fn epoch_path_rejects_non_iid_omission_schedules() {
    let mut runner = TwoWayRunner::builder(TwoWayModel::T1, Epidemic)
        .population(CountConfiguration::from_groups([(true, 1), (false, 63)]))
        .adversary(HorizonStrategy::new(0.5, 1_000))
        .seed(1)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    let err = runner.run_epochs(10_000).unwrap_err();
    assert!(matches!(err, EngineError::EpochIncompatible { .. }));
    assert_eq!(runner.steps(), 0, "rejection must precede any mutation");
    runner
        .run(10_000)
        .expect("interleaved path honors the schedule");
    assert_eq!(runner.steps(), 10_000);
}

/// The acceptance fixture in miniature (the full n = 10⁶ run lives in
/// `benches/e11_giant.rs`): epidemic on counts through
/// `run_batched_until` + `stably`, with the dense backend agreeing at a
/// size it can still comfortably sweep in a debug test.
#[test]
fn epidemic_converges_on_both_backends_at_ten_thousand() {
    let n = 10_000usize;
    let pred = |m: &Multiset<bool>| m.count(&true) == m.len();
    let count_steps = steps_to(
        Epidemic,
        CountConfiguration::from_groups([(true, 1), (false, n - 1)]),
        7,
        200_000_000,
        4096,
        pred,
    )
    .expect("count backend converges");
    let dense_steps = steps_to(
        Epidemic,
        Configuration::from_groups([(true, 1), (false, n - 1)]),
        7,
        200_000_000,
        4096,
        pred,
    )
    .expect("dense backend converges");
    // Θ(n log n) ≈ 9.2 n; both backends must land in the same decade.
    let expected = n as f64 * (n as f64).ln();
    for (label, steps) in [("count", count_steps), ("dense", dense_steps)] {
        let ratio = steps as f64 / expected;
        assert!(
            (0.2..=5.0).contains(&ratio),
            "{label} backend took {steps} steps, expected ≈ {expected:.0}"
        );
    }
}
