//! The analysis suite: the fixed grid of lints and exhaustive checks the
//! `ppfts_analyze` gate runs over the layer-3 protocol library and the
//! layer-4 simulator embeddings (experiment E14).
//!
//! Every check carries an *expectation*: protocols the paper proves
//! omission-tolerant must come back `proved`; documented fragilities
//! (`Remainder` under omissions, `FlockOfBirds`' premature unanimity)
//! must come back with the expected counterexample — reported as notes —
//! and the seeded mutants (`graphical_unaddressed` SKnO, the
//! margin-leaking `ExactMajority` table) must be *caught*. An unexpected
//! outcome in either direction is an error: the suite gates both the
//! protocols and the analyzer itself.

use ppfts_core::{SimulatorState, Skno, SknoState, Token};
use ppfts_engine::{OneWayModel, OneWayRunner, TwoWayModel, TwoWayProgram, TwoWayRunner};
use ppfts_population::{Configuration, EnumerableStates, Semantics, TableProtocol, Topology};
use ppfts_protocols::majority_states::{SX, SY};
use ppfts_protocols::{
    ApproximateMajority, Epidemic, ExactMajority, FlockOfBirds, MajorityOpinion, Remainder,
};

use crate::checker::{check, Verdict};
use crate::finding::{Finding, Report, Severity};
use crate::lints::{
    lint_conservation, lint_output_stability, lint_reachability, lint_skno, lint_skno_addressing,
};

/// One row of the E14 verification grid.
#[derive(Clone, Debug)]
pub struct GridRow {
    /// Suite check id that produced the row.
    pub id: &'static str,
    /// Protocol or simulator under check.
    pub subject: String,
    /// Population size.
    pub n: usize,
    /// Omission budget `o`.
    pub budget: u32,
    /// Interaction model.
    pub model: &'static str,
    /// The property checked.
    pub property: &'static str,
    /// `proved`, `counterexample (expected)`, or a failure description.
    pub verdict: String,
}

/// Renders the E14 grid as a markdown table.
pub fn grid_table(rows: &[GridRow]) -> String {
    let mut out = String::from(
        "| check | subject | n | o | model | property | verdict |\n|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            r.id, r.subject, r.n, r.budget, r.model, r.property, r.verdict
        ));
    }
    out
}

/// Result of one suite check.
#[derive(Clone, Debug, Default)]
pub struct CheckResult {
    /// Findings (errors gate; notes document expected outcomes).
    pub findings: Vec<Finding>,
    /// E14 grid rows contributed by this check.
    pub grid: Vec<GridRow>,
}

/// A named check of the suite.
#[derive(Clone, Copy, Debug)]
pub struct SuiteCheck {
    /// Stable id, usable as a `ppfts_analyze` argument.
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
}

/// The full suite, in execution order.
pub const SUITE: &[SuiteCheck] = &[
    SuiteCheck {
        id: "epidemic",
        title: "Epidemic floods from every reachable config at n=10 under o in {0,1} (T1)",
    },
    SuiteCheck {
        id: "exact-majority",
        title: "ExactMajority lints + margin-2 decision survives o in {0,1} at n=10 (T1)",
    },
    SuiteCheck {
        id: "approximate-majority",
        title: "ApproximateMajority always stabilizes to agreement at n=8 under o in {0,1} (T1)",
    },
    SuiteCheck {
        id: "remainder",
        title: "Remainder is exact fault-free and (expectedly) fragile under one omission",
    },
    SuiteCheck {
        id: "flock",
        title: "FlockOfBirds premature unanimity is surfaced by the instability lint",
    },
    SuiteCheck {
        id: "skno",
        title: "SKnO bookkeeping probes + graphical change-run delivery proved on a path",
    },
    SuiteCheck {
        id: "skno-mutant",
        title: "Seeded unaddressed-SKnO mutant is rejected (lint + replayable counterexample)",
    },
    SuiteCheck {
        id: "majority-mutant",
        title: "Seeded margin-leaking ExactMajority table trips the conservation lint",
    },
    SuiteCheck {
        id: "sid",
        title: "SID embedding converges from every reachable config at n=3 (IO)",
    },
    SuiteCheck {
        id: "named-sid",
        title: "NamedSid embedding converges from every reachable config at n=3 (IO)",
    },
];

/// The ids of every suite check, in order.
pub fn suite_ids() -> impl Iterator<Item = &'static str> {
    SUITE.iter().map(|c| c.id)
}

/// Node caps: the protocol spaces are a few hundred configurations; the
/// simulator spaces run to the tens of thousands.
const COUNT_CAP: usize = 1_000_000;
const DENSE_CAP: usize = 400_000;

/// Runs one check by id; `None` for an unknown id.
pub fn run_check(id: &str) -> Option<CheckResult> {
    match id {
        "epidemic" => Some(check_epidemic()),
        "exact-majority" => Some(check_exact_majority()),
        "approximate-majority" => Some(check_approximate_majority()),
        "remainder" => Some(check_remainder()),
        "flock" => Some(check_flock()),
        "skno" => Some(check_skno()),
        "skno-mutant" => Some(check_skno_mutant()),
        "majority-mutant" => Some(check_majority_mutant()),
        "sid" => Some(check_sid()),
        "named-sid" => Some(check_named_sid()),
        _ => None,
    }
}

/// Runs the given checks (all of [`SUITE`] if `ids` is empty), collecting
/// findings and the E14 grid.
pub fn run_suite(ids: &[&str]) -> (Report, Vec<GridRow>) {
    let mut report = Report::new();
    let mut grid = Vec::new();
    let selected: Vec<&str> = if ids.is_empty() {
        suite_ids().collect()
    } else {
        ids.to_vec()
    };
    for id in selected {
        if let Some(result) = run_check(id) {
            report.extend(result.findings);
            grid.extend(result.grid);
        }
    }
    (report, grid)
}

/// Shared verdict plumbing for a count-space convergence obligation that
/// the paper expects to *hold*.
// One parameter per grid column: a bundling struct would only rename them.
#[allow(clippy::too_many_arguments)]
fn expect_proved_counts<P>(
    id: &'static str,
    subject: &str,
    model: TwoWayModel,
    program: &P,
    initial: &[P::State],
    budget: u32,
    property: &'static str,
    pred: impl FnMut(&[P::State]) -> bool,
    findings: &mut Vec<Finding>,
    grid: &mut Vec<GridRow>,
) where
    P: TwoWayProgram,
    P::State: std::fmt::Debug,
{
    let n = initial.len();
    let verdict = match check(model, program, initial, budget, COUNT_CAP, pred) {
        Err(err) => {
            findings.push(Finding::warning(
                "convergence",
                subject,
                format!("n={n} o={budget}: exploration aborted: {err}"),
            ));
            "aborted".to_string()
        }
        Ok(check) => match check.verdict {
            Verdict::Proved => format!("proved ({} configs)", check.configs),
            Verdict::Counterexample(trace) => {
                findings.push(Finding::error(
                    "convergence",
                    subject,
                    format!(
                        "n={n} o={budget}: reachable configuration {:?} stabilizes without the \
                         property ({} steps from the initial configuration)",
                        trace.witness,
                        trace.steps.len()
                    ),
                ));
                "COUNTEREXAMPLE".to_string()
            }
        },
    };
    grid.push(GridRow {
        id,
        subject: subject.to_string(),
        n,
        budget,
        model: model_name(model),
        property,
        verdict,
    });
}

fn model_name(model: TwoWayModel) -> &'static str {
    match model {
        TwoWayModel::Tw => "TW",
        TwoWayModel::T1 => "T1",
        TwoWayModel::T2 => "T2",
        TwoWayModel::T3 => "T3",
    }
}

fn epidemic_initial(infected: usize, clean: usize) -> Vec<bool> {
    [vec![true; infected], vec![false; clean]].concat()
}

fn check_epidemic() -> CheckResult {
    let mut result = CheckResult::default();
    for budget in [0, 1] {
        expect_proved_counts(
            "epidemic",
            "Epidemic",
            TwoWayModel::T1,
            &Epidemic,
            &epidemic_initial(1, 9),
            budget,
            "one seed floods all 10 agents",
            |c| c.iter().all(|&b| b),
            &mut result.findings,
            &mut result.grid,
        );
    }
    // Soundness of the other constant: with no seed, nothing ever flips.
    expect_proved_counts(
        "epidemic",
        "Epidemic",
        TwoWayModel::T1,
        &Epidemic,
        &epidemic_initial(0, 10),
        1,
        "no seed stays all-clean",
        |c| c.iter().all(|&b| !b),
        &mut result.findings,
        &mut result.grid,
    );
    result
}

fn majority_weight(q: &ppfts_protocols::ExactMajorityState) -> i64 {
    match *q {
        SX => 1,
        SY => -1,
        _ => 0,
    }
}

fn check_exact_majority() -> CheckResult {
    let mut result = CheckResult::default();
    let table = TableProtocol::from_protocol(&ExactMajority);
    result
        .findings
        .extend(lint_reachability(&table, &[SX, SY], "ExactMajority"));
    result
        .findings
        .extend(lint_conservation(&table, majority_weight, "ExactMajority"));
    let initial = [vec![SX; 6], vec![SY; 4]].concat();
    for budget in [0, 1] {
        // A T1 omission on a cancellation pair shifts the strong margin
        // #SX - #SY by exactly one, so margin 2 decides X under o = 1.
        expect_proved_counts(
            "exact-majority",
            "ExactMajority",
            TwoWayModel::T1,
            &ExactMajority,
            &initial,
            budget,
            "6X/4Y decides X",
            |c| {
                c.iter()
                    .all(|q| ExactMajority.output(q) == MajorityOpinion::X)
            },
            &mut result.findings,
            &mut result.grid,
        );
    }
    result
}

fn check_approximate_majority() -> CheckResult {
    let mut result = CheckResult::default();
    let initial = [
        vec![ppfts_protocols::MajorityState::X; 5],
        vec![ppfts_protocols::MajorityState::Y; 3],
    ]
    .concat();
    for budget in [0, 1] {
        // Approximate majority guarantees *agreement*, not the majority
        // value, under adversarial scheduling — so the obligation is
        // output-constant terminal SCCs, nothing more.
        expect_proved_counts(
            "approximate-majority",
            "ApproximateMajority",
            TwoWayModel::T1,
            &ApproximateMajority,
            &initial,
            budget,
            "always stabilizes to unanimous output",
            |c| {
                let mut outputs = c.iter().map(|q| ApproximateMajority.output(q));
                let Some(first) = outputs.next() else {
                    return true;
                };
                outputs.all(|y| y == first)
            },
            &mut result.findings,
            &mut result.grid,
        );
    }
    result
}

fn check_remainder() -> CheckResult {
    let mut result = CheckResult::default();
    let parity = Remainder::new(2, 0);
    let inputs = [1u32, 1, 1, 1];
    let initial = parity.initial_configuration(&inputs);
    expect_proved_counts(
        "remainder",
        "Remainder(mod 2)",
        TwoWayModel::T1,
        &parity,
        initial.as_slice(),
        0,
        "sum 4 = 0 mod 2, fault-free",
        |c| c.iter().all(|q| q.opinion),
        &mut result.findings,
        &mut result.grid,
    );

    // Under one omission the absorbed partial sum can be lost, flipping
    // the answer — the paper's motivating non-tolerant protocol. The
    // analyzer must *find* that counterexample (and it must replay).
    let check = check(
        TwoWayModel::T1,
        &parity,
        initial.as_slice(),
        1,
        COUNT_CAP,
        |c| c.iter().all(|q| q.opinion),
    );
    let verdict = match check {
        Err(err) => {
            result.findings.push(Finding::warning(
                "convergence",
                "Remainder(mod 2)",
                format!("o=1 exploration aborted: {err}"),
            ));
            "aborted".to_string()
        }
        Ok(check) => match check.verdict {
            Verdict::Proved => {
                result.findings.push(Finding::error(
                    "self-test",
                    "Remainder(mod 2)",
                    "the checker proved omission-tolerance for a protocol known to be fragile — \
                     the omission adversary is not being explored",
                ));
                "proved (UNEXPECTED)".to_string()
            }
            Verdict::Counterexample(trace) => {
                let replayed = TwoWayRunner::builder(TwoWayModel::T1, parity)
                    .config(initial)
                    .build()
                    .ok()
                    .and_then(|mut runner| {
                        runner.apply_planned(trace.steps.clone()).ok()?;
                        Some(runner.config().as_slice() == trace.witness.as_slice())
                    });
                if replayed == Some(true) {
                    result.findings.push(Finding::note(
                        "convergence",
                        "Remainder(mod 2)",
                        format!(
                            "documented fragility: {} omission-bearing steps reach {:?}, which \
                             stabilizes with the wrong parity (trace replayed through the engine)",
                            trace.steps.len(),
                            trace.witness
                        ),
                    ));
                    "counterexample (expected, replayed)".to_string()
                } else {
                    result.findings.push(Finding::error(
                        "self-test",
                        "Remainder(mod 2)",
                        "the extracted counterexample failed to replay through TwoWayRunner",
                    ));
                    "counterexample (REPLAY FAILED)".to_string()
                }
            }
        },
    };
    result.grid.push(GridRow {
        id: "remainder",
        subject: "Remainder(mod 2)".to_string(),
        n: inputs.len(),
        budget: 1,
        model: "T1",
        property: "sum survives one omission",
        verdict,
    });
    result
}

fn check_flock() -> CheckResult {
    let mut result = CheckResult::default();
    let flock = FlockOfBirds::new(2);
    let initial = flock.initial_configuration(&[true, true, false]);
    match lint_output_stability(
        TwoWayModel::Tw,
        &flock,
        initial.as_slice(),
        COUNT_CAP,
        |q| q.detected,
        // Documented: below-threshold unanimity on "false" is premature
        // until the counts assemble. A note, not a gate.
        Severity::Note,
        "FlockOfBirds(k=2)",
    ) {
        Err(err) => result.findings.push(Finding::warning(
            "output-instability",
            "FlockOfBirds(k=2)",
            format!("exploration aborted: {err}"),
        )),
        Ok(flips) if flips.is_empty() => result.findings.push(Finding::error(
            "self-test",
            "FlockOfBirds(k=2)",
            "the instability lint found no flips on a protocol with documented premature \
             unanimity — the lint is blind",
        )),
        Ok(flips) => {
            let count = flips.len();
            result.findings.extend(flips.into_iter().take(1));
            result.findings.push(Finding::note(
                "output-instability",
                "FlockOfBirds(k=2)",
                format!("{count} prematurely-unanimous configurations (expected; first shown)"),
            ));
        }
    }
    result
}

/// The crafted mid-transaction scenario behind the graphical SKnO checks
/// (o = 0, path 0–1–2, protocol `('a','b') -> ('f','g')`, all else noop):
///
/// * vertex 0 announced `'a'`; vertex 1 consumed it (now `'g'`) and holds
///   the change run addressed back to vertex 0;
/// * vertex 2 has announced `'a'` too; its run token sits in vertex 1's
///   queue, not yet consumed.
///
/// Addressed SKnO from here always lands on sims `['f', 'g', 'a']`:
/// vertex 0's pending transaction completes with `starter_out('a','b') =
/// 'f'`, and vertex 2's announcement either cancels or completes as a
/// noop. The unaddressed mutant lets vertex 2 absorb the change run
/// addressed to vertex 0 — committing `'f'` at the wrong vertex and
/// leaving vertex 0 pending forever with its `'a'` intact.
fn skno_scenario() -> (
    TableProtocol<char>,
    Topology,
    Vec<SknoState<char>>,
    [char; 3],
) {
    let protocol = TableProtocol::builder(vec!['a', 'b', 'f', 'g'])
        .rule(('a', 'b'), ('f', 'g'))
        .build();
    let path = Topology::from_edges(3, [(0, 1), (1, 2)]).expect("path of 3 is connected");
    let states = vec![
        SknoState::with_queue(0, 0, 'a', true, []),
        SknoState::with_queue(
            0,
            1,
            'g',
            false,
            [
                Token::Change {
                    origin: 1,
                    target: 0,
                    starter: 'a',
                    reactor: 'b',
                    index: 1,
                },
                Token::Run {
                    origin: 2,
                    state: 'a',
                    index: 1,
                },
            ],
        ),
        SknoState::with_queue(0, 2, 'a', true, []),
    ];
    (protocol, path, states, ['f', 'g', 'a'])
}

fn check_skno() -> CheckResult {
    let mut result = CheckResult::default();

    // Bookkeeping probes: anonymous and graphical, o = 1 so the
    // joker-completion probe has a missing index to cover.
    let anonymous = Skno::new(Epidemic, 1);
    result.findings.extend(lint_skno(&anonymous, &true, &false));
    let ring = Topology::ring(4).expect("ring of 4");
    let graphical = Skno::graphical(Epidemic, 1, ring);
    result.findings.extend(lint_skno(&graphical, &true, &false));

    // Exhaustive delivery proof for the addressed graphical simulator.
    let (protocol, path, states, expected) = skno_scenario();
    let skno = Skno::graphical(protocol, 0, path);
    let verdict = match check(OneWayModel::I3, &skno, &states, 0, DENSE_CAP, |c| {
        (0..3).all(|v| *c[v].simulated() == expected[v])
    }) {
        Err(err) => {
            result.findings.push(Finding::warning(
                "convergence",
                "SKnO[graphical]",
                format!("exploration aborted: {err}"),
            ));
            "aborted".to_string()
        }
        Ok(check) => match check.verdict {
            Verdict::Proved => format!("proved ({} configs)", check.configs),
            Verdict::Counterexample(trace) => {
                result.findings.push(Finding::error(
                    "convergence",
                    "SKnO[graphical]",
                    format!(
                        "addressed change runs failed to deliver: {} steps reach a terminal \
                         component with the wrong simulated states",
                        trace.steps.len()
                    ),
                ));
                "COUNTEREXAMPLE".to_string()
            }
        },
    };
    result.grid.push(GridRow {
        id: "skno",
        subject: "SKnO[graphical, path(3)]".to_string(),
        n: 3,
        budget: 0,
        model: "I3",
        property: "pending transactions complete at the right vertex",
        verdict,
    });
    result
}

fn check_skno_mutant() -> CheckResult {
    let mut result = CheckResult::default();

    // The static lint must flag the mutant on its own.
    let ring = Topology::ring(4).expect("ring of 4");
    let mutant = Skno::graphical_unaddressed(Epidemic, 1, ring);
    let lint = lint_skno_addressing(&mutant, &true, &false);
    if lint.is_empty() {
        result.findings.push(Finding::error(
            "self-test",
            "SKnO[unaddressed mutant]",
            "the graphical-addressing lint did not fire on the unaddressed mutant",
        ));
    } else {
        result.findings.push(Finding::note(
            "graphical-addressing",
            "SKnO[unaddressed mutant]",
            "lint correctly rejects the mutant: a change run addressed elsewhere was consumed",
        ));
    }

    // And the model checker must find the deadlock dynamically, with a
    // trace that replays through the engine.
    let (protocol, path, states, expected) = skno_scenario();
    let mutant = Skno::graphical_unaddressed(protocol, 0, path.clone());
    let check = check(OneWayModel::I3, &mutant, &states, 0, DENSE_CAP, |c| {
        (0..3).all(|v| *c[v].simulated() == expected[v])
    });
    let verdict = match check {
        Err(err) => {
            result.findings.push(Finding::error(
                "self-test",
                "SKnO[unaddressed mutant]",
                format!("mutant exploration aborted: {err}"),
            ));
            "aborted".to_string()
        }
        Ok(check) => match check.verdict {
            Verdict::Proved => {
                result.findings.push(Finding::error(
                    "self-test",
                    "SKnO[unaddressed mutant]",
                    "the model checker proved the unaddressed mutant correct — the seeded \
                     change-run deadlock went undetected",
                ));
                "proved (UNEXPECTED)".to_string()
            }
            Verdict::Counterexample(trace) => {
                let replayed = OneWayRunner::builder(OneWayModel::I3, mutant)
                    .topology(path)
                    .config(Configuration::new(states))
                    .build()
                    .ok()
                    .and_then(|mut runner| {
                        runner.apply_planned(trace.steps.clone()).ok()?;
                        Some(runner.config().as_slice() == trace.witness.as_slice())
                    });
                if replayed == Some(true) {
                    result.findings.push(Finding::note(
                        "convergence",
                        "SKnO[unaddressed mutant]",
                        format!(
                            "mutant correctly rejected: {} steps starve the announcer at vertex \
                             0 (trace replayed through OneWayRunner)",
                            trace.steps.len()
                        ),
                    ));
                    "counterexample (expected, replayed)".to_string()
                } else {
                    result.findings.push(Finding::error(
                        "self-test",
                        "SKnO[unaddressed mutant]",
                        "the mutant counterexample failed to replay through OneWayRunner",
                    ));
                    "counterexample (REPLAY FAILED)".to_string()
                }
            }
        },
    };
    result.grid.push(GridRow {
        id: "skno-mutant",
        subject: "SKnO[unaddressed mutant, path(3)]".to_string(),
        n: 3,
        budget: 0,
        model: "I3",
        property: "seeded deadlock is found and replayed",
        verdict,
    });
    result
}

fn check_majority_mutant() -> CheckResult {
    let mut result = CheckResult::default();
    // Seeded bug: the cancellation rule demotes only one side, leaking
    // the conserved strong margin #SX - #SY by one per firing.
    let mut builder = TableProtocol::builder(ExactMajority.states());
    for rule in TableProtocol::from_protocol(&ExactMajority).rules() {
        let (from, to) = (*rule.from(), *rule.to());
        if from == (SX, SY) {
            builder = builder.rule(from, (SX, ppfts_protocols::majority_states::WY));
        } else {
            builder = builder.rule(from, to);
        }
    }
    let mutant = builder.build();
    let caught = lint_conservation(&mutant, majority_weight, "ExactMajority[mutant]");
    if caught.is_empty() {
        result.findings.push(Finding::error(
            "self-test",
            "ExactMajority[mutant]",
            "the conservation lint did not catch the seeded margin leak",
        ));
    } else {
        result.findings.push(Finding::note(
            "conservation",
            "ExactMajority[mutant]",
            format!("lint correctly rejects the mutant: {}", caught[0].message),
        ));
    }
    result
}

fn check_sid() -> CheckResult {
    let mut result = CheckResult::default();
    let sid = ppfts_core::Sid::new(Epidemic);
    let initial = ppfts_core::Sid::<Epidemic>::initial(&[true, false, false]);
    simulator_convergence_row(
        "sid",
        "SID",
        &sid,
        initial.as_slice(),
        "one seed floods all simulated states",
        |c| c.iter().all(|s| *s.simulated()),
        &mut result,
    );
    result
}

fn check_named_sid() -> CheckResult {
    let mut result = CheckResult::default();
    let named = ppfts_core::NamedSid::new(Epidemic, 3);
    let initial = ppfts_core::NamedSid::<Epidemic>::initial(&[true, false, false]);
    simulator_convergence_row(
        "named-sid",
        "NamedSid",
        &named,
        initial.as_slice(),
        "one seed floods all simulated states",
        |c| c.iter().all(|s| *s.simulated()),
        &mut result,
    );
    result
}

/// Shared plumbing for a fault-free convergence obligation on a simulator
/// embedding under IO.
fn simulator_convergence_row<P>(
    id: &'static str,
    subject: &str,
    program: &P,
    initial: &[P::State],
    property: &'static str,
    pred: impl FnMut(&[P::State]) -> bool,
    result: &mut CheckResult,
) where
    P: ppfts_engine::OneWayProgram,
{
    let n = initial.len();
    let verdict = match check(OneWayModel::Io, program, initial, 0, DENSE_CAP, pred) {
        Err(err) => {
            result.findings.push(Finding::warning(
                "convergence",
                subject,
                format!("exploration aborted: {err}"),
            ));
            "aborted".to_string()
        }
        Ok(check) => match check.verdict {
            Verdict::Proved => format!("proved ({} configs)", check.configs),
            Verdict::Counterexample(trace) => {
                result.findings.push(Finding::error(
                    "convergence",
                    subject,
                    format!(
                        "{} steps reach a terminal component violating the property",
                        trace.steps.len()
                    ),
                ));
                "COUNTEREXAMPLE".to_string()
            }
        },
    };
    result.grid.push(GridRow {
        id,
        subject: subject.to_string(),
        n,
        budget: 0,
        model: "IO",
        property,
        verdict,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_suite_id_resolves() {
        for check in SUITE {
            assert!(run_check(check.id).is_some(), "id {}", check.id);
        }
        assert!(run_check("no-such-check").is_none());
    }

    #[test]
    fn the_full_suite_is_clean() {
        let (report, grid) = run_suite(&[]);
        assert!(
            !report.has_errors(),
            "unexpected errors:\n{}",
            report.table()
        );
        assert!(!grid.is_empty());
        // Acceptance grid: Epidemic and ExactMajority proved at n = 10
        // under both budgets; both seeded mutants caught.
        for (subject, budget) in [
            ("Epidemic", 0),
            ("Epidemic", 1),
            ("ExactMajority", 0),
            ("ExactMajority", 1),
        ] {
            assert!(
                grid.iter().any(|r| r.subject == subject
                    && r.n == 10
                    && r.budget == budget
                    && r.verdict.starts_with("proved")),
                "missing proof for {subject} at o={budget}:\n{}",
                grid_table(&grid)
            );
        }
        assert!(grid
            .iter()
            .any(|r| r.id == "skno-mutant" && r.verdict == "counterexample (expected, replayed)"));
    }

    #[test]
    fn suite_ids_are_stable_and_lowercase() {
        for id in suite_ids() {
            assert_eq!(id, id.to_lowercase());
        }
    }
}
