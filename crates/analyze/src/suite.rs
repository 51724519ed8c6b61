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
//! protocols and the analyzer itself. Each grid row is an
//! `expect_proved` or an `expect_refuted` obligation.

use std::fmt;

use ppfts_core::{SimulatorState, Skno, SknoState, Token};
use ppfts_engine::{Family, OneWayModel, Program, TwoWayModel};
use ppfts_population::{EnumerableStates, Semantics, TableProtocol, Topology};
use ppfts_protocols::majority_states::{SX, SY};
use ppfts_protocols::{
    ApproximateMajority, Epidemic, ExactMajority, FlockOfBirds, MajorityOpinion, MajorityState,
    Remainder,
};

use crate::checker::{check, ExploreError, Trace, Verdict};
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
    pub model: String,
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
    /// Whether `ppfts_analyze --smoke` runs it (count spaces, lints).
    pub smoke: bool,
    /// Runs the check, adding its findings and grid rows to the result.
    pub run: fn(&mut CheckResult),
}

/// The full suite, in execution order: the one list of checks.
pub const SUITE: &[SuiteCheck] = &[
    SuiteCheck {
        id: "epidemic",
        title: "Epidemic floods from every reachable config at n=10 under o in {0,1} (T1)",
        smoke: true,
        run: check_epidemic,
    },
    SuiteCheck {
        id: "exact-majority",
        title: "ExactMajority lints + margin-2 decision survives o in {0,1} at n=10 (T1)",
        smoke: true,
        run: check_exact_majority,
    },
    SuiteCheck {
        id: "approximate-majority",
        title: "ApproximateMajority always stabilizes to agreement at n=8 under o in {0,1} (T1)",
        smoke: true,
        run: check_approximate_majority,
    },
    SuiteCheck {
        id: "remainder",
        title: "Remainder is exact fault-free and (expectedly) fragile under one omission",
        smoke: true,
        run: check_remainder,
    },
    SuiteCheck {
        id: "flock",
        title: "FlockOfBirds premature unanimity is surfaced by the instability lint",
        smoke: true,
        run: check_flock,
    },
    SuiteCheck {
        id: "skno",
        title: "SKnO bookkeeping probes + graphical change-run delivery proved on a path",
        smoke: false,
        run: check_skno,
    },
    SuiteCheck {
        id: "skno-mutant",
        title: "Seeded unaddressed-SKnO mutant is rejected (lint + replayable counterexample)",
        smoke: false,
        run: check_skno_mutant,
    },
    SuiteCheck {
        id: "majority-mutant",
        title: "Seeded margin-leaking ExactMajority table trips the conservation lint",
        smoke: true,
        run: check_majority_mutant,
    },
    SuiteCheck {
        id: "sid",
        title: "SID embedding converges from every reachable config at n=3 (IO)",
        smoke: false,
        run: check_sid,
    },
    SuiteCheck {
        id: "named-sid",
        title: "NamedSid embedding converges from every reachable config at n=3 (IO)",
        smoke: false,
        run: check_named_sid,
    },
];

/// The ids of every suite check, in order.
fn suite_ids() -> impl Iterator<Item = &'static str> {
    SUITE.iter().map(|c| c.id)
}

/// Node cap of every exhaustive check. The largest space of the suite
/// (`named-sid`) has 691 configurations; the cap only stops a runaway.
const NODE_CAP: usize = 1_000_000;

/// Runs one check by id, stamping its id on its grid rows; `None` for an
/// unknown id.
fn run_check(id: &str) -> Option<CheckResult> {
    let check = SUITE.iter().find(|c| c.id == id)?;
    let mut result = CheckResult::default();
    (check.run)(&mut result);
    result.grid.iter_mut().for_each(|row| row.id = check.id);
    Some(result)
}

/// Runs the given checks (all of [`SUITE`] if `ids` is empty), collecting
/// findings and the E14 grid.
pub fn run_suite(ids: &[&str]) -> (Report, Vec<GridRow>) {
    let (mut report, mut grid) = (Report::new(), Vec::new());
    let all: Vec<&str> = suite_ids().collect();
    let ids = if ids.is_empty() { &all } else { ids };
    for result in ids.iter().filter_map(|id| run_check(id)) {
        report.extend(result.findings);
        grid.extend(result.grid);
    }
    (report, grid)
}

// One parameter per grid column and checker input.
#[allow(clippy::too_many_arguments)]
impl CheckResult {
    /// Obligation that `program` under `model`, started from `initial`
    /// and facing an adversary with up to `budget` omissions, stabilizes
    /// into `pred` from every reachable configuration. The row reads
    /// `proved (k configs)`; a counterexample is an error.
    fn expect_proved<M, P>(
        &mut self,
        subject: &str,
        model: M,
        program: &P,
        initial: &[P::State],
        budget: u32,
        property: &'static str,
        pred: impl FnMut(&[P::State]) -> bool,
    ) where
        M: Family + fmt::Display,
        P: Program<M>,
    {
        let n = initial.len();
        let verdict = match check(model, program, initial, budget, NODE_CAP, pred) {
            Err(err) => {
                let message = format!("n={n} o={budget}: exploration aborted: {err}");
                self.findings
                    .push(Finding::warning("convergence", subject, message));
                "aborted".to_string()
            }
            Ok(check) => match check.verdict {
                Verdict::Proved => format!("proved ({} configs)", check.configs),
                Verdict::Counterexample(trace) => {
                    let message = format!(
                        "n={n} o={budget}: reachable configuration {:?} stabilizes without the \
                         property ({} steps from the initial configuration)",
                        trace.witness,
                        trace.steps.len()
                    );
                    self.findings
                        .push(Finding::error("convergence", subject, message));
                    "COUNTEREXAMPLE".to_string()
                }
            },
        };
        self.grid.push(GridRow {
            id: "",
            subject: subject.to_string(),
            n,
            budget,
            model: model.to_string(),
            property,
            verdict,
        });
    }

    /// Obligation that the checker *refutes* `pred` for `program` (a
    /// documented fragility or a seeded mutant), with a counterexample
    /// that replays through a runner built from the same model, program
    /// and topology. The row reads `counterexample (expected, replayed)`
    /// and `note` reports the trace; a proof, an abort or a trace that
    /// does not replay is an error.
    fn expect_refuted<M, P>(
        &mut self,
        subject: &str,
        model: M,
        program: P,
        initial: &[P::State],
        budget: u32,
        property: &'static str,
        pred: impl FnMut(&[P::State]) -> bool,
        note: impl FnOnce(&Trace<P::State, M::Fault>) -> Finding,
    ) where
        M: Family + fmt::Display,
        P: Program<M>,
    {
        const REFUTED: &str = "counterexample (expected, replayed)";
        let n = initial.len();
        let verdict = match check(model, &program, initial, budget, NODE_CAP, pred) {
            Err(err) => format!("aborted ({err})"),
            Ok(check) => match check.verdict {
                Verdict::Proved => "proved (UNEXPECTED)".to_string(),
                Verdict::Counterexample(trace) => match trace.replay(model, program, initial) {
                    Ok(end) if end == trace.witness => {
                        self.findings.push(note(&trace));
                        REFUTED.to_string()
                    }
                    _ => "counterexample (REPLAY FAILED)".to_string(),
                },
            },
        };
        if verdict != REFUTED {
            let message =
                format!("n={n} o={budget}: expected a replayed counterexample, got {verdict}");
            self.findings
                .push(Finding::error("self-test", subject, message));
        }
        self.grid.push(GridRow {
            id: "",
            subject: subject.to_string(),
            n,
            budget,
            model: model.to_string(),
            property,
            verdict,
        });
    }

    /// Self-test of a lint run on a known defect: `caught` must hold a
    /// finding, or the lint is blind (an error). The first `shown`
    /// findings go into the report, followed by the note `note` writes
    /// from their count and the first of them.
    fn expect_caught(
        &mut self,
        lint: &'static str,
        subject: &str,
        caught: Result<&[Finding], &ExploreError>,
        shown: usize,
        note: impl FnOnce(usize, &Finding) -> String,
    ) {
        match caught {
            Err(err) => self.findings.push(Finding::warning(
                lint,
                subject,
                format!("exploration aborted: {err}"),
            )),
            Ok([]) => {
                let message = format!("the {lint} lint did not fire on a known defect");
                let error = Finding::error("self-test", subject, message);
                self.findings.push(error);
            }
            Ok(caught @ [first, ..]) => {
                let note = Finding::note(lint, subject, note(caught.len(), first));
                self.findings.extend(caught.iter().take(shown).cloned());
                self.findings.push(note);
            }
        }
    }
}

fn check_epidemic(result: &mut CheckResult) {
    let floods = "one seed floods all 10 agents";
    // The last row checks the soundness of the other constant: with no
    // seed, nothing ever flips.
    let clean = "no seed stays all-clean";
    for (seeds, budget, property) in [(1, 0, floods), (1, 1, floods), (0, 1, clean)] {
        let initial = [vec![true; seeds], vec![false; 10 - seeds]].concat();
        result.expect_proved(
            "Epidemic",
            TwoWayModel::T1,
            &Epidemic,
            &initial,
            budget,
            property,
            |c| c.iter().all(|&b| b == (seeds > 0)),
        );
    }
}

fn majority_weight(q: &ppfts_protocols::ExactMajorityState) -> i64 {
    match *q {
        SX => 1,
        SY => -1,
        _ => 0,
    }
}

fn check_exact_majority(result: &mut CheckResult) {
    let table = TableProtocol::from_protocol(&ExactMajority);
    let lints = [
        lint_reachability(&table, &[SX, SY], "ExactMajority"),
        lint_conservation(&table, majority_weight, "ExactMajority"),
    ];
    result.findings.extend(lints.into_iter().flatten());
    let initial = [vec![SX; 6], vec![SY; 4]].concat();
    for budget in [0, 1] {
        // A T1 omission on a cancellation pair shifts the strong margin
        // #SX - #SY by exactly one, so margin 2 decides X under o = 1.
        result.expect_proved(
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
        );
    }
}

fn check_approximate_majority(result: &mut CheckResult) {
    let initial = [vec![MajorityState::X; 5], vec![MajorityState::Y; 3]].concat();
    for budget in [0, 1] {
        // Approximate majority guarantees *agreement*, not the majority
        // value, under adversarial scheduling — so the obligation is
        // output-constant terminal SCCs, nothing more.
        result.expect_proved(
            "ApproximateMajority",
            TwoWayModel::T1,
            &ApproximateMajority,
            &initial,
            budget,
            "always stabilizes to unanimous output",
            |c| {
                c.iter()
                    .all(|q| ApproximateMajority.output(q) == ApproximateMajority.output(&c[0]))
            },
        );
    }
}

fn check_remainder(result: &mut CheckResult) {
    let parity = Remainder::new(2, 0);
    let initial = parity.initial_configuration(&[1, 1, 1, 1]);
    result.expect_proved(
        "Remainder(mod 2)",
        TwoWayModel::T1,
        &parity,
        initial.as_slice(),
        0,
        "sum 4 = 0 mod 2, fault-free",
        |c| c.iter().all(|q| q.opinion),
    );

    // Under one omission the absorbed partial sum can be lost, flipping
    // the answer — the paper's motivating non-tolerant protocol. The
    // analyzer must *find* that counterexample (and it must replay).
    result.expect_refuted(
        "Remainder(mod 2)",
        TwoWayModel::T1,
        parity,
        initial.as_slice(),
        1,
        "sum survives one omission",
        |c| c.iter().all(|q| q.opinion),
        |trace| {
            Finding::note(
                "convergence",
                "Remainder(mod 2)",
                format!(
                    "documented fragility: {} omission-bearing steps reach {:?}, which \
                     stabilizes with the wrong parity (trace replayed through the engine)",
                    trace.steps.len(),
                    trace.witness
                ),
            )
        },
    );
}

fn check_flock(result: &mut CheckResult) {
    let flock = FlockOfBirds::new(2);
    let initial = flock.initial_configuration(&[true, true, false]);
    let flips = lint_output_stability(
        TwoWayModel::Tw,
        &flock,
        initial.as_slice(),
        NODE_CAP,
        |q| q.detected,
        // Documented: below-threshold unanimity on "false" is premature
        // until the counts assemble. A note, not a gate.
        Severity::Note,
        "FlockOfBirds(k=2)",
    );
    result.expect_caught(
        "output-instability",
        "FlockOfBirds(k=2)",
        flips.as_deref(),
        1,
        |count, _| format!("{count} prematurely-unanimous configurations (expected; first shown)"),
    );
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

fn check_skno(result: &mut CheckResult) {
    // Bookkeeping probes: anonymous and graphical, o = 1 so the
    // joker-completion probe has a missing index to cover.
    let anonymous = Skno::new(Epidemic, 1);
    result.findings.extend(lint_skno(&anonymous, &true, &false));
    let ring = Topology::ring(4).expect("ring of 4");
    let graphical = Skno::graphical(Epidemic, 1, ring);
    result.findings.extend(lint_skno(&graphical, &true, &false));

    // Exhaustive delivery proof for the addressed graphical simulator.
    let (protocol, path, states, expected) = skno_scenario();
    result.expect_proved(
        "SKnO[graphical, path(3)]",
        OneWayModel::I3,
        &Skno::graphical(protocol, 0, path),
        &states,
        0,
        "pending transactions complete at the right vertex",
        |c| (0..3).all(|v| *c[v].simulated() == expected[v]),
    );
}

fn check_skno_mutant(result: &mut CheckResult) {
    // The static lint must flag the mutant on its own.
    let ring = Topology::ring(4).expect("ring of 4");
    let mutant = Skno::graphical_unaddressed(Epidemic, 1, ring);
    result.expect_caught(
        "graphical-addressing",
        "SKnO[unaddressed mutant]",
        Ok(&lint_skno_addressing(&mutant, &true, &false)),
        0,
        |_, _| {
            "lint correctly rejects the mutant: a change run addressed elsewhere was consumed"
                .into()
        },
    );

    // And the model checker must find the deadlock dynamically, with a
    // trace that replays through the engine.
    let (protocol, path, states, expected) = skno_scenario();
    result.expect_refuted(
        "SKnO[unaddressed mutant, path(3)]",
        OneWayModel::I3,
        Skno::graphical_unaddressed(protocol, 0, path),
        &states,
        0,
        "seeded deadlock is found and replayed",
        |c| (0..3).all(|v| *c[v].simulated() == expected[v]),
        |trace| {
            Finding::note(
                "convergence",
                "SKnO[unaddressed mutant]",
                format!(
                    "mutant correctly rejected: {} steps starve the announcer at vertex 0 \
                     (trace replayed through OneWayRunner)",
                    trace.steps.len()
                ),
            )
        },
    );
}

fn check_majority_mutant(result: &mut CheckResult) {
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
    let caught = lint_conservation(&builder.build(), majority_weight, "ExactMajority[mutant]");
    result.expect_caught(
        "conservation",
        "ExactMajority[mutant]",
        Ok(&caught),
        0,
        |_, first| format!("lint correctly rejects the mutant: {}", first.message),
    );
}

fn check_sid(result: &mut CheckResult) {
    let initial = ppfts_core::Sid::<Epidemic>::initial(&[true, false, false]);
    result.expect_proved(
        "SID",
        OneWayModel::Io,
        &ppfts_core::Sid::new(Epidemic),
        initial.as_slice(),
        0,
        "one seed floods all simulated states",
        |c| c.iter().all(|s| *s.simulated()),
    );
}

fn check_named_sid(result: &mut CheckResult) {
    let initial = ppfts_core::NamedSid::<Epidemic>::initial(&[true, false, false]);
    result.expect_proved(
        "NamedSid",
        OneWayModel::Io,
        &ppfts_core::NamedSid::new(Epidemic, 3),
        initial.as_slice(),
        0,
        "one seed floods all simulated states",
        |c| c.iter().all(|s| *s.simulated()),
    );
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
    fn unexpected_outcomes_are_errors() {
        let mut result = CheckResult::default();
        let parity = Remainder::new(2, 0);
        let initial = parity.initial_configuration(&[1, 1, 1, 1]);
        let even = |c: &[ppfts_protocols::RemainderState]| c.iter().all(|q| q.opinion);
        // A proof where a counterexample is due, a counterexample where a
        // proof is due, and a lint that finds nothing on a known defect.
        let (model, slice) = (TwoWayModel::T1, initial.as_slice());
        result.expect_refuted("R", model, parity, slice, 0, "p", even, |_| unreachable!());
        result.expect_proved("R", model, &parity, slice, 1, "p", even);
        result.expect_caught("lint", "L", Ok(&[]), 0, |_, _| unreachable!());
        let verdicts: Vec<&str> = result.grid.iter().map(|r| r.verdict.as_str()).collect();
        assert_eq!(verdicts, ["proved (UNEXPECTED)", "COUNTEREXAMPLE"]);
        assert!(result
            .findings
            .iter()
            .all(|f| f.severity == Severity::Error));
        assert_eq!(result.findings.len(), 3);
    }

    #[test]
    fn suite_ids_are_stable_and_lowercase() {
        for id in suite_ids() {
            assert_eq!(id, id.to_lowercase());
        }
    }
}
