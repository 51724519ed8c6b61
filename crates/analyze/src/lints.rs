//! Table lints and semi-static simulator probes.
//!
//! These checks never run a full execution. The table lints walk a
//! [`TableProtocol`]'s rules against the delta closure of its initial
//! states; the SKnO probes drive the simulator's *reactor procedure*
//! from hand-crafted token configurations (via
//! [`SknoState::with_queue`]), asserting the paper's bookkeeping
//! invariants one interaction at a time:
//!
//! * announcement/change runs are addressed back to their announcer in
//!   graphical mode ([`lint_skno_addressing`], [`lint_skno_change_target`])
//!   — the static form of the change-run deadlock the topology audit
//!   found dynamically;
//! * every detected omission mints exactly one joker, completing a run
//!   conserves the token footprint, and the Rummy swap trades an owed
//!   identity for a fresh joker ([`lint_skno_ledger`]).

use ppfts_core::{Skno, SknoState, Token};
use ppfts_engine::{OneWayProgram, TwoWayModel, TwoWayProgram};
use ppfts_population::{delta_closure, EnumerableStates, State, TableProtocol, TwoWayProtocol};

use crate::checker::{check, ExploreError};
use crate::finding::{Finding, Severity};

/// Delta-closure lints: unreachable declared states, dead rules (their
/// left-hand side can never assemble), and shadowed rules (explicit
/// identities, indistinguishable from the table's default no-op).
///
/// `seeds` are the initial states (the image of the protocol's `encode`);
/// reachability is closure under δ from every pair of reached states.
///
/// # Example
///
/// ```
/// use ppfts_analyze::lints::lint_reachability;
/// use ppfts_population::TableProtocol;
///
/// let table = TableProtocol::builder(vec!['a', 'b', 'x', 'z'])
///     .rule(('a', 'b'), ('x', 'x'))
///     .rule(('z', 'a'), ('a', 'a')) // 'z' is never produced: dead
///     .build();
/// let findings = lint_reachability(&table, &['a', 'b'], "demo");
/// assert!(findings.iter().any(|f| f.check == "unreachable-state"));
/// assert!(findings.iter().any(|f| f.check == "dead-rule"));
/// ```
pub fn lint_reachability<Q: State + std::fmt::Debug>(
    table: &TableProtocol<Q>,
    seeds: &[Q],
    subject: &str,
) -> Vec<Finding> {
    let reached = delta_closure(table, seeds.iter().cloned());
    let mut findings = Vec::new();
    for q in table.states() {
        if !reached.contains(&q) {
            findings.push(Finding::warning(
                "unreachable-state",
                subject,
                format!("state {q:?} is declared but unreachable from the initial states"),
            ));
        }
    }
    for rule in table.rules() {
        let (s, r) = rule.from();
        if !reached.contains(s) || !reached.contains(r) {
            findings.push(Finding::warning(
                "dead-rule",
                subject,
                format!("rule {:?} -> {:?} can never fire", rule.from(), rule.to()),
            ));
        }
        if rule.to() == rule.from() {
            findings.push(Finding::warning(
                "shadowed-rule",
                subject,
                format!(
                    "rule {:?} -> {:?} is an explicit identity, shadowed by the default no-op",
                    rule.from(),
                    rule.to()
                ),
            ));
        }
    }
    findings
}

/// Conservation lint: every rule must preserve the total `weight` of the
/// interacting pair. This is how `ExactMajority` keeps its margin — the
/// signed strong-token count `#SX − #SY` is invariant under all four
/// cancellation/conversion rules, so a rule that leaks weight (the
/// mutation self-test's seeded bug) is an error, not a warning.
pub fn lint_conservation<Q: State + std::fmt::Debug>(
    table: &TableProtocol<Q>,
    weight: impl Fn(&Q) -> i64,
    subject: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in table.rules() {
        let (s, r) = rule.from();
        let (s2, r2) = rule.to();
        let before = weight(s) + weight(r);
        let after = weight(s2) + weight(r2);
        if before != after {
            findings.push(Finding::error(
                "conservation",
                subject,
                format!(
                    "rule {:?} -> {:?} changes the conserved weight {before} -> {after}",
                    rule.from(),
                    rule.to()
                ),
            ));
        }
    }
    findings
}

/// Output-instability lint: exhaustively finds configurations reachable
/// fault-free whose unanimous output can still flip to a different
/// unanimous value.
///
/// For a protocol that *documents* premature unanimity (`FlockOfBirds`
/// before the threshold count assembles) pass
/// [`Severity::Note`]; anything unexpected should gate with
/// [`Severity::Error`].
///
/// # Errors
///
/// Propagates the [`ExploreError`] of the exploration.
pub fn lint_output_stability<P, Y>(
    model: TwoWayModel,
    program: &P,
    initial: &[P::State],
    max_nodes: usize,
    output: impl FnMut(&P::State) -> Y,
    severity: Severity,
    subject: &str,
) -> Result<Vec<Finding>, ExploreError>
where
    P: TwoWayProgram,
    P::State: std::fmt::Debug,
    Y: Clone + PartialEq + std::fmt::Debug,
{
    let flips = check(model, program, initial, 0, max_nodes, |_| true)?.output_flips(output);
    Ok(flips
        .into_iter()
        .map(|flip| {
            Finding::new(
                severity,
                "output-instability",
                subject,
                format!(
                    "configuration {:?} is unanimous on {:?} but can still reach unanimity on {:?}",
                    flip.config, flip.output, flip.flips_to
                ),
            )
        })
        .collect())
}

/// The run length (`o + 1`) of change-run tokens addressed to `target`.
fn change_run<'a, Q: Clone>(
    len: u32,
    target: u32,
    starter: &'a Q,
    reactor: &'a Q,
) -> impl Iterator<Item = Token<Q>> + 'a {
    (1..=len).map(move |index| Token::Change {
        origin: 0,
        target,
        starter: starter.clone(),
        reactor: reactor.clone(),
        index,
    })
}

/// Graphical-addressing probe: a **pending** agent at vertex 1 holding a
/// complete change run addressed to vertex 2 must *not* consume it — the
/// run frees exactly the agent whose announcement was consumed, and this
/// is not that agent. The `graphical_unaddressed` mutant (per-origin run
/// keys, state-matched change consumption) consumes it and unpends,
/// which is precisely the shape that starves the true announcer forever
/// on restricted graphs.
///
/// `q_s` is the probed agent's simulated state (and the change run's
/// consumed starter state); `q_r` is any simulated reactor state.
/// Requires a graphical, non-complete `skno` (others vacuously pass).
pub fn lint_skno_addressing<P>(skno: &Skno<P>, q_s: &P::State, q_r: &P::State) -> Vec<Finding>
where
    P: TwoWayProtocol,
{
    let Some(topology) = skno.topology() else {
        return Vec::new();
    };
    if topology.is_complete() || topology.len() < 3 {
        return Vec::new();
    }
    let o = skno.omission_bound();
    let probe = SknoState::with_queue(
        o,
        1,
        q_s.clone(),
        true,
        change_run(skno.run_len(), 2, q_s, q_r),
    );
    // A pending starter with a drained queue transmits nothing: the
    // "interaction" only runs the probed agent's checks.
    let silent = SknoState::with_queue(o, 3 % topology.len() as u32, q_r.clone(), true, []);
    let after = skno.on_receive(&silent, &probe);
    if !after.is_pending() {
        vec![Finding::error(
            "graphical-addressing",
            "SKnO",
            "a change run addressed to vertex 2 was consumed by the pending agent at vertex 1; \
             unaddressed consumption starves the true announcer (change-run deadlock)",
        )]
    } else {
        Vec::new()
    }
}

/// Change-run-target probe: when an available agent at vertex `v`
/// consumes a plain run announced by vertex 0, every token of the change
/// run it mints must be addressed back to vertex 0 — the announcer is
/// the only agent the run can free.
pub fn lint_skno_change_target<P>(skno: &Skno<P>, q_s: &P::State, q_r: &P::State) -> Vec<Finding>
where
    P: TwoWayProtocol,
{
    let Some(topology) = skno.topology() else {
        return Vec::new();
    };
    if topology.is_complete() {
        return Vec::new();
    }
    // Pick a neighbor of vertex 0 so the consumption filter admits the run.
    let Some(site) = topology.neighbors(0).next() else {
        return Vec::new();
    };
    let run = (1..=skno.run_len()).map(|index| Token::Run {
        origin: 0,
        state: q_s.clone(),
        index,
    });
    let o = skno.omission_bound();
    let probe = SknoState::with_queue(o, site as u32, q_r.clone(), false, run);
    let silent = SknoState::with_queue(o, 0, q_s.clone(), true, []);
    let after = skno.on_receive(&silent, &probe);
    let mut findings = Vec::new();
    let mut minted = 0usize;
    for token in after.tokens() {
        if let Token::Change { target, .. } = token {
            minted += 1;
            if *target != 0 {
                findings.push(Finding::error(
                    "change-run-target",
                    "SKnO",
                    format!(
                        "change-run token minted at vertex {site} is addressed to vertex \
                         {target}, not the consumed announcement's origin 0"
                    ),
                ));
                break;
            }
        }
    }
    if minted != skno.run_len() as usize {
        findings.push(Finding::error(
            "change-run-target",
            "SKnO",
            format!(
                "consuming a plain run minted {minted} change-run tokens, expected {} (o + 1)",
                skno.run_len()
            ),
        ));
    }
    findings
}

/// Token-ledger probes over an **anonymous** `skno` (the bookkeeping is
/// topology-independent; pass `o ≥ 1` so the joker-completion probe has
/// room):
///
/// 1. each omission hook mints exactly one joker;
/// 2. completing a plain run conserves the token footprint (run length
///    consumed, run length of change tokens minted);
/// 3. a run completed with a joker records the owed identity, and the
///    Rummy swap trades it back for a fresh joker when the real token
///    arrives.
pub fn lint_skno_ledger<P>(skno: &Skno<P>, q_s: &P::State, q_r: &P::State) -> Vec<Finding>
where
    P: TwoWayProtocol,
{
    let mut findings = Vec::new();
    let (o, len) = (skno.omission_bound(), skno.run_len());

    // 1. Omission hooks: exactly one joker, nothing else disturbed. The
    // pending starter holds a non-completable queue — a single token of a
    // *foreign* run key (state `q_r`, not its own announcement), so the
    // post-mint checks cannot complete anything even with the fresh joker
    // as a wildcard.
    let stub = Token::Run {
        origin: 1,
        state: q_r.clone(),
        index: 1,
    };
    let pending = SknoState::with_queue(o, 0, q_s.clone(), true, [stub]);
    let after_s = skno.on_omission_starter(&pending);
    if after_s.queued_jokers() != pending.queued_jokers() + 1
        || after_s.token_footprint() != pending.token_footprint() + 1
    {
        findings.push(Finding::error(
            "token-ledger",
            "SKnO",
            "starter omission detection must mint exactly one joker",
        ));
    }
    let after_r = skno.on_omission_reactor(&pending);
    if after_r.queued_jokers() != pending.queued_jokers() + 1
        || after_r.token_footprint() != pending.token_footprint() + 1
    {
        findings.push(Finding::error(
            "token-ledger",
            "SKnO",
            "reactor omission detection must mint exactly one joker",
        ));
    }

    // 2. Footprint conservation across a commit: an available reactor
    // holding a full plain run consumes all o+1 tokens and mints an o+1
    // change run — net zero. The run is announced from vertex 1 so the
    // consumer at vertex 0 is a graph neighbor in graphical mode (vertex
    // 0 is never adjacent to itself).
    let full_run = (1..=len).map(|index| Token::Run {
        origin: 1,
        state: q_s.clone(),
        index,
    });
    let available = SknoState::with_queue(o, 0, q_r.clone(), false, full_run);
    let silent = SknoState::with_queue(o, 0, q_s.clone(), true, []);
    let committed = skno.on_receive(&silent, &available);
    if committed.token_footprint() != available.token_footprint() {
        findings.push(Finding::error(
            "token-ledger",
            "SKnO",
            format!(
                "completing a plain run changed the token footprint {} -> {} (must conserve)",
                available.token_footprint(),
                committed.token_footprint()
            ),
        ));
    }

    // 3. Joker completion owes the missing identity; the Rummy swap
    // trades it back. Needs o >= 1 for a missing index to exist.
    if len >= 2 {
        let partial = (2..=len)
            .map(|index| Token::Run {
                origin: 1,
                state: q_s.clone(),
                index,
            })
            .chain([Token::Joker]);
        let available = SknoState::with_queue(o, 0, q_r.clone(), false, partial);
        let committed = skno.on_receive(&silent, &available);
        if committed.owed_tokens() != 1 {
            findings.push(Finding::error(
                "token-ledger",
                "SKnO",
                format!(
                    "a run completed with one joker must owe exactly one identity, owes {}",
                    committed.owed_tokens()
                ),
            ));
        } else {
            // Deliver the real ⟨q_s, 1⟩ (from vertex 1) the joker stood
            // in for.
            let missing = Token::Run {
                origin: 1,
                state: q_s.clone(),
                index: 1,
            };
            let sender = SknoState::with_queue(o, 1, q_s.clone(), true, [missing]);
            let swapped = skno.on_receive(&sender, &committed);
            if swapped.owed_tokens() != 0
                || swapped.queued_jokers() != committed.queued_jokers() + 1
            {
                findings.push(Finding::error(
                    "token-ledger",
                    "SKnO",
                    "the Rummy swap must trade the owed identity for a fresh joker",
                ));
            }
        }
    }

    findings
}

/// Runs every SKnO probe applicable to `skno` with the given simulated
/// states.
pub fn lint_skno<P>(skno: &Skno<P>, q_s: &P::State, q_r: &P::State) -> Vec<Finding>
where
    P: TwoWayProtocol,
{
    let mut findings = lint_skno_addressing(skno, q_s, q_r);
    findings.extend(lint_skno_change_target(skno, q_s, q_r));
    findings.extend(lint_skno_ledger(skno, q_s, q_r));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_population::Topology;
    use ppfts_protocols::majority_states::{SX, SY, WX, WY};
    use ppfts_protocols::{Epidemic, ExactMajority};

    fn majority_table() -> TableProtocol<ppfts_protocols::ExactMajorityState> {
        TableProtocol::from_protocol(&ExactMajority)
    }

    #[test]
    fn exact_majority_table_is_clean() {
        let table = majority_table();
        let findings = lint_reachability(&table, &[SX, SY], "ExactMajority");
        assert!(findings.is_empty(), "{findings:?}");
        let weight = |q: &ppfts_protocols::ExactMajorityState| match *q {
            SX => 1,
            SY => -1,
            _ => 0,
        };
        assert!(lint_conservation(&table, weight, "ExactMajority").is_empty());
    }

    #[test]
    fn mutated_majority_trips_the_conservation_lint() {
        // Seeded bug: cancellation demotes only one side — the strong
        // margin #SX - #SY leaks by one per firing.
        let mut builder = TableProtocol::builder(vec![SX, SY, WX, WY]);
        for rule in majority_table().rules() {
            let (from, to) = (*rule.from(), *rule.to());
            if from == (SX, SY) {
                builder = builder.rule(from, (SX, WY));
            } else {
                builder = builder.rule(from, to);
            }
        }
        let mutant = builder.build();
        let weight = |q: &ppfts_protocols::ExactMajorityState| match *q {
            SX => 1,
            SY => -1,
            _ => 0,
        };
        let findings = lint_conservation(&mutant, weight, "ExactMajority[mutant]");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("conserved weight"));
    }

    #[test]
    fn dead_and_unreachable_states_are_flagged() {
        let table = TableProtocol::builder(vec!['a', 'b', 'x', 'z'])
            .rule(('a', 'b'), ('x', 'x'))
            .rule(('z', 'a'), ('a', 'a'))
            .rule(('b', 'b'), ('b', 'b'))
            .build();
        let findings = lint_reachability(&table, &['a', 'b'], "demo");
        assert!(findings
            .iter()
            .any(|f| f.check == "unreachable-state" && f.message.contains("'z'")));
        assert!(findings.iter().any(|f| f.check == "dead-rule"));
        assert!(findings.iter().any(|f| f.check == "shadowed-rule"));
    }

    #[test]
    fn addressed_graphical_skno_passes_the_probes() {
        let ring = Topology::ring(4).unwrap();
        let skno = Skno::graphical(Epidemic, 1, ring);
        let findings = lint_skno(&skno, &true, &false);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unaddressed_mutant_trips_the_addressing_probe() {
        let ring = Topology::ring(4).unwrap();
        let mutant = Skno::graphical_unaddressed(Epidemic, 1, ring);
        assert!(!mutant.addresses_change_runs());
        let findings = lint_skno_addressing(&mutant, &true, &false);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].check, "graphical-addressing");
        assert_eq!(findings[0].severity, Severity::Error);
    }

    #[test]
    fn anonymous_skno_ledger_is_sound() {
        let skno = Skno::new(Epidemic, 1);
        assert!(lint_skno_ledger(&skno, &true, &false).is_empty());
        // Anonymous mode has no addressing to probe.
        assert!(lint_skno_addressing(&skno, &true, &false).is_empty());
    }
}
