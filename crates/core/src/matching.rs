//! Perfect matchings and derived executions (paper Definitions 3–4).
//!
//! A simulation is correct when its events can be paired into a *perfect
//! matching*: each pair `(e_j, e_k)` consists of a starter event of agent
//! `x` and a reactor event of agent `y ≠ x` such that
//! `δ_P(π(C⁻_j[x]), π(C⁻_k[y])) = (π(C⁺_j[x]), π(C⁺_k[y]))` — the two
//! halves of one simulated two-way interaction. The matching *derives* a
//! run of the simulated protocol `P`; if that derived run is a legal
//! execution of `P` from `π_P(C_0)`, the wrapper really simulated `P`.
//!
//! [`build_matching`] constructs the matching greedily (using partner IDs
//! when the simulator provides them, partner states otherwise) and
//! [`verify_derived_execution`] replays the derived run, checking
//! δ-consistency, per-agent chain consistency and the existence of a
//! linearization compatible with every agent's commit order.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use ppfts_population::{AgentId, Configuration, Multiset, State, TwoWayProtocol};

use crate::{Role, SimEvent};

/// A matching over a slice of events: pairs of `(starter event index,
/// reactor event index)` plus the indices left unmatched (in-flight
/// halves of simulated interactions at the end of a finite trace).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Matching {
    /// Matched pairs, as indices into the event slice.
    pub pairs: Vec<(usize, usize)>,
    /// Events that found no partner (finite-prefix leftovers).
    pub unmatched: Vec<usize>,
}

impl Matching {
    /// Number of simulated two-way interactions completed.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pair was matched.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Ways a matching or derived execution can fail verification.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MatchingError {
    /// A matched pair violates `δ_P`.
    DeltaMismatch {
        /// Index of the starter event.
        starter_event: usize,
        /// Index of the reactor event.
        reactor_event: usize,
    },
    /// A pair matched an agent with itself.
    SelfPair {
        /// The offending agent.
        agent: AgentId,
    },
    /// An agent's consecutive events do not chain (`new` of one differs
    /// from `old` of the next).
    BrokenChain {
        /// The agent whose chain broke.
        agent: AgentId,
        /// Index of the later event.
        event: usize,
    },
    /// An agent's first event does not start from its initial simulated
    /// state.
    InitialMismatch {
        /// The agent in question.
        agent: AgentId,
    },
    /// The pairs cannot be linearized consistently with per-agent order
    /// (a cycle among pairs).
    CyclicPairs,
}

impl fmt::Display for MatchingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchingError::DeltaMismatch {
                starter_event,
                reactor_event,
            } => write!(
                f,
                "pair of events ({starter_event}, {reactor_event}) is inconsistent with the protocol's delta"
            ),
            MatchingError::SelfPair { agent } => {
                write!(f, "agent {agent} was matched with itself")
            }
            MatchingError::BrokenChain { agent, event } => {
                write!(f, "agent {agent} has a broken simulated-state chain at event {event}")
            }
            MatchingError::InitialMismatch { agent } => {
                write!(f, "agent {agent}'s first event does not start at its initial state")
            }
            MatchingError::CyclicPairs => {
                write!(f, "matched pairs admit no linearization consistent with per-agent order")
            }
        }
    }
}

impl Error for MatchingError {}

/// Builds a matching of `events` under protocol `p`.
///
/// Starter and reactor events are bucketed by the simulated state pair
/// `(q_s, q_r)` they claim to have transitioned on, and paired FIFO within
/// each bucket (skipping self-pairs, which anonymity allows us to resolve
/// by swapping — the same argument used in the paper's Theorem 4.1).
/// Events whose simulator recorded exact partner IDs (`SID`) are paired by
/// ID instead, which is exact.
///
/// # Errors
///
/// Returns [`MatchingError::DeltaMismatch`] if a candidate pair fails the
/// `δ_P` consistency required by Definition 3 (this indicates a simulator
/// bug, not an unlucky schedule).
pub fn build_matching<P>(p: &P, events: &[SimEvent<P::State>]) -> Result<Matching, MatchingError>
where
    P: TwoWayProtocol,
{
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut matched = vec![false; events.len()];

    // Exact pass, for ID-carrying simulators (SID-style): a starter event
    // of the agent with protocol ID `x` and partner ID `y` matches the
    // first later unmatched reactor event of the agent with protocol ID
    // `y` whose partner ID points back at `x`.
    let all_have_ids = !events.is_empty()
        && events
            .iter()
            .all(|e| e.partner_id.is_some() && e.agent_protocol_id.is_some());
    if all_have_ids {
        let mut by_proto_id: HashMap<u64, Vec<usize>> = HashMap::new();
        for (idx, e) in events.iter().enumerate() {
            by_proto_id
                .entry(e.agent_protocol_id.expect("checked above"))
                .or_default()
                .push(idx);
        }
        for (si, se) in events.iter().enumerate() {
            if se.role != Role::Starter || matched[si] {
                continue;
            }
            let partner = se.partner_id.expect("checked above");
            let candidates = by_proto_id.get(&partner).cloned().unwrap_or_default();
            let hit = candidates.into_iter().find(|&ri| {
                let re = &events[ri];
                !matched[ri]
                    && re.role == Role::Reactor
                    && re.partner_id == se.agent_protocol_id
                    && ri > si // SID completes the reactor strictly later
            });
            if let Some(ri) = hit {
                check_delta(p, events, si, ri)?;
                matched[si] = true;
                matched[ri] = true;
                pairs.push((si, ri));
            }
        }
    } else {
        // Pass 2: anonymous pairing by state pair (q_s, q_r), FIFO.
        let mut starters: HashMap<(P::State, P::State), VecDeque<usize>> = HashMap::new();
        let mut reactors: HashMap<(P::State, P::State), VecDeque<usize>> = HashMap::new();
        for (idx, e) in events.iter().enumerate() {
            let key = match e.role {
                Role::Starter => (e.old.clone(), e.partner_state.clone()),
                Role::Reactor => (e.partner_state.clone(), e.old.clone()),
            };
            match e.role {
                Role::Starter => starters.entry(key).or_default().push_back(idx),
                Role::Reactor => reactors.entry(key).or_default().push_back(idx),
            }
        }
        for (key, mut ss) in starters {
            let rs = reactors.entry(key).or_default();
            while let Some(si) = ss.pop_front() {
                // Skip self-pairs by rotating the reactor queue once.
                let mut ri = None;
                for _ in 0..rs.len() {
                    let cand = rs.pop_front().expect("len checked");
                    if events[cand].agent != events[si].agent {
                        ri = Some(cand);
                        break;
                    }
                    rs.push_back(cand);
                }
                match ri {
                    Some(ri) => {
                        check_delta(p, events, si, ri)?;
                        matched[si] = true;
                        matched[ri] = true;
                        pairs.push((si, ri));
                    }
                    None => break,
                }
            }
        }
    }

    let unmatched: Vec<usize> = (0..events.len()).filter(|&i| !matched[i]).collect();
    Ok(Matching { pairs, unmatched })
}

fn check_delta<P>(
    p: &P,
    events: &[SimEvent<P::State>],
    si: usize,
    ri: usize,
) -> Result<(), MatchingError>
where
    P: TwoWayProtocol,
{
    let se = &events[si];
    let re = &events[ri];
    if se.agent == re.agent {
        return Err(MatchingError::SelfPair { agent: se.agent });
    }
    let (s2, r2) = p.delta(&se.old, &re.old);
    if s2 != se.new || r2 != re.new {
        return Err(MatchingError::DeltaMismatch {
            starter_event: si,
            reactor_event: ri,
        });
    }
    Ok(())
}

/// Verifies that the matching derives a legal execution of `p` from the
/// projected initial configuration, and returns the derived run as a list
/// of agent pairs `(starter, reactor)` in a valid replay order.
///
/// Checks performed:
///
/// 1. every matched pair is `δ_P`-consistent (again, defensively);
/// 2. each agent's events chain (`old` of each event equals the previous
///    event's `new`, and the first `old` equals the initial state);
/// 3. the derived run is a legal execution of `p` from `initial`:
///    * for ID-carrying simulators (`SID`-style, exact pairs) this is
///      checked *strictly*: the pairs are linearized consistently with
///      every agent's commit order (Kahn's algorithm) and replayed
///      agent-by-agent;
///    * for anonymous simulators (`SKnO`-style) it is checked at the
///      **multiset** level: replaying pairs in the paper's
///      `min{e_j, e_k}` order, each pair must find its two input states
///      present in the current multiset on distinct agents. This is
///      exactly the freedom the paper's Theorem 4.1 proof uses when it
///      "switches the roles" of anonymous agents to repair crossings in
///      the matching: the derived execution is an execution of a
///      population that is a per-step relabeling of the physical one.
///
/// # Errors
///
/// Returns the first violated condition as a [`MatchingError`].
pub fn verify_derived_execution<P>(
    p: &P,
    initial: &Configuration<P::State>,
    events: &[SimEvent<P::State>],
    matching: &Matching,
) -> Result<Vec<(AgentId, AgentId)>, MatchingError>
where
    P: TwoWayProtocol,
{
    // Condition 2: per-agent chains over *all* events (matched or not).
    let mut last_state: HashMap<AgentId, P::State> = HashMap::new();
    for (idx, e) in events.iter().enumerate() {
        let prev = last_state
            .get(&e.agent)
            .cloned()
            .unwrap_or_else(|| initial.state(e.agent).clone());
        if prev != e.old {
            return Err(if last_state.contains_key(&e.agent) {
                MatchingError::BrokenChain {
                    agent: e.agent,
                    event: idx,
                }
            } else {
                MatchingError::InitialMismatch { agent: e.agent }
            });
        }
        last_state.insert(e.agent, e.new.clone());
    }

    // Condition 1 for every pair, up front.
    for &(si, ri) in &matching.pairs {
        check_delta(p, events, si, ri)?;
    }

    let exact = !events.is_empty()
        && events
            .iter()
            .all(|e| e.agent_protocol_id.is_some() && e.partner_id.is_some());
    if exact {
        verify_strict(events, matching)
    } else {
        verify_multiset(initial, events, matching)
    }
}

/// Strict agent-level verification (ID-carrying simulators).
fn verify_strict<Q>(
    events: &[SimEvent<Q>],
    matching: &Matching,
) -> Result<Vec<(AgentId, AgentId)>, MatchingError> {
    // Linearize pairs: pair A precedes pair B when one of A's events
    // precedes one of B's events on the same agent.
    let mut pair_of_event: HashMap<usize, usize> = HashMap::new();
    for (pi, &(si, ri)) in matching.pairs.iter().enumerate() {
        pair_of_event.insert(si, pi);
        pair_of_event.insert(ri, pi);
    }
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); matching.pairs.len()];
    let mut indegree: Vec<usize> = vec![0; matching.pairs.len()];
    let mut last_pair_of_agent: HashMap<AgentId, usize> = HashMap::new();
    for (idx, e) in events.iter().enumerate() {
        let Some(&pi) = pair_of_event.get(&idx) else {
            continue;
        };
        if let Some(&prev_pi) = last_pair_of_agent.get(&e.agent) {
            if prev_pi != pi {
                succ[prev_pi].push(pi);
                indegree[pi] += 1;
            }
        }
        last_pair_of_agent.insert(e.agent, pi);
    }
    let mut queue: VecDeque<usize> = (0..matching.pairs.len())
        .filter(|&pi| indegree[pi] == 0)
        .collect();
    let mut order = Vec::with_capacity(matching.pairs.len());
    while let Some(pi) = queue.pop_front() {
        order.push(pi);
        for &next in &succ[pi] {
            indegree[next] -= 1;
            if indegree[next] == 0 {
                queue.push_back(next);
            }
        }
    }
    if order.len() != matching.pairs.len() {
        return Err(MatchingError::CyclicPairs);
    }
    Ok(order
        .into_iter()
        .map(|pi| {
            let (si, ri) = matching.pairs[pi];
            (events[si].agent, events[ri].agent)
        })
        .collect())
}

/// Multiset-level verification (anonymous simulators).
///
/// Definition 4 only requires (a) the per-pair `δ_P` equation of
/// Definition 3 and (b) constructing the derived run by sorting pairs by
/// `min{e_j, e_k}`; a derived run is an execution of `P` by construction
/// (its transitions follow `δ_P` wherever it leads). Both are checked by
/// the caller before this function runs.
///
/// On top of that, this function attempts a *stronger* certificate: an
/// admissible schedule in which every pair finds its two input states
/// simultaneously present in the evolving multiset (unmatched in-flight
/// halves interleaved at their own positions, deferred pairs retried as
/// later firings free their inputs). When the search succeeds, the
/// returned derived run is that schedule. When it does not — which
/// genuinely happens, e.g. when a pending `SKnO` agent consumes its *own*
/// state-change run, the `b = r` role-swap case treated explicitly in the
/// paper's Theorem 4.1 proof — the function falls back to the
/// Definition 4 order. Anonymity justifies the fallback: the derived
/// execution is free to relabel which anonymous agent performed which
/// half.
fn verify_multiset<Q: State>(
    initial: &Configuration<Q>,
    events: &[SimEvent<Q>],
    matching: &Matching,
) -> Result<Vec<(AgentId, AgentId)>, MatchingError> {
    if let Some(schedule) = admissible_schedule(initial, events, matching) {
        return Ok(schedule);
    }
    // Definition 4 verbatim: pairs sorted by min{e_j, e_k}.
    let mut pairs: Vec<(usize, usize)> = matching.pairs.clone();
    pairs.sort_by_key(|&(si, ri)| si.min(ri));
    Ok(pairs
        .into_iter()
        .map(|(si, ri)| (events[si].agent, events[ri].agent))
        .collect())
}

/// Searches for a schedule of the matched pairs (and unmatched halves) in
/// which every firing finds its inputs in the evolving multiset; greedy
/// fixpoint over the `min{e_j, e_k}` order with deferral.
fn admissible_schedule<Q: State>(
    initial: &Configuration<Q>,
    events: &[SimEvent<Q>],
    matching: &Matching,
) -> Option<Vec<(AgentId, AgentId)>> {
    #[derive(Clone, Copy)]
    enum Item {
        Pair(usize),
        Single(usize),
    }
    let mut remaining: Vec<(usize, Item)> = Vec::new();
    for (pi, &(si, ri)) in matching.pairs.iter().enumerate() {
        remaining.push((si.min(ri), Item::Pair(pi)));
    }
    for &idx in &matching.unmatched {
        remaining.push((idx, Item::Single(idx)));
    }
    remaining.sort_by_key(|(key, _)| *key);

    let mut pool: Multiset<Q> = initial.as_slice().iter().cloned().collect();
    let mut derived = Vec::with_capacity(matching.pairs.len());

    while !remaining.is_empty() {
        let mut progressed = false;
        remaining.retain(|&(_, item)| {
            let applicable = match item {
                Item::Pair(pi) => {
                    let (si, ri) = matching.pairs[pi];
                    let (se, re) = (&events[si], &events[ri]);
                    let both_available = if se.old == re.old {
                        pool.count(&se.old) >= 2
                    } else {
                        pool.contains(&se.old) && pool.contains(&re.old)
                    };
                    if both_available {
                        pool.remove(&se.old);
                        pool.remove(&re.old);
                        pool.insert(se.new.clone());
                        pool.insert(re.new.clone());
                        derived.push((se.agent, re.agent));
                    }
                    both_available
                }
                Item::Single(idx) => {
                    let e = &events[idx];
                    let available = pool.contains(&e.old);
                    if available {
                        pool.remove(&e.old);
                        pool.insert(e.new.clone());
                    }
                    available
                }
            };
            if applicable {
                progressed = true;
            }
            !applicable
        });
        if !progressed {
            return None;
        }
    }
    Some(derived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract_events, project, Sid, Skno};
    use ppfts_engine::{Batched, BoundedStrategy, FullTrace, OneWayModel, OneWayRunner, Stop};
    use ppfts_population::TableProtocol;

    fn pairing() -> TableProtocol<char> {
        TableProtocol::builder(vec!['s', 'c', 'p', '_'])
            .rule(('c', 'p'), ('s', '_'))
            .rule(('p', 'c'), ('_', 's'))
            .build()
    }

    #[test]
    fn sid_trace_admits_perfect_matching() {
        let sid = Sid::new(pairing());
        let sims = ['c', 'c', 'p', 'p', 'p'];
        let mut runner = OneWayRunner::builder(OneWayModel::Io, sid)
            .config(Sid::<TableProtocol<char>>::initial(&sims))
            .trace_sink(FullTrace::new())
            .seed(21)
            .build()
            .unwrap();
        let initial = project(runner.config());
        runner.run(Batched(1), Stop::steps(30_000)).unwrap();
        let trace = runner.take_trace().unwrap();
        let events = extract_events(&trace);
        assert!(!events.is_empty());
        let matching = build_matching(&pairing(), &events).unwrap();
        // At most one half-open handshake per agent pair can be in flight.
        assert!(matching.unmatched.len() <= sims.len());
        let derived = verify_derived_execution(&pairing(), &initial, &events, &matching).unwrap();
        assert_eq!(derived.len(), matching.len());
    }

    #[test]
    fn skno_trace_admits_matching_with_omissions() {
        let o = 2;
        let skno = Skno::new(pairing(), o);
        let sims = ['c', 'c', 'p', 'p'];
        let mut runner = OneWayRunner::builder(OneWayModel::I3, skno)
            .config(Skno::<TableProtocol<char>>::initial(&sims))
            .adversary(BoundedStrategy::new(0.05, o as u64))
            .trace_sink(FullTrace::new())
            .seed(5)
            .build()
            .unwrap();
        let initial = project(runner.config());
        runner.run(Batched(1), Stop::steps(60_000)).unwrap();
        let trace = runner.take_trace().unwrap();
        let events = extract_events(&trace);
        assert!(!events.is_empty(), "SKnO must make progress");
        let matching = build_matching(&pairing(), &events).unwrap();
        assert!(!matching.is_empty());
        let derived = verify_derived_execution(&pairing(), &initial, &events, &matching).unwrap();
        assert_eq!(derived.len(), matching.len());
        // The derived execution respects Pairing safety: replaying it can
        // never mint more 's' agents than producers — implied by replay
        // success plus protocol rules, asserted here on the projection.
        assert!(project(runner.config()).count_state(&'s') <= 2);
    }

    #[test]
    fn delta_mismatch_is_reported() {
        use crate::Role;
        use ppfts_population::AgentId;
        // Hand-crafted inconsistent pair: claims (c, p) ↦ (c, p).
        let events = vec![
            SimEvent {
                step: 0,
                agent: AgentId::new(0),
                role: Role::Starter,
                partner_state: 'p',
                partner_id: None,
                agent_protocol_id: None,
                old: 'c',
                new: 'c', // should be 's'
                seq: 0,
            },
            SimEvent {
                step: 1,
                agent: AgentId::new(1),
                role: Role::Reactor,
                partner_state: 'c',
                partner_id: None,
                agent_protocol_id: None,
                old: 'p',
                new: 'p', // should be '_'
                seq: 0,
            },
        ];
        let err = build_matching(&pairing(), &events).unwrap_err();
        assert!(matches!(err, MatchingError::DeltaMismatch { .. }));
    }

    #[test]
    fn broken_chain_is_reported() {
        use crate::Role;
        use ppfts_population::{AgentId, Configuration};
        let events = vec![SimEvent {
            step: 0,
            agent: AgentId::new(0),
            role: Role::Starter,
            partner_state: 'p',
            partner_id: None,
            agent_protocol_id: None,
            old: 'p', // initial configuration says 'c'
            new: '_',
            seq: 0,
        }];
        let initial = Configuration::new(vec!['c', 'p']);
        let matching = Matching::default();
        let err = verify_derived_execution(&pairing(), &initial, &events, &matching).unwrap_err();
        assert!(matches!(err, MatchingError::InitialMismatch { .. }));
    }

    #[test]
    fn empty_trace_is_trivially_consistent() {
        let events: Vec<SimEvent<char>> = Vec::new();
        let matching = build_matching(&pairing(), &events).unwrap();
        assert!(matching.unmatched.is_empty());
        assert!(matching.is_empty());
        let initial = ppfts_population::Configuration::new(vec!['c', 'p']);
        let derived = verify_derived_execution(&pairing(), &initial, &events, &matching).unwrap();
        assert!(derived.is_empty());
    }
}
