//! Simulation events: the paper's sequence `E(Γ)` (§2.4).
//!
//! Given a traced execution of a simulator, the *events* are the steps at
//! which some agent's simulated state was updated (each step updates at
//! most one agent's simulated state in the one-way models, since only the
//! reactor may change). [`extract_events`] recovers them from an engine
//! [`Trace`] using the commit counters that every
//! [`SimulatorState`] maintains.

use ppfts_engine::{StepRecord, Trace};
use ppfts_population::{AgentId, State};

use crate::{Role, SimulatorState};

/// One simulation event: a committed simulated-state transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimEvent<Q> {
    /// Index of the engine interaction at which the commit happened.
    pub step: u64,
    /// The committing agent.
    pub agent: AgentId,
    /// The role the agent played in the simulated two-way interaction.
    pub role: Role,
    /// The simulated state of the partner the transition was computed
    /// against.
    pub partner_state: Q,
    /// The partner's unique ID, when the simulator knows it (`SID`).
    pub partner_id: Option<u64>,
    /// The committing agent's own protocol-level ID, when the simulator
    /// has one.
    pub agent_protocol_id: Option<u64>,
    /// The agent's simulated state before the commit.
    pub old: Q,
    /// The agent's simulated state after the commit.
    pub new: Q,
    /// The agent-local commit sequence number.
    pub seq: u64,
}

/// Extracts the event sequence `E(Γ)` from a trace of simulator states.
///
/// Events are returned in execution order. A step yields an event for an
/// endpoint whenever that endpoint's commit counter advanced; the commit
/// metadata then describes the simulated transition. Note that an event is
/// emitted even when the simulated state did not change (`δ_P` may be the
/// identity on the pair) — the paper explicitly allows these.
///
/// # Example
///
/// ```
/// use ppfts_core::{extract_events, Role, Sid};
/// use ppfts_engine::{Batched, FullTrace, OneWayModel, OneWayRunner, Stop};
/// use ppfts_protocols::Epidemic;
///
/// let sid = Sid::new(Epidemic);
/// let mut runner = OneWayRunner::builder(OneWayModel::Io, sid)
///     .config(Sid::<Epidemic>::initial(&[true, false]))
///     .trace_sink(FullTrace::new())
///     .seed(1)
///     .build()?;
/// runner.run(Batched(1), Stop::steps(200))?;
/// let events = extract_events(&runner.take_trace().unwrap());
/// assert!(!events.is_empty());
/// assert!(events.iter().any(|e| e.role == Role::Reactor));
/// # Ok::<(), ppfts_engine::EngineError>(())
/// ```
pub fn extract_events<S, F>(trace: &Trace<S, F>) -> Vec<SimEvent<S::Simulated>>
where
    S: SimulatorState + State,
{
    let mut events = Vec::new();
    for record in trace {
        push_if_committed(
            &mut events,
            record,
            record.interaction.starter(),
            &record.old_starter,
            &record.new_starter,
        );
        push_if_committed(
            &mut events,
            record,
            record.interaction.reactor(),
            &record.old_reactor,
            &record.new_reactor,
        );
    }
    events
}

fn push_if_committed<S, F>(
    events: &mut Vec<SimEvent<S::Simulated>>,
    record: &StepRecord<S, F>,
    agent: AgentId,
    old: &S,
    new: &S,
) where
    S: SimulatorState + State,
{
    let advanced = new.commit_count().saturating_sub(old.commit_count());
    debug_assert!(advanced <= 1, "at most one commit per agent per step");
    if advanced == 0 {
        return;
    }
    let commit = new
        .last_commit()
        .expect("a state with commits has a last commit");
    events.push(SimEvent {
        step: record.index,
        agent,
        role: commit.role,
        partner_state: commit.partner.clone(),
        partner_id: commit.partner_id,
        agent_protocol_id: new.protocol_id(),
        old: old.simulated().clone(),
        new: new.simulated().clone(),
        seq: commit.seq,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{project, Sid, Skno};
    use ppfts_engine::{Batched, FullTrace, OneWayModel, OneWayRunner, Planned, Stop};
    use ppfts_population::{Interaction, TableProtocol};

    fn pairing() -> TableProtocol<char> {
        TableProtocol::builder(vec!['s', 'c', 'p', '_'])
            .rule(('c', 'p'), ('s', '_'))
            .rule(('p', 'c'), ('_', 's'))
            .build()
    }

    fn i(s: usize, r: usize) -> Interaction {
        Interaction::new(s, r).unwrap()
    }

    #[test]
    fn sid_handshake_yields_one_starter_and_one_reactor_event() {
        let sid = Sid::new(pairing());
        let mut runner = OneWayRunner::builder(OneWayModel::Io, sid)
            .config(Sid::<TableProtocol<char>>::initial(&['c', 'p']))
            .trace_sink(FullTrace::new())
            .build()
            .unwrap();
        runner
            .apply_planned([
                Planned::ok(i(0, 1)),
                Planned::ok(i(1, 0)),
                Planned::ok(i(0, 1)),
            ])
            .unwrap();
        let events = extract_events(&runner.take_trace().unwrap());
        assert_eq!(events.len(), 2);
        // a0 locked at step 1 (fs), a1 completed at step 2 (fr).
        assert_eq!(events[0].agent, AgentId::new(0));
        assert_eq!(events[0].role, Role::Starter);
        assert_eq!((events[0].old, events[0].new), ('c', 's'));
        assert_eq!(events[0].partner_state, 'p');
        assert_eq!(events[1].agent, AgentId::new(1));
        assert_eq!(events[1].role, Role::Reactor);
        assert_eq!((events[1].old, events[1].new), ('p', '_'));
        assert_eq!(events[1].partner_state, 'c');
        assert!(events[0].step < events[1].step);
    }

    #[test]
    fn skno_events_record_anonymous_partners() {
        let skno = Skno::new(pairing(), 0);
        let mut runner = OneWayRunner::builder(OneWayModel::I3, skno)
            .config(Skno::<TableProtocol<char>>::initial(&['c', 'p']))
            .trace_sink(FullTrace::new())
            .build()
            .unwrap();
        runner
            .apply_planned([Planned::ok(i(0, 1)), Planned::ok(i(1, 0))])
            .unwrap();
        let events = extract_events(&runner.take_trace().unwrap());
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.partner_id.is_none()));
        // The reactor commits first in SKnO (it consumes the plain run).
        assert_eq!(events[0].role, Role::Reactor);
        assert_eq!(events[1].role, Role::Starter);
    }

    #[test]
    fn no_events_without_commits() {
        let sid = Sid::new(pairing());
        let mut runner = OneWayRunner::builder(OneWayModel::Io, sid)
            .config(Sid::<TableProtocol<char>>::initial(&['c', 'c']))
            .trace_sink(FullTrace::new())
            .build()
            .unwrap();
        // Two consumers can pair and lock — δ(c, c) is the identity — so
        // events may exist but never change simulated state.
        runner.run(Batched(1), Stop::steps(100)).unwrap();
        let trace = runner.take_trace().unwrap();
        let events = extract_events(&trace);
        assert!(events.iter().all(|e| e.old == e.new));
        assert_eq!(project(runner.config()).as_slice(), &['c', 'c']);
    }
}
