//! Transition Time and Fastest Transition Time (paper Definitions 6–7).
//!
//! The **TT** of a two-agent execution is the first step at which *both*
//! agents' simulated states have transitioned according to `δ_P`; the
//! **FTT** of a simulator on an initial pair is the minimum TT over all
//! fault-free schedules — the simulator's "maximum speed".
//!
//! FTT is the load-bearing quantity of the impossibility results: Lemma 1
//! builds a safety-violating run `I*` using exactly `FTT` omissions, so a
//! simulator with a *small* FTT is *more* fragile, not less. The attack
//! builders in `ppfts-verify` start from [`fastest_transition_time`]'s
//! witness schedule.

use std::collections::HashMap;
use std::collections::VecDeque;

use ppfts_engine::{outcome, EngineError, OneWayFault, OneWayModel, OneWayProgram};
use ppfts_population::{Interaction, State, TwoWayProtocol};

use crate::SimulatorState;

/// A two-agent joint state during schedule search.
type PairState<S> = (S, S);
/// Parent pointers of the BFS: child pair → (parent pair, interaction).
type ParentMap<S> = HashMap<PairState<S>, (PairState<S>, Interaction)>;

/// A witness of the fastest fault-free simulation of one two-way
/// transition by a two-agent system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FttWitness {
    /// The FTT value `t`: number of interactions in the schedule.
    pub steps: u32,
    /// The schedule achieving it (interactions between agents 0 and 1).
    pub schedule: Vec<Interaction>,
}

/// Computes the FTT of `(simulator, protocol, initial pair)` by
/// breadth-first search over the fault-free two-agent schedule tree
/// (branching on `(a0, a1)` vs `(a1, a0)` at each step).
///
/// `q0` and `q1` are the two agents' *simulator* states; the target is the
/// projected pair `δ_P(π(q0), π(q1))` with agent 0 as the simulated
/// starter or, symmetrically, `δ_P(π(q1), π(q0))` reversed — the paper's
/// Definition 6 fixes agent 0's target as `δ(π(C0[0]), π(C0[1]))[0]`,
/// which we follow.
///
/// Returns `None` if no schedule of at most `max_depth` steps reaches the
/// target (e.g. `δ_P` is the identity on the pair, making the target
/// states equal to the initial ones trivially — that case returns
/// `Some(0)`).
///
/// # Example
///
/// ```
/// use ppfts_core::{fastest_transition_time, Sid, SidState};
/// use ppfts_engine::OneWayModel;
/// use ppfts_protocols::Pairing;
/// use ppfts_protocols::PairingState::{Consumer, Producer};
///
/// let sid = Sid::new(Pairing);
/// let w = fastest_transition_time(
///     OneWayModel::Io,
///     &sid,
///     &Pairing,
///     SidState::new(0, Consumer),
///     SidState::new(1, Producer),
///     32,
/// ).expect("SID simulates Pairing in 3 observations");
/// assert_eq!(w.steps, 3);
/// ```
pub fn fastest_transition_time<Sim, P>(
    model: OneWayModel,
    simulator: &Sim,
    protocol: &P,
    q0: Sim::State,
    q1: Sim::State,
    max_depth: u32,
) -> Option<FttWitness>
where
    Sim: OneWayProgram,
    Sim::State: SimulatorState<Simulated = P::State> + State,
    P: TwoWayProtocol,
{
    let (target0, target1) = protocol.delta(q0.simulated(), q1.simulated());
    let reached =
        |a: &Sim::State, b: &Sim::State| *a.simulated() == target0 && *b.simulated() == target1;
    let schedule = shortest_schedule(model, simulator, q0, q1, max_depth, reached)?;
    Some(FttWitness {
        steps: u32::try_from(schedule.len()).expect("schedules are at most max_depth long"),
        schedule,
    })
}

/// The shortest fault-free schedule that takes the two-agent pair
/// `(a, b)` to a pair on which `target` holds, found by breadth-first
/// search over the schedule tree (branching on `(a0, a1)` vs `(a1, a0)`
/// at each step); empty if `target` already holds, `None` if no schedule
/// of at most `max_depth` steps reaches it.
pub fn shortest_schedule<Sim>(
    model: OneWayModel,
    simulator: &Sim,
    a: Sim::State,
    b: Sim::State,
    max_depth: u32,
    target: impl Fn(&Sim::State, &Sim::State) -> bool,
) -> Option<Vec<Interaction>>
where
    Sim: OneWayProgram,
    Sim::State: State,
{
    if target(&a, &b) {
        return Some(Vec::new());
    }
    let forward = Interaction::new(0, 1).expect("distinct");
    let backward = Interaction::new(1, 0).expect("distinct");

    // BFS over (state0, state1) with parent pointers for the witness.
    let mut queue: VecDeque<PairState<Sim::State>> = VecDeque::new();
    let mut seen: HashMap<PairState<Sim::State>, u32> = HashMap::new();
    let mut parent: ParentMap<Sim::State> = HashMap::new();
    let initial = (a, b);
    seen.insert(initial.clone(), 0);
    queue.push_back(initial);

    while let Some(node) = queue.pop_front() {
        let depth = seen[&node];
        if depth >= max_depth {
            continue;
        }
        for interaction in [forward, backward] {
            let Ok(next) = step_pair(model, simulator, &node, interaction, OneWayFault::None)
            else {
                continue;
            };
            if seen.contains_key(&next) {
                continue;
            }
            seen.insert(next.clone(), depth + 1);
            parent.insert(next.clone(), (node.clone(), interaction));
            if target(&next.0, &next.1) {
                // Reconstruct the schedule.
                let mut schedule = Vec::new();
                let mut cursor = next;
                while let Some((prev, i)) = parent.get(&cursor) {
                    schedule.push(*i);
                    cursor = prev.clone();
                }
                schedule.reverse();
                return Some(schedule);
            }
            queue.push_back(next);
        }
    }
    None
}

/// The two-agent pair after one interaction between its agents 0 and 1
/// under `fault`.
///
/// # Errors
///
/// [`EngineError::FaultNotInRelation`] if `model` has no such fault.
///
/// # Panics
///
/// Panics if `interaction` names an agent other than 0 and 1.
pub fn step_pair<Sim>(
    model: OneWayModel,
    simulator: &Sim,
    pair: &PairState<Sim::State>,
    interaction: Interaction,
    fault: OneWayFault,
) -> Result<PairState<Sim::State>, EngineError>
where
    Sim: OneWayProgram,
{
    let (s_idx, r_idx) = (interaction.starter().index(), interaction.reactor().index());
    assert!(s_idx < 2 && r_idx < 2, "two-agent schedules only");
    let (s, r) = if s_idx == 0 {
        (&pair.0, &pair.1)
    } else {
        (&pair.1, &pair.0)
    };
    let (s2, r2) = outcome::one_way(model, simulator, s, r, fault)?;
    Ok(if s_idx == 0 { (s2, r2) } else { (r2, s2) })
}

/// Measures the TT (Definition 6) of a specific two-agent schedule:
/// the first step index (1-based) after which both simulated states match
/// `δ_P` applied to the initial pair, or `None` if the schedule ends
/// first.
pub fn transition_time<Sim, P>(
    model: OneWayModel,
    simulator: &Sim,
    protocol: &P,
    q0: Sim::State,
    q1: Sim::State,
    schedule: &[Interaction],
) -> Option<u32>
where
    Sim: OneWayProgram,
    Sim::State: SimulatorState<Simulated = P::State> + State,
    P: TwoWayProtocol,
{
    let (target0, target1) = protocol.delta(q0.simulated(), q1.simulated());
    let reached =
        |(a, b): &PairState<Sim::State>| *a.simulated() == target0 && *b.simulated() == target1;
    let mut pair = (q0, q1);
    if reached(&pair) {
        return Some(0);
    }
    for (step, &interaction) in schedule.iter().enumerate() {
        pair = step_pair(model, simulator, &pair, interaction, OneWayFault::None).ok()?;
        if reached(&pair) {
            return Some(step as u32 + 1);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sid, SidState, Skno, SknoState};
    use ppfts_protocols::Pairing;
    use ppfts_protocols::PairingState::{Consumer, Producer};

    #[test]
    fn sid_ftt_is_three() {
        let sid = Sid::new(Pairing);
        let w = fastest_transition_time(
            OneWayModel::Io,
            &sid,
            &Pairing,
            SidState::new(0, Consumer),
            SidState::new(1, Producer),
            16,
        )
        .unwrap();
        assert_eq!(w.steps, 3);
        assert_eq!(w.schedule.len(), 3);
    }

    #[test]
    fn skno_ftt_is_two_runs() {
        for o in [0u32, 1, 2] {
            let skno = Skno::new(Pairing, o);
            let w = fastest_transition_time(
                OneWayModel::I3,
                &skno,
                &Pairing,
                SknoState::new(Consumer),
                SknoState::new(Producer),
                64,
            )
            .unwrap();
            assert_eq!(w.steps, 2 * (o + 1), "o = {o}");
        }
    }

    #[test]
    fn witness_schedule_replays_to_the_same_tt() {
        let skno = Skno::new(Pairing, 1);
        let w = fastest_transition_time(
            OneWayModel::I3,
            &skno,
            &Pairing,
            SknoState::new(Consumer),
            SknoState::new(Producer),
            64,
        )
        .unwrap();
        let tt = transition_time(
            OneWayModel::I3,
            &skno,
            &Pairing,
            SknoState::new(Consumer),
            SknoState::new(Producer),
            &w.schedule,
        )
        .unwrap();
        assert_eq!(tt, w.steps);
    }

    #[test]
    fn identity_pairs_have_zero_ftt() {
        // δ(c, c) is the identity, so the target is reached immediately.
        let sid = Sid::new(Pairing);
        let w = fastest_transition_time(
            OneWayModel::Io,
            &sid,
            &Pairing,
            SidState::new(0, Consumer),
            SidState::new(1, Consumer),
            8,
        )
        .unwrap();
        assert_eq!(w.steps, 0);
    }

    #[test]
    fn depth_budget_is_respected() {
        let sid = Sid::new(Pairing);
        let none = fastest_transition_time(
            OneWayModel::Io,
            &sid,
            &Pairing,
            SidState::new(0, Consumer),
            SidState::new(1, Producer),
            2, // FTT is 3: not reachable in 2
        );
        assert!(none.is_none());
    }
}
