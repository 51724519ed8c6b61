//! Agent programs: what each party computes in an interaction.

use ppfts_population::{State, Topology, TwoWayProtocol};

use crate::{outcome, EngineError, Family, OneWayFault, OneWayModel, TwoWayFault, TwoWayModel};

/// Behaviour of an agent under the two-way family of models (TW, T1–T3).
///
/// The four hooks correspond to the paper's `fs`, `fr`, `o` and `h`. The
/// detection hooks default to the identity ("the omission goes unnoticed");
/// the engine only ever invokes them in models whose relation includes them
/// (`o` in T2/T3, `h` in T3).
///
/// Every [`TwoWayProtocol`] is automatically a `TwoWayProgram` with
/// undetectable omissions, so plain protocols can be run under any two-way
/// model directly.
///
/// # Example
///
/// ```
/// use ppfts_engine::TwoWayProgram;
///
/// /// Counts interactions and detected omissions.
/// struct Meter;
/// impl TwoWayProgram for Meter {
///     type State = (u32, u32); // (interactions seen, omissions detected)
///     fn starter_update(&self, s: &(u32, u32), _r: &(u32, u32)) -> (u32, u32) {
///         (s.0 + 1, s.1)
///     }
///     fn reactor_update(&self, _s: &(u32, u32), r: &(u32, u32)) -> (u32, u32) {
///         (r.0 + 1, r.1)
///     }
///     fn starter_omission(&self, s: &(u32, u32)) -> (u32, u32) {
///         (s.0, s.1 + 1)
///     }
/// }
///
/// assert_eq!(Meter.starter_update(&(0, 0), &(9, 9)), (1, 0));
/// assert_eq!(Meter.starter_omission(&(1, 0)), (1, 1));
/// ```
pub trait TwoWayProgram {
    /// Local state space of the program.
    type State: State;

    /// `fs(s, r)`: the starter's update on a fault-free interaction.
    fn starter_update(&self, s: &Self::State, r: &Self::State) -> Self::State;

    /// `fr(s, r)`: the reactor's update on a fault-free interaction.
    fn reactor_update(&self, s: &Self::State, r: &Self::State) -> Self::State;

    /// `o(s)`: the starter's update upon *detecting* an omission on its
    /// side. Defaults to the identity (undetectable). Called only under T2
    /// and T3.
    fn starter_omission(&self, s: &Self::State) -> Self::State {
        s.clone()
    }

    /// `h(r)`: the reactor's update upon *detecting* an omission on its
    /// side. Defaults to the identity (undetectable). Called only under T3.
    fn reactor_omission(&self, r: &Self::State) -> Self::State {
        r.clone()
    }

    /// The interaction graph this program's semantics are bound to, if
    /// any — see [`OneWayProgram::required_topology`] for the contract.
    /// Defaults to `None` (topology-agnostic).
    fn required_topology(&self) -> Option<&Topology> {
        None
    }
}

impl<P: TwoWayProtocol> TwoWayProgram for P {
    type State = P::State;

    fn starter_update(&self, s: &Self::State, r: &Self::State) -> Self::State {
        self.starter_out(s, r)
    }

    fn reactor_update(&self, s: &Self::State, r: &Self::State) -> Self::State {
        self.reactor_out(s, r)
    }
}

/// Behaviour of an agent under the one-way family of models (IT, IO,
/// I1–I4).
///
/// The hooks correspond to the paper's `g`, `f`, `o` and `h`:
///
/// * [`on_proximity`](OneWayProgram::on_proximity) — `g`, applied by an
///   agent that detects the *proximity* of another agent without reading
///   its state: the starter in every model except IO, and the *reactor* of
///   an omissive interaction in I2 and I4. Defaults to the identity.
/// * [`on_receive`](OneWayProgram::on_receive) — `f(s, r)`, the reactor's
///   update when the transmission is delivered.
/// * [`on_omission_starter`](OneWayProgram::on_omission_starter) — `o`,
///   starter-side omission detection. Called only under I4. Defaults to
///   `g`.
/// * [`on_omission_reactor`](OneWayProgram::on_omission_reactor) — `h`,
///   reactor-side omission detection. Called only under I3. Defaults to
///   the identity.
///
/// # Example
///
/// ```
/// use ppfts_engine::OneWayProgram;
///
/// /// Max-gossip, one-way: the reactor learns the starter's value.
/// struct MaxGossip;
/// impl OneWayProgram for MaxGossip {
///     type State = u32;
///     fn on_receive(&self, s: &u32, r: &u32) -> u32 { (*s).max(*r) }
/// }
/// assert_eq!(MaxGossip.on_receive(&7, &3), 7);
/// assert_eq!(MaxGossip.on_proximity(&3), 3); // default: identity
/// ```
pub trait OneWayProgram {
    /// Local state space of the program.
    type State: State;

    /// `g`: update on detecting the proximity of another agent (no state
    /// received). Defaults to the identity.
    fn on_proximity(&self, q: &Self::State) -> Self::State {
        q.clone()
    }

    /// `f(s, r)`: the reactor's update upon receiving the starter's state.
    fn on_receive(&self, s: &Self::State, r: &Self::State) -> Self::State;

    /// `o`: the starter's update upon detecting that its transmission was
    /// lost. Called only under I4. Defaults to [`on_proximity`]
    /// (detection adds nothing unless overridden).
    ///
    /// [`on_proximity`]: OneWayProgram::on_proximity
    fn on_omission_starter(&self, s: &Self::State) -> Self::State {
        self.on_proximity(s)
    }

    /// `h`: the reactor's update upon detecting that an incoming
    /// transmission was lost. Called only under I3. Defaults to the
    /// identity.
    fn on_omission_reactor(&self, r: &Self::State) -> Self::State {
        r.clone()
    }

    // In-place forms, used by the runners' record-free fast path. Each
    // mutates the state directly and reports whether it changed; the
    // contract is exact equivalence with its pure form:
    // `hook_in_place(q)` must leave `q == hook(&old_q)` and return
    // `q != old_q` under the state's `PartialEq`. The defaults delegate
    // to the pure hooks, so only programs with allocation-heavy states
    // (e.g. `SKnO`'s token queues) need to override them.

    /// In-place [`on_proximity`](Self::on_proximity).
    fn on_proximity_in_place(&self, q: &mut Self::State) -> bool {
        let next = self.on_proximity(q);
        let changed = next != *q;
        if changed {
            *q = next;
        }
        changed
    }

    /// In-place [`on_receive`](Self::on_receive) (the starter is read
    /// only, exactly like the pure form).
    fn on_receive_in_place(&self, s: &Self::State, r: &mut Self::State) -> bool {
        let next = self.on_receive(s, r);
        let changed = next != *r;
        if changed {
            *r = next;
        }
        changed
    }

    /// In-place [`on_omission_starter`](Self::on_omission_starter).
    fn on_omission_starter_in_place(&self, s: &mut Self::State) -> bool {
        let next = self.on_omission_starter(s);
        let changed = next != *s;
        if changed {
            *s = next;
        }
        changed
    }

    /// In-place [`on_omission_reactor`](Self::on_omission_reactor).
    fn on_omission_reactor_in_place(&self, r: &mut Self::State) -> bool {
        let next = self.on_omission_reactor(r);
        let changed = next != *r;
        if changed {
            *r = next;
        }
        changed
    }

    /// The interaction graph this program's semantics are bound to, if
    /// any. Defaults to `None` (topology-agnostic, the classic case).
    ///
    /// Graphical programs — e.g. the simulators of `ppfts-core` built
    /// with their `graphical` constructors — return the topology their
    /// per-agent state was laid out for (agent index = graph vertex).
    /// Runner builders then refuse to assemble such a program with a
    /// scheduler that deals any other interaction law: the population
    /// must span exactly the graph's vertices
    /// ([`TopologySizeMismatch`](crate::EngineError::TopologySizeMismatch))
    /// and the scheduler must deal exactly this graph's arcs (or the
    /// uniform law, when the required topology is complete) —
    /// anything else fails at `build()` with
    /// [`ProgramTopologyMismatch`](crate::EngineError::ProgramTopologyMismatch).
    fn required_topology(&self) -> Option<&Topology> {
        None
    }
}

/// Checks that a program is a valid **IO** program on the sampled states:
/// IO forces the proximity hook `g` to be the identity, since the starter
/// of an Immediate Observation interaction is completely unaware of it.
///
/// Returns the states (if any) on which `g` deviates from the identity.
/// The engine never *calls* `g` under IO, so a deviating program would run
/// but not faithfully represent an IO algorithm; this helper lets tests
/// assert faithfulness.
///
/// # Example
///
/// ```
/// use ppfts_engine::{validate_io_program, OneWayProgram};
///
/// struct Bad;
/// impl OneWayProgram for Bad {
///     type State = u8;
///     fn on_proximity(&self, q: &u8) -> u8 { q + 1 } // not identity!
///     fn on_receive(&self, s: &u8, r: &u8) -> u8 { s + r }
/// }
///
/// let offenders = validate_io_program(&Bad, [1u8, 2, 3]);
/// assert_eq!(offenders, vec![1, 2, 3]);
/// ```
pub fn validate_io_program<P: OneWayProgram>(
    program: &P,
    sample: impl IntoIterator<Item = P::State>,
) -> Vec<P::State> {
    sample
        .into_iter()
        .filter(|q| program.on_proximity(q) != *q)
        .collect()
}

/// Convenience extension: query which hooks a model will actually invoke.
pub(crate) fn reactor_hook_on_omission(model: OneWayModel) -> ReactorOmissionHook {
    match model {
        OneWayModel::I1 => ReactorOmissionHook::Identity,
        OneWayModel::I2 | OneWayModel::I4 => ReactorOmissionHook::Proximity,
        OneWayModel::I3 => ReactorOmissionHook::Detection,
        OneWayModel::It | OneWayModel::Io => ReactorOmissionHook::Forbidden,
    }
}

/// Which function the reactor applies when an omissive interaction hits it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReactorOmissionHook {
    /// No omissions exist in this model.
    Forbidden,
    /// The reactor does not notice anything (I1).
    Identity,
    /// The reactor only notices proximity and applies `g` (I2, I4).
    Proximity,
    /// The reactor detects the omission and applies `h` (I3).
    Detection,
}

/// The bridge from a family's program trait to the generic
/// [`Runner`](crate::Runner): blanket-implemented for every
/// [`OneWayProgram`] under [`OneWayModel`] and every [`TwoWayProgram`]
/// under [`TwoWayModel`]. Write programs against those two traits; this
/// one only dispatches an interaction to [`outcome`].
pub trait Program<M: Family> {
    /// Local state space of the program.
    type State: State;

    /// The pure outcome of one interaction, [`outcome::one_way`] or
    /// [`outcome::two_way`]: [`EngineError::FaultNotInRelation`] if
    /// `model` has no such fault.
    fn outcome(
        &self,
        model: M,
        s: &Self::State,
        r: &Self::State,
        fault: M::Fault,
    ) -> Result<(Self::State, Self::State), EngineError>;

    /// The in-place outcome, [`outcome::one_way_in_place`] or
    /// [`outcome::two_way_in_place`], reporting `(starter_changed,
    /// reactor_changed)`; on error nothing is mutated.
    fn outcome_in_place(
        &self,
        model: M,
        s: &mut Self::State,
        r: &mut Self::State,
        fault: M::Fault,
    ) -> Result<(bool, bool), EngineError>;

    /// The program's `required_topology`.
    fn required_topology(&self) -> Option<&Topology>;
}

impl<P: OneWayProgram> Program<OneWayModel> for P {
    type State = P::State;

    fn outcome(
        &self,
        model: OneWayModel,
        s: &P::State,
        r: &P::State,
        fault: OneWayFault,
    ) -> Result<(P::State, P::State), EngineError> {
        outcome::one_way(model, self, s, r, fault)
    }

    fn outcome_in_place(
        &self,
        model: OneWayModel,
        s: &mut P::State,
        r: &mut P::State,
        fault: OneWayFault,
    ) -> Result<(bool, bool), EngineError> {
        outcome::one_way_in_place(model, self, s, r, fault)
    }

    fn required_topology(&self) -> Option<&Topology> {
        OneWayProgram::required_topology(self)
    }
}

impl<P: TwoWayProgram> Program<TwoWayModel> for P {
    type State = P::State;

    fn outcome(
        &self,
        model: TwoWayModel,
        s: &P::State,
        r: &P::State,
        fault: TwoWayFault,
    ) -> Result<(P::State, P::State), EngineError> {
        outcome::two_way(model, self, s, r, fault)
    }

    fn outcome_in_place(
        &self,
        model: TwoWayModel,
        s: &mut P::State,
        r: &mut P::State,
        fault: TwoWayFault,
    ) -> Result<(bool, bool), EngineError> {
        outcome::two_way_in_place(model, self, s, r, fault)
    }

    fn required_topology(&self) -> Option<&Topology> {
        TwoWayProgram::required_topology(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_population::TableProtocol;

    #[test]
    fn protocols_are_programs_with_identity_detection() {
        let p = TableProtocol::builder(vec![0u8, 1])
            .rule((1, 0), (1, 1))
            .build();
        // fs / fr delegate to the protocol…
        assert_eq!(TwoWayProgram::starter_update(&p, &1, &0), 1);
        assert_eq!(TwoWayProgram::reactor_update(&p, &1, &0), 1);
        // …and detection defaults to the identity.
        assert_eq!(TwoWayProgram::starter_omission(&p, &1), 1);
        assert_eq!(TwoWayProgram::reactor_omission(&p, &0), 0);
    }

    #[test]
    fn one_way_defaults() {
        struct Gossip;
        impl OneWayProgram for Gossip {
            type State = u32;
            fn on_receive(&self, s: &u32, r: &u32) -> u32 {
                (*s).max(*r)
            }
        }
        assert_eq!(Gossip.on_proximity(&5), 5);
        assert_eq!(Gossip.on_omission_starter(&5), 5);
        assert_eq!(Gossip.on_omission_reactor(&5), 5);
    }

    #[test]
    fn omission_starter_defaults_to_proximity() {
        struct Ticker;
        impl OneWayProgram for Ticker {
            type State = u32;
            fn on_proximity(&self, q: &u32) -> u32 {
                q + 1
            }
            fn on_receive(&self, _s: &u32, r: &u32) -> u32 {
                *r
            }
        }
        // `o` falls back to `g` unless overridden.
        assert_eq!(Ticker.on_omission_starter(&3), 4);
    }

    #[test]
    fn io_validation_flags_non_identity_g() {
        struct Ok_;
        impl OneWayProgram for Ok_ {
            type State = u8;
            fn on_receive(&self, s: &u8, r: &u8) -> u8 {
                s | r
            }
        }
        assert!(validate_io_program(&Ok_, [0u8, 1, 2]).is_empty());
    }

    #[test]
    fn reactor_hooks_match_models() {
        assert_eq!(
            reactor_hook_on_omission(OneWayModel::I1),
            ReactorOmissionHook::Identity
        );
        assert_eq!(
            reactor_hook_on_omission(OneWayModel::I2),
            ReactorOmissionHook::Proximity
        );
        assert_eq!(
            reactor_hook_on_omission(OneWayModel::I3),
            ReactorOmissionHook::Detection
        );
        assert_eq!(
            reactor_hook_on_omission(OneWayModel::I4),
            ReactorOmissionHook::Proximity
        );
        assert_eq!(
            reactor_hook_on_omission(OneWayModel::Io),
            ReactorOmissionHook::Forbidden
        );
    }
}
