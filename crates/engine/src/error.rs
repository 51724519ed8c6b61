//! Engine error type.

use std::error::Error;
use std::fmt;

use ppfts_population::PopulationError;

use crate::{InteractionLaw, Model};

/// Errors raised while configuring or driving an execution.
///
/// # Example
///
/// ```
/// use ppfts_engine::outcome::one_way;
/// use ppfts_engine::{EngineError, OneWayFault, OneWayModel, OneWayProgram};
///
/// struct Noop;
/// impl OneWayProgram for Noop {
///     type State = u8;
///     fn on_receive(&self, _s: &u8, r: &u8) -> u8 { *r }
/// }
///
/// let err = one_way(OneWayModel::Io, &Noop, &0, &0, OneWayFault::Omission).unwrap_err();
/// assert!(matches!(err, EngineError::FaultNotInRelation { .. }));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The requested fault decoration is not part of the model's transition
    /// relation (e.g. any omission under TW/IT/IO, a both-sides omission
    /// under T1).
    FaultNotInRelation {
        /// The interaction model in force.
        model: Model,
        /// Display form of the rejected fault.
        fault: String,
    },
    /// A runner was built without a configuration, or with fewer than two
    /// agents.
    InvalidPopulation {
        /// Number of agents supplied.
        len: usize,
    },
    /// An underlying population operation failed.
    Population(PopulationError),
    /// The operation attributes interactions to individual agents, which
    /// a count-based population backend cannot do. Per-agent records
    /// ([`step`](crate::Runner::step), recording
    /// [`TraceSink`](crate::TraceSink)s) and planned interaction
    /// sequences require the dense backend.
    PerAgentBackendRequired {
        /// The per-agent operation that was attempted.
        operation: &'static str,
    },
    /// A count-based population backend was assembled with a scheduler
    /// whose [`InteractionLaw`] it cannot realize: counts sample pairs
    /// straight from state multiplicities, which reproduces exactly the
    /// uniform complete-graph law and nothing else. Restricted
    /// topologies and index-addressed schedules need the dense backend.
    CompleteInteractionLawRequired {
        /// The law the rejected scheduler deals from.
        law: InteractionLaw,
    },
    /// The batch-epoch path ([`Epochs`](crate::Epochs)) was asked to
    /// honor a feature it cannot express: epochs apply whole pair-groups
    /// at once, so omission adversaries must be reducible to a fixed
    /// i.i.d. rate
    /// ([`OmissionStrategy::iid_rate`](crate::OmissionStrategy::iid_rate))
    /// and no single step can be watched for a quiet window.
    /// Step-indexed, budgeted, or scripted fault schedules and
    /// [`Stop::quiet`](crate::Stop::quiet) need the interleaved path
    /// ([`Batched`](crate::Batched)).
    EpochIncompatible {
        /// The feature the epoch path cannot honor.
        feature: &'static str,
    },
    /// A topology-bound scheduler was assembled with a population of a
    /// different size than its interaction graph.
    TopologySizeMismatch {
        /// Vertices of the scheduler's topology.
        topology: usize,
        /// Agents in the supplied population.
        population: usize,
    },
    /// A topology-bound *program* (a graphical simulator) was assembled
    /// with a scheduler that does not deal exactly its interaction graph.
    /// Graphical simulators restrict run formation to graph-adjacent
    /// agents, so scheduling any other law would silently change the
    /// simulated semantics; the mismatch is rejected when the runner is
    /// built.
    ProgramTopologyMismatch {
        /// Display form of the topology the program is bound to.
        program_topology: String,
        /// The law the offending scheduler deals from.
        law: InteractionLaw,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::FaultNotInRelation { model, fault } => {
                write!(
                    f,
                    "fault `{fault}` is not in the transition relation of model {model}"
                )
            }
            EngineError::InvalidPopulation { len } => {
                write!(
                    f,
                    "runner needs a population of at least 2 agents, got {len}"
                )
            }
            EngineError::Population(e) => write!(f, "population error: {e}"),
            EngineError::PerAgentBackendRequired { operation } => {
                write!(
                    f,
                    "{operation} requires a per-agent (dense) population backend; \
                     the count backend stores state multiplicities only"
                )
            }
            EngineError::CompleteInteractionLawRequired { law } => {
                write!(
                    f,
                    "count-based populations realize the interaction distribution from \
                     state counts, which is only possible for the uniform complete-graph \
                     law; got a scheduler dealing the {law} law — use the dense backend"
                )
            }
            EngineError::EpochIncompatible { feature } => {
                write!(
                    f,
                    "the batch-epoch path cannot honor {feature}; use the \
                     interleaved path (`Batched`) instead"
                )
            }
            EngineError::TopologySizeMismatch {
                topology,
                population,
            } => {
                write!(
                    f,
                    "scheduler topology spans {topology} agents but the population has \
                     {population}; build the topology for the population you run"
                )
            }
            EngineError::ProgramTopologyMismatch {
                program_topology,
                law,
            } => {
                write!(
                    f,
                    "the program is bound to the interaction graph {program_topology} but \
                     the scheduler deals the {law} law; schedule the same topology the \
                     graphical program was built on"
                )
            }
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Population(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PopulationError> for EngineError {
    fn from(e: PopulationError) -> Self {
        EngineError::Population(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TwoWayModel;

    #[test]
    fn displays_are_informative() {
        let e = EngineError::FaultNotInRelation {
            model: Model::TwoWay(TwoWayModel::Tw),
            fault: "omit@both".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("TW"));
        assert!(msg.contains("omit@both"));
    }

    #[test]
    fn negotiation_errors_name_the_offenders() {
        let e = EngineError::CompleteInteractionLawRequired {
            law: InteractionLaw::Topological,
        };
        assert!(e.to_string().contains("topological"));
        let e = EngineError::TopologySizeMismatch {
            topology: 8,
            population: 6,
        };
        let msg = e.to_string();
        assert!(msg.contains('8') && msg.contains('6'));
        let e = EngineError::EpochIncompatible {
            feature: "step-indexed omission schedules",
        };
        let msg = e.to_string();
        assert!(msg.contains("step-indexed omission schedules"));
        assert!(msg.contains("interleaved"));
    }

    #[test]
    fn population_errors_are_wrapped_with_source() {
        let e: EngineError = PopulationError::SelfInteraction { agent: 1 }.into();
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<EngineError>();
    }
}
