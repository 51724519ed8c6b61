//! The inclusion hierarchy of interaction models (paper Figure 1).
//!
//! An arrow `A → B` means: every problem solvable under model `A` is
//! solvable under model `B`. The paper derives its arrows from two
//! principles (§2.3), which we encode explicitly:
//!
//! 1. **Relation specialization** — the transition relation of the source
//!    is a special case of the destination's (instantiate a detection hook
//!    with a concrete function). E.g. T2 → T3 by `h := id`, IO → IT by
//!    `g := id`, I2 → I3 by `h := g`.
//! 2. **Adversary avoidance** — the destination's adversary may simply
//!    insert no omissions, so an omissive model includes its fault-free
//!    base. E.g. T3 → TW (the paper's own example), I_k → IT.
//!
//! [`includes`] answers reachability over the reflexive–transitive closure
//! of those arrows. The per-arrow justification is kept in
//! [`direct_inclusions`] so tests (and the Figure 1 reproduction harness)
//! can audit each edge.

use crate::{Model, OneWayModel, TwoWayModel};

/// Why an inclusion arrow holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrowReason {
    /// The source relation is a special case of the destination relation
    /// (a detection hook instantiated with the named function).
    Specialization(&'static str),
    /// The destination adversary can refuse to insert omissions.
    AdversaryAvoidance,
}

/// One inclusion arrow of Figure 1 with its justification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrow {
    /// Weaker model (solvable problems form a subset).
    pub from: Model,
    /// Stronger model.
    pub to: Model,
    /// The paper's justification for the arrow.
    pub reason: ArrowReason,
}

const TW: Model = Model::TwoWay(TwoWayModel::Tw);
const T1: Model = Model::TwoWay(TwoWayModel::T1);
const T2: Model = Model::TwoWay(TwoWayModel::T2);
const T3: Model = Model::TwoWay(TwoWayModel::T3);
const IT: Model = Model::OneWay(OneWayModel::It);
const IO: Model = Model::OneWay(OneWayModel::Io);
const I1: Model = Model::OneWay(OneWayModel::I1);
const I2: Model = Model::OneWay(OneWayModel::I2);
const I3: Model = Model::OneWay(OneWayModel::I3);
const I4: Model = Model::OneWay(OneWayModel::I4);

/// The direct inclusion arrows with their justifications.
///
/// # Example
///
/// ```
/// use ppfts_engine::hierarchy::{direct_inclusions, ArrowReason};
///
/// // T3 → TW is the adversary-avoidance example given in the paper.
/// assert!(direct_inclusions().iter().any(|a| {
///     a.from.to_string() == "T3"
///         && a.to.to_string() == "TW"
///         && a.reason == ArrowReason::AdversaryAvoidance
/// }));
/// ```
pub fn direct_inclusions() -> &'static [Arrow] {
    use ArrowReason::*;
    &[
        // Two-way chain: less detection → more detection.
        Arrow {
            from: T1,
            to: T2,
            reason: Specialization("o := id (plus the pruned no-op outcome)"),
        },
        Arrow {
            from: T2,
            to: T3,
            reason: Specialization("h := id"),
        },
        // Omissive models include their fault-free base.
        Arrow {
            from: T1,
            to: TW,
            reason: AdversaryAvoidance,
        },
        Arrow {
            from: T2,
            to: TW,
            reason: AdversaryAvoidance,
        },
        Arrow {
            from: T3,
            to: TW,
            reason: AdversaryAvoidance,
        },
        Arrow {
            from: I1,
            to: IT,
            reason: AdversaryAvoidance,
        },
        Arrow {
            from: I2,
            to: IT,
            reason: AdversaryAvoidance,
        },
        Arrow {
            from: I3,
            to: IT,
            reason: AdversaryAvoidance,
        },
        Arrow {
            from: I4,
            to: IT,
            reason: AdversaryAvoidance,
        },
        // One-way omissive lattice: weak detection → strong detection.
        Arrow {
            from: I1,
            to: I3,
            reason: Specialization("h := id"),
        },
        Arrow {
            from: I2,
            to: I3,
            reason: Specialization("h := g"),
        },
        Arrow {
            from: I2,
            to: I4,
            reason: Specialization("o := g"),
        },
        // One-way bases into the stronger worlds.
        Arrow {
            from: IO,
            to: IT,
            reason: Specialization("g := id"),
        },
        Arrow {
            from: IT,
            to: TW,
            reason: Specialization("fs(s, r) := g(s), fr := f"),
        },
    ]
}

/// Whether every problem solvable under `weaker` is solvable under
/// `stronger`, per the reflexive–transitive closure of Figure 1's arrows.
///
/// # Example
///
/// ```
/// use ppfts_engine::hierarchy::includes;
/// use ppfts_engine::{Model, OneWayModel, TwoWayModel};
///
/// let io = Model::OneWay(OneWayModel::Io);
/// let tw = Model::TwoWay(TwoWayModel::Tw);
/// assert!(includes(io, tw));  // IO-solvable ⊆ TW-solvable
/// assert!(!includes(tw, io)); // … and not conversely (paper [4])
/// ```
pub fn includes(weaker: Model, stronger: Model) -> bool {
    if weaker == stronger {
        return true;
    }
    // Tiny graph: depth-first search over the static arrows.
    let mut stack = vec![weaker];
    let mut visited = Vec::new();
    while let Some(m) = stack.pop() {
        if m == stronger {
            return true;
        }
        if visited.contains(&m) {
            continue;
        }
        visited.push(m);
        for a in direct_inclusions() {
            if a.from == m {
                stack.push(a.to);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_reaches_tw_from_everything() {
        for m in Model::ALL {
            assert!(includes(m, TW), "{m} must be included in TW");
        }
    }

    #[test]
    fn tw_is_strictly_strongest() {
        for m in Model::ALL {
            if m != TW {
                assert!(!includes(TW, m), "TW must not be included in {m}");
            }
        }
    }

    #[test]
    fn one_way_lattice() {
        assert!(includes(I1, I3));
        assert!(includes(I2, I3));
        assert!(includes(I2, I4));
        assert!(includes(I1, IT));
        assert!(includes(IO, IT));
        // The strong omissive models are incomparable with each other.
        assert!(!includes(I3, I4));
        assert!(!includes(I4, I3));
        // And nothing flows back down from IT.
        assert!(!includes(IT, I3));
        assert!(!includes(IT, IO));
    }

    #[test]
    fn two_way_chain() {
        assert!(includes(T1, T2));
        assert!(includes(T1, T3)); // via T2
        assert!(includes(T2, T3));
        assert!(!includes(T3, T2));
        assert!(!includes(T2, T1));
    }

    #[test]
    fn families_only_meet_at_the_top() {
        // No two-way omissive model is included in any one-way model.
        for t in [T1, T2, T3] {
            for i in [IT, IO, I1, I2, I3, I4] {
                assert!(!includes(t, i), "{t} must not be included in {i}");
            }
        }
    }

    #[test]
    fn reflexivity() {
        for m in Model::ALL {
            assert!(includes(m, m));
        }
    }

    #[test]
    fn weaker_models_of_it_contains_all_one_way() {
        for m in [IT, IO, I1, I2, I3, I4] {
            assert!(includes(m, IT));
        }
        assert!(!includes(TW, IT));
        assert!(!includes(T3, IT));
    }

    #[test]
    fn every_arrow_connects_distinct_models() {
        for a in direct_inclusions() {
            assert_ne!(a.from, a.to);
        }
    }

    #[test]
    fn arrows_are_acyclic() {
        // includes() in both directions would indicate a cycle (the paper's
        // figure is a DAG after pruning equivalent models).
        for a in direct_inclusions() {
            assert!(
                !includes(a.to, a.from),
                "cycle through {} → {}",
                a.from,
                a.to
            );
        }
    }
}
