//! Pure semantics of a single (possibly faulty) interaction.
//!
//! These two functions are the authoritative encoding of the transition
//! relations of the paper's Figure 1 (reproduced in the docs of
//! [`TwoWayModel`] and [`OneWayModel`]). Runners, attack builders and the
//! model checker all funnel through them, so the faulty outcomes are
//! defined in exactly one place.

use crate::program::{reactor_hook_on_omission, ReactorOmissionHook};
use crate::{
    EngineError, Family, OneWayFault, OneWayModel, OneWayProgram, TwoWayFault, TwoWayModel,
    TwoWayProgram,
};

/// Outcome pair of one **two-way** interaction between states `s`
/// (starter) and `r` (reactor) under `model`, decorated with `fault`.
///
/// # Errors
///
/// Returns [`EngineError::FaultNotInRelation`] if `fault` is not part of
/// `model`'s transition relation: any omission under TW, and a both-sides
/// omission under T1 (pruned in Figure 1 because no party could even
/// detect it).
///
/// # Example
///
/// ```
/// use ppfts_engine::outcome::two_way;
/// use ppfts_engine::{TwoWayFault, TwoWayModel};
/// use ppfts_population::{FunctionProtocol, TwoWayProtocol};
///
/// let swap = FunctionProtocol::new(|_s: &u8, r: &u8| *r, |s: &u8, _r: &u8| *s);
///
/// // Fault-free: both sides swap.
/// assert_eq!(two_way(TwoWayModel::Tw, &swap, &1, &2, TwoWayFault::None)?, (2, 1));
/// // T1, starter-side omission: the starter keeps its state (undetected).
/// assert_eq!(two_way(TwoWayModel::T1, &swap, &1, &2, TwoWayFault::Starter)?, (1, 1));
/// # Ok::<(), ppfts_engine::EngineError>(())
/// ```
pub fn two_way<P: TwoWayProgram>(
    model: TwoWayModel,
    program: &P,
    s: &P::State,
    r: &P::State,
    fault: TwoWayFault,
) -> Result<(P::State, P::State), EngineError> {
    if !model.permitted_faults().contains(&fault) {
        return Err(EngineError::FaultNotInRelation {
            model: crate::Model::TwoWay(model),
            fault: fault.to_string(),
        });
    }
    let out = match fault {
        TwoWayFault::None => (program.starter_update(s, r), program.reactor_update(s, r)),
        TwoWayFault::Starter => {
            let s2 = if model.starter_detects() {
                program.starter_omission(s)
            } else {
                s.clone()
            };
            (s2, program.reactor_update(s, r))
        }
        TwoWayFault::Reactor => {
            let r2 = if model.reactor_detects() {
                program.reactor_omission(r)
            } else {
                r.clone()
            };
            (program.starter_update(s, r), r2)
        }
        TwoWayFault::Both => {
            let s2 = if model.starter_detects() {
                program.starter_omission(s)
            } else {
                s.clone()
            };
            let r2 = if model.reactor_detects() {
                program.reactor_omission(r)
            } else {
                r.clone()
            };
            (s2, r2)
        }
    };
    Ok(out)
}

/// Outcome pair of one **one-way** interaction between states `s`
/// (starter) and `r` (reactor) under `model`, decorated with `fault`.
///
/// Under IO the starter's state is returned untouched regardless of the
/// program's `g`: the Immediate Observation model *defines* the starter as
/// unaware, so the engine enforces `g = id` rather than trusting programs
/// (see [`validate_io_program`](crate::validate_io_program)).
///
/// # Errors
///
/// Returns [`EngineError::FaultNotInRelation`] if `fault` is an omission
/// under the fault-free models IT or IO.
///
/// # Example
///
/// ```
/// use ppfts_engine::outcome::one_way;
/// use ppfts_engine::{OneWayFault, OneWayModel, OneWayProgram};
///
/// struct Sum;
/// impl OneWayProgram for Sum {
///     type State = u32;
///     fn on_proximity(&self, q: &u32) -> u32 { q + 100 }
///     fn on_receive(&self, s: &u32, r: &u32) -> u32 { s + r }
///     fn on_omission_reactor(&self, r: &u32) -> u32 { r + 1 }
/// }
///
/// // IT: starter applies g, reactor applies f.
/// assert_eq!(one_way(OneWayModel::It, &Sum, &1, &2, OneWayFault::None)?, (101, 3));
/// // IO: starter is untouched even though g is not the identity.
/// assert_eq!(one_way(OneWayModel::Io, &Sum, &1, &2, OneWayFault::None)?, (1, 3));
/// // I3 omission: reactor detects it via h.
/// assert_eq!(one_way(OneWayModel::I3, &Sum, &1, &2, OneWayFault::Omission)?, (101, 3));
/// # Ok::<(), ppfts_engine::EngineError>(())
/// ```
pub fn one_way<P: OneWayProgram>(
    model: OneWayModel,
    program: &P,
    s: &P::State,
    r: &P::State,
    fault: OneWayFault,
) -> Result<(P::State, P::State), EngineError> {
    match fault {
        OneWayFault::None => {
            let s2 = if model.starter_applies_g() {
                program.on_proximity(s)
            } else {
                s.clone()
            };
            Ok((s2, program.on_receive(s, r)))
        }
        OneWayFault::Omission => {
            let reactor_hook = reactor_hook_on_omission(model);
            if reactor_hook == ReactorOmissionHook::Forbidden {
                return Err(EngineError::FaultNotInRelation {
                    model: crate::Model::OneWay(model),
                    fault: fault.to_string(),
                });
            }
            let s2 = if model.starter_detects_omission() {
                program.on_omission_starter(s)
            } else {
                // The starter cannot tell this meeting was omissive; it
                // still detects proximity in every omissive model.
                program.on_proximity(s)
            };
            let r2 = match reactor_hook {
                ReactorOmissionHook::Identity => r.clone(),
                ReactorOmissionHook::Proximity => program.on_proximity(r),
                ReactorOmissionHook::Detection => program.on_omission_reactor(r),
                ReactorOmissionHook::Forbidden => unreachable!("handled above"),
            };
            Ok((s2, r2))
        }
    }
}

/// In-place form of [`one_way`]: applies the outcome directly to the
/// endpoint states and reports `(starter_changed, reactor_changed)`.
///
/// Exactly equivalent to [`one_way`] followed by a compare-and-store of
/// both endpoints — the runners' record-free fast path uses it to skip
/// the two per-step state constructions for programs that override the
/// `*_in_place` hooks of [`OneWayProgram`].
///
/// # Errors
///
/// Same conditions as [`one_way`]; on error nothing is mutated.
pub fn one_way_in_place<P: OneWayProgram>(
    model: OneWayModel,
    program: &P,
    s: &mut P::State,
    r: &mut P::State,
    fault: OneWayFault,
) -> Result<(bool, bool), EngineError> {
    match fault {
        OneWayFault::None => {
            // The reactor reads the starter's pre-interaction state, so
            // it must update before the starter mutates.
            let r_changed = program.on_receive_in_place(s, r);
            let s_changed = if model.starter_applies_g() {
                program.on_proximity_in_place(s)
            } else {
                false
            };
            Ok((s_changed, r_changed))
        }
        OneWayFault::Omission => {
            let reactor_hook = reactor_hook_on_omission(model);
            if reactor_hook == ReactorOmissionHook::Forbidden {
                return Err(EngineError::FaultNotInRelation {
                    model: crate::Model::OneWay(model),
                    fault: fault.to_string(),
                });
            }
            let s_changed = if model.starter_detects_omission() {
                program.on_omission_starter_in_place(s)
            } else {
                program.on_proximity_in_place(s)
            };
            let r_changed = match reactor_hook {
                ReactorOmissionHook::Identity => false,
                ReactorOmissionHook::Proximity => program.on_proximity_in_place(r),
                ReactorOmissionHook::Detection => program.on_omission_reactor_in_place(r),
                ReactorOmissionHook::Forbidden => unreachable!("handled above"),
            };
            Ok((s_changed, r_changed))
        }
    }
}

/// In-place form of [`two_way`]: both updates read both pre-interaction
/// states, so the outcome pair is computed first and compare-and-stored.
///
/// # Errors
///
/// Same conditions as [`two_way`]; on error nothing is mutated.
pub fn two_way_in_place<P: TwoWayProgram>(
    model: TwoWayModel,
    program: &P,
    s: &mut P::State,
    r: &mut P::State,
    fault: TwoWayFault,
) -> Result<(bool, bool), EngineError> {
    let (s2, r2) = two_way(model, program, s, r, fault)?;
    let s_changed = s2 != *s;
    let r_changed = r2 != *r;
    if s_changed {
        *s = s2;
    }
    if r_changed {
        *r = r2;
    }
    Ok((s_changed, r_changed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe program whose state records which hook last fired.
    /// States: 'i' initial; then one of "gfoh" per the hook applied.
    struct Probe;
    impl TwoWayProgram for Probe {
        type State = char;
        fn starter_update(&self, _s: &char, _r: &char) -> char {
            'S'
        }
        fn reactor_update(&self, _s: &char, _r: &char) -> char {
            'R'
        }
        fn starter_omission(&self, _s: &char) -> char {
            'o'
        }
        fn reactor_omission(&self, _r: &char) -> char {
            'h'
        }
    }

    struct Probe1;
    impl OneWayProgram for Probe1 {
        type State = char;
        fn on_proximity(&self, _q: &char) -> char {
            'g'
        }
        fn on_receive(&self, _s: &char, _r: &char) -> char {
            'f'
        }
        fn on_omission_starter(&self, _s: &char) -> char {
            'o'
        }
        fn on_omission_reactor(&self, _r: &char) -> char {
            'h'
        }
    }

    #[test]
    fn tw_rejects_all_omissions() {
        for fault in [
            TwoWayFault::Starter,
            TwoWayFault::Reactor,
            TwoWayFault::Both,
        ] {
            assert!(two_way(TwoWayModel::Tw, &Probe, &'i', &'i', fault).is_err());
        }
        assert_eq!(
            two_way(TwoWayModel::Tw, &Probe, &'i', &'i', TwoWayFault::None).unwrap(),
            ('S', 'R')
        );
    }

    #[test]
    fn t1_outcomes_match_figure_1() {
        let m = TwoWayModel::T1;
        assert_eq!(
            two_way(m, &Probe, &'i', &'i', TwoWayFault::None).unwrap(),
            ('S', 'R')
        );
        assert_eq!(
            two_way(m, &Probe, &'i', &'i', TwoWayFault::Starter).unwrap(),
            ('i', 'R')
        );
        assert_eq!(
            two_way(m, &Probe, &'i', &'i', TwoWayFault::Reactor).unwrap(),
            ('S', 'i')
        );
        assert!(two_way(m, &Probe, &'i', &'i', TwoWayFault::Both).is_err());
    }

    #[test]
    fn t2_outcomes_match_figure_1() {
        let m = TwoWayModel::T2;
        assert_eq!(
            two_way(m, &Probe, &'i', &'i', TwoWayFault::Starter).unwrap(),
            ('o', 'R')
        );
        // Reactor-side omission is undetectable in T2: identity.
        assert_eq!(
            two_way(m, &Probe, &'i', &'i', TwoWayFault::Reactor).unwrap(),
            ('S', 'i')
        );
        assert_eq!(
            two_way(m, &Probe, &'i', &'i', TwoWayFault::Both).unwrap(),
            ('o', 'i')
        );
    }

    #[test]
    fn t3_outcomes_match_figure_1() {
        let m = TwoWayModel::T3;
        assert_eq!(
            two_way(m, &Probe, &'i', &'i', TwoWayFault::None).unwrap(),
            ('S', 'R')
        );
        assert_eq!(
            two_way(m, &Probe, &'i', &'i', TwoWayFault::Starter).unwrap(),
            ('o', 'R')
        );
        assert_eq!(
            two_way(m, &Probe, &'i', &'i', TwoWayFault::Reactor).unwrap(),
            ('S', 'h')
        );
        assert_eq!(
            two_way(m, &Probe, &'i', &'i', TwoWayFault::Both).unwrap(),
            ('o', 'h')
        );
    }

    #[test]
    fn it_and_io_reject_omissions() {
        for m in [OneWayModel::It, OneWayModel::Io] {
            assert!(one_way(m, &Probe1, &'i', &'i', OneWayFault::Omission).is_err());
        }
    }

    #[test]
    fn it_vs_io_starter_visibility() {
        assert_eq!(
            one_way(OneWayModel::It, &Probe1, &'i', &'i', OneWayFault::None).unwrap(),
            ('g', 'f')
        );
        // IO: starter unaware even though the program defines g.
        assert_eq!(
            one_way(OneWayModel::Io, &Probe1, &'i', &'i', OneWayFault::None).unwrap(),
            ('i', 'f')
        );
    }

    #[test]
    fn omissive_one_way_outcomes_match_figure_1() {
        let om = OneWayFault::Omission;
        // I1: (g(s), r)
        assert_eq!(
            one_way(OneWayModel::I1, &Probe1, &'i', &'i', om).unwrap(),
            ('g', 'i')
        );
        // I2: (g(s), g(r))
        assert_eq!(
            one_way(OneWayModel::I2, &Probe1, &'i', &'i', om).unwrap(),
            ('g', 'g')
        );
        // I3: (g(s), h(r))
        assert_eq!(
            one_way(OneWayModel::I3, &Probe1, &'i', &'i', om).unwrap(),
            ('g', 'h')
        );
        // I4: (o(s), g(r))
        assert_eq!(
            one_way(OneWayModel::I4, &Probe1, &'i', &'i', om).unwrap(),
            ('o', 'g')
        );
    }

    #[test]
    fn fault_free_omissive_models_behave_like_it() {
        for m in [
            OneWayModel::I1,
            OneWayModel::I2,
            OneWayModel::I3,
            OneWayModel::I4,
        ] {
            assert_eq!(
                one_way(m, &Probe1, &'i', &'i', OneWayFault::None).unwrap(),
                ('g', 'f'),
                "model {m} must collapse to IT without omissions"
            );
        }
    }
}
