//! The ten interaction models of the paper's Figure 1.

use std::fmt;

use ppfts_population::Interaction;
use rand::{Rng, RngCore};

use crate::{OmissionStrategy, SidePolicy};

/// One of the ten interaction models studied in the paper.
///
/// The two families differ in who learns what during an interaction:
///
/// * [`TwoWayModel`] — both parties read each other's state
///   (`δ(s, r) = (fs(s, r), fr(s, r))` when fault-free);
/// * [`OneWayModel`] — only the reactor reads the starter's state
///   (`δ(s, r) = (g(s), f(s, r))` when fault-free; `g` is the starter's
///   *proximity detection* hook, forced to the identity in IO).
///
/// # Example
///
/// ```
/// use ppfts_engine::{Model, OneWayModel, TwoWayModel};
///
/// assert!(!Model::TwoWay(TwoWayModel::Tw).allows_omissions());
/// assert!(Model::OneWay(OneWayModel::I3).allows_omissions());
/// assert_eq!(Model::OneWay(OneWayModel::Io).to_string(), "IO");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Model {
    /// A model in the two-way family (TW, T1, T2, T3).
    TwoWay(TwoWayModel),
    /// A model in the one-way family (IT, IO, I1–I4).
    OneWay(OneWayModel),
}

impl Model {
    /// All ten models, in the order used by the paper's Figure 4.
    pub const ALL: [Model; 10] = [
        Model::TwoWay(TwoWayModel::Tw),
        Model::TwoWay(TwoWayModel::T1),
        Model::TwoWay(TwoWayModel::T2),
        Model::TwoWay(TwoWayModel::T3),
        Model::OneWay(OneWayModel::It),
        Model::OneWay(OneWayModel::Io),
        Model::OneWay(OneWayModel::I1),
        Model::OneWay(OneWayModel::I2),
        Model::OneWay(OneWayModel::I3),
        Model::OneWay(OneWayModel::I4),
    ];

    /// Whether the model's transition relation contains omissive outcomes.
    pub fn allows_omissions(self) -> bool {
        match self {
            Model::TwoWay(m) => m.allows_omissions(),
            Model::OneWay(m) => m.allows_omissions(),
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Model::TwoWay(m) => write!(f, "{m}"),
            Model::OneWay(m) => write!(f, "{m}"),
        }
    }
}

/// The two-way interaction models: TW and its omissive weakenings T1–T3.
///
/// Transition relations (from Figure 1; `s`/`r` are the starter's and
/// reactor's states, `o`/`h` the starter-/reactor-side omission-detection
/// functions):
///
/// | model | fault-free | starter-side omission | reactor-side | both sides |
/// |-------|-----------|----------------------|--------------|------------|
/// | `Tw`  | `(fs, fr)` | —                    | —            | —          |
/// | `T1`  | `(fs, fr)` | `(s, fr)`            | `(fs, r)`    | not in the relation |
/// | `T2`  | `(fs, fr)` | `(o(s), fr)`         | `(fs, r)`    | `(o(s), r)` |
/// | `T3`  | `(fs, fr)` | `(o(s), fr)`         | `(fs, h(r))` | `(o(s), h(r))` |
///
/// "Starter-side omission" means the starter did not receive the reactor's
/// state (so it cannot apply `fs`); symmetrically for the reactor. In T1
/// neither party can detect an omission, so an interaction omissive on both
/// sides would change nothing and is pruned from the relation. In T2 only
/// the starter detects omissions (the paper fixes this orientation WLOG).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TwoWayModel {
    /// The standard fault-free two-way model.
    Tw,
    /// Omissive, no detection on either side.
    T1,
    /// Omissive, detection on the starter's side only.
    T2,
    /// Omissive, detection on both sides.
    T3,
}

impl TwoWayModel {
    /// All two-way models.
    pub const ALL: [TwoWayModel; 4] = [
        TwoWayModel::Tw,
        TwoWayModel::T1,
        TwoWayModel::T2,
        TwoWayModel::T3,
    ];

    /// Whether the model's relation contains omissive outcomes.
    pub fn allows_omissions(self) -> bool {
        self != TwoWayModel::Tw
    }

    /// Whether the *starter* can detect an omission on its side (`o` is not
    /// forced to the identity).
    pub fn starter_detects(self) -> bool {
        matches!(self, TwoWayModel::T2 | TwoWayModel::T3)
    }

    /// Whether the *reactor* can detect an omission on its side (`h` is not
    /// forced to the identity).
    pub fn reactor_detects(self) -> bool {
        self == TwoWayModel::T3
    }
}

impl fmt::Display for TwoWayModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TwoWayModel::Tw => "TW",
            TwoWayModel::T1 => "T1",
            TwoWayModel::T2 => "T2",
            TwoWayModel::T3 => "T3",
        })
    }
}

/// The one-way interaction models: IT, IO and the omissive I1–I4.
///
/// Transition relations (from Figure 1):
///
/// | model | fault-free | omissive |
/// |-------|------------|----------|
/// | `It`  | `(g(s), f(s, r))` | — |
/// | `Io`  | `(s, f(s, r))`    | — |
/// | `I1`  | `(g(s), f(s, r))` | `(g(s), r)` |
/// | `I2`  | `(g(s), f(s, r))` | `(g(s), g(r))` |
/// | `I3`  | `(g(s), f(s, r))` | `(g(s), h(r))` |
/// | `I4`  | `(g(s), f(s, r))` | `(o(s), g(r))` |
///
/// A one-way omission loses the single `starter → reactor` transmission.
/// In I1 nothing is detected (the reactor does not even notice the
/// meeting). In I2 both parties detect *proximity* (apply `g`) but cannot
/// tell the omission apart from an ordinary meeting. In I3 the reactor
/// detects the omission (`h`); in I4 the starter does (`o`). I3 and I4 are
/// the "strong" omissive one-way models in which the paper's simulator
/// `SKnO` works.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OneWayModel {
    /// Immediate Transmission: fault-free, starter applies `g`.
    It,
    /// Immediate Observation: fault-free, starter unaware (`g = id`).
    Io,
    /// Omissive, no detection of any kind.
    I1,
    /// Omissive, both parties detect proximity only.
    I2,
    /// Omissive, reactor-side omission detection.
    I3,
    /// Omissive, starter-side omission detection.
    I4,
}

impl OneWayModel {
    /// All one-way models.
    pub const ALL: [OneWayModel; 6] = [
        OneWayModel::It,
        OneWayModel::Io,
        OneWayModel::I1,
        OneWayModel::I2,
        OneWayModel::I3,
        OneWayModel::I4,
    ];

    /// Whether the model's relation contains omissive outcomes.
    pub fn allows_omissions(self) -> bool {
        !matches!(self, OneWayModel::It | OneWayModel::Io)
    }

    /// Whether the starter's proximity hook `g` is applied at all. Only IO
    /// forces `g` to the identity.
    pub fn starter_applies_g(self) -> bool {
        self != OneWayModel::Io
    }

    /// Whether the reactor can detect omissions (`h` is available).
    pub fn reactor_detects_omission(self) -> bool {
        self == OneWayModel::I3
    }

    /// Whether the starter can detect omissions (`o` is available).
    pub fn starter_detects_omission(self) -> bool {
        self == OneWayModel::I4
    }
}

impl fmt::Display for OneWayModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OneWayModel::It => "IT",
            OneWayModel::Io => "IO",
            OneWayModel::I1 => "I1",
            OneWayModel::I2 => "I2",
            OneWayModel::I3 => "I3",
            OneWayModel::I4 => "I4",
        })
    }
}

/// Fault decoration of one two-way interaction: which side(s) failed to
/// receive the other party's state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TwoWayFault {
    /// Fault-free interaction.
    #[default]
    None,
    /// The starter did not receive the reactor's state.
    Starter,
    /// The reactor did not receive the starter's state.
    Reactor,
    /// Neither party received the other's state.
    Both,
}

impl TwoWayFault {
    /// Whether any information was lost.
    pub fn is_omissive(self) -> bool {
        self != TwoWayFault::None
    }
}

impl fmt::Display for TwoWayFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TwoWayFault::None => "ok",
            TwoWayFault::Starter => "omit@starter",
            TwoWayFault::Reactor => "omit@reactor",
            TwoWayFault::Both => "omit@both",
        })
    }
}

/// Fault decoration of one one-way interaction: the single
/// `starter → reactor` transmission is either delivered or lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OneWayFault {
    /// Transmission delivered.
    #[default]
    None,
    /// Transmission lost.
    Omission,
}

impl OneWayFault {
    /// Whether the transmission was lost.
    pub fn is_omissive(self) -> bool {
        self == OneWayFault::Omission
    }
}

impl fmt::Display for OneWayFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OneWayFault::None => "ok",
            OneWayFault::Omission => "omit",
        })
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::OneWayModel {}
    impl Sealed for super::TwoWayModel {}
}

/// An interaction family, one-way ([`OneWayModel`]) or two-way
/// ([`TwoWayModel`]): everything the generic [`Runner`](crate::Runner)
/// needs to know about how the families differ, beyond the outcome
/// dispatch of [`Program`](crate::Program). Sealed: the two model enums
/// are its only implementors.
pub trait Family: Copy + fmt::Debug + sealed::Sealed + 'static {
    /// The fault decoration of one interaction.
    type Fault: Copy + Default + PartialEq + fmt::Debug + fmt::Display + 'static;

    /// The faults the model's transition relation contains, fault-free
    /// first.
    fn permitted_faults(self) -> &'static [Self::Fault];

    /// Whether the model's relation contains omissive outcomes.
    fn allows_omissions(self) -> bool {
        self.permitted_faults().len() > 1
    }

    /// Whether `fault` loses information: every fault but the
    /// fault-free default does.
    #[inline]
    fn is_omissive(fault: Self::Fault) -> bool {
        fault != Self::Fault::default()
    }

    /// The faults an omission picks from, uniformly: the omissive faults
    /// of the relation, or for a two-way model under
    /// [`SidePolicy::Always`] that one side.
    fn omissions(self, sides: &SidePolicy) -> &[Self::Fault];

    /// The fault of step `index` on `interaction`: fault-free unless the
    /// model is omissive and `adversary` fires, then one of
    /// [`omissions`](Self::omissions).
    fn decide<A: OmissionStrategy>(
        self,
        adversary: &mut A,
        sides: SidePolicy,
        index: u64,
        interaction: Option<Interaction>,
        rng: &mut dyn RngCore,
    ) -> Self::Fault {
        if self.allows_omissions() && adversary.decide_at(index, interaction, rng) {
            choose(self.omissions(&sides), rng)
        } else {
            Self::Fault::default()
        }
    }

    /// Whether [`decide`](Self::decide) never draws from its RNG under
    /// `adversary` and `sides`, so that a batch's pairs can be drawn in
    /// bulk ahead of its faults and still consume the RNG stream exactly
    /// as the interleaved pair/fault loop would: the adversary must not
    /// draw, and an omission must have one fault to take or never fire
    /// (zero budget).
    fn rng_free_faults<A: OmissionStrategy>(self, adversary: &A, sides: SidePolicy) -> bool {
        !self.allows_omissions()
            || (!adversary.uses_rng()
                && (self.omissions(&sides).len() == 1 || adversary.budget() == Some(0)))
    }

    /// The i.i.d. per-interaction fault distribution of an adversary
    /// that fires at `rate`, fault-free entry first, weights summing to
    /// 1: what [`decide`](Self::decide) draws step by step.
    fn fault_mix(self, sides: SidePolicy, rate: f64) -> Vec<(Self::Fault, f64)> {
        if rate > 0.0 {
            let omissions = self.omissions(&sides);
            let share = rate / omissions.len() as f64;
            let mut mix = vec![(Self::Fault::default(), 1.0 - rate)];
            mix.extend(omissions.iter().map(|&f| (f, share)));
            mix
        } else {
            vec![(Self::Fault::default(), 1.0)]
        }
    }
}

/// One of `faults`, uniformly: a lone fault is taken without a draw,
/// and none at all gives the fault-free default.
pub(crate) fn choose<F: Copy + Default>(faults: &[F], rng: &mut dyn RngCore) -> F {
    match faults {
        [] => F::default(),
        [fault] => *fault,
        _ => faults[rng.gen_range(0..faults.len())],
    }
}

impl Family for OneWayModel {
    type Fault = OneWayFault;

    fn permitted_faults(self) -> &'static [OneWayFault] {
        if self.allows_omissions() {
            &[OneWayFault::None, OneWayFault::Omission]
        } else {
            &[OneWayFault::None]
        }
    }

    /// The single omission; a one-way omission has no side to choose.
    fn omissions(self, _sides: &SidePolicy) -> &[OneWayFault] {
        &self.permitted_faults()[1..]
    }
}

impl Family for TwoWayModel {
    type Fault = TwoWayFault;

    fn permitted_faults(self) -> &'static [TwoWayFault] {
        use TwoWayFault::*;
        match self {
            TwoWayModel::Tw => &[None],
            TwoWayModel::T1 => &[None, Starter, Reactor],
            TwoWayModel::T2 | TwoWayModel::T3 => &[None, Starter, Reactor, Both],
        }
    }

    fn omissions(self, sides: &SidePolicy) -> &[TwoWayFault] {
        match sides {
            SidePolicy::Always(fault) => std::slice::from_ref(fault),
            SidePolicy::Uniform => &self.permitted_faults()[1..],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_models_total() {
        assert_eq!(Model::ALL.len(), 10);
        assert_eq!(TwoWayModel::ALL.len() + OneWayModel::ALL.len(), 10);
    }

    #[test]
    fn fault_free_bases() {
        assert!(!Model::TwoWay(TwoWayModel::Tw).allows_omissions());
        assert!(!Model::OneWay(OneWayModel::It).allows_omissions());
        assert!(!Model::OneWay(OneWayModel::Io).allows_omissions());
        let omissive = Model::ALL.iter().filter(|m| m.allows_omissions()).count();
        assert_eq!(omissive, 7);
    }

    #[test]
    fn t1_relation_prunes_both_sides_omission() {
        assert!(!TwoWayModel::T1
            .permitted_faults()
            .contains(&TwoWayFault::Both));
        assert!(TwoWayModel::T2
            .permitted_faults()
            .contains(&TwoWayFault::Both));
        assert!(TwoWayModel::T3
            .permitted_faults()
            .contains(&TwoWayFault::Both));
    }

    #[test]
    fn detection_capabilities_match_figure_1() {
        assert!(!TwoWayModel::T1.starter_detects() && !TwoWayModel::T1.reactor_detects());
        assert!(TwoWayModel::T2.starter_detects() && !TwoWayModel::T2.reactor_detects());
        assert!(TwoWayModel::T3.starter_detects() && TwoWayModel::T3.reactor_detects());

        assert!(OneWayModel::I3.reactor_detects_omission());
        assert!(!OneWayModel::I3.starter_detects_omission());
        assert!(OneWayModel::I4.starter_detects_omission());
        assert!(!OneWayModel::I4.reactor_detects_omission());
        assert!(!OneWayModel::I1.reactor_detects_omission());
        assert!(!OneWayModel::I2.reactor_detects_omission());
    }

    #[test]
    fn io_is_the_only_model_without_g() {
        let without_g: Vec<_> = OneWayModel::ALL
            .iter()
            .filter(|m| !m.starter_applies_g())
            .collect();
        assert_eq!(without_g, vec![&OneWayModel::Io]);
    }

    #[test]
    fn display_names_match_paper() {
        let names: Vec<String> = Model::ALL
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(
            names,
            ["TW", "T1", "T2", "T3", "IT", "IO", "I1", "I2", "I3", "I4"]
        );
    }

    #[test]
    fn fault_flags() {
        assert!(!TwoWayFault::None.is_omissive());
        assert!(TwoWayFault::Both.is_omissive());
        assert!(!OneWayFault::None.is_omissive());
        assert!(OneWayFault::Omission.is_omissive());
        assert_eq!(TwoWayFault::default(), TwoWayFault::None);
        assert_eq!(OneWayFault::default(), OneWayFault::None);
    }
}
