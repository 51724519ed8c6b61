//! The paper's Figure 4: the possibility/impossibility map of two-way
//! simulation over the ten models and four assumption columns.
//!
//! [`cell`] is the one source of the map: the `figure4` binary prints
//! [`map`], and `tests/figure4_matrix.rs` asserts it against the paper.
//! 13 of the 40 cells execute a witness: a green cell runs its simulator
//! under the per-step [`audit_pairing`]; a red one runs its attack
//! construction and checks the predicted violation or stall. The other
//! 27 are documented constants, each with the reason the paper colours
//! it that way.

use std::fmt;

use ppfts_core::{NamedSid, Sid, Skno, SknoState};
use ppfts_engine::{BoundedStrategy, EngineError, Model, OneWayModel, OneWayRunner, TwoWayModel};
use ppfts_protocols::{Pairing, PairingState};

use crate::{
    audit_pairing, lemma1_attack, no1_resilience, thm32_attack, AuditReport, Optimist,
    OptimistState,
};

/// A cell's colour in Figure 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// Two-way simulation is possible (green).
    Possible,
    /// Two-way simulation is impossible (red).
    Impossible,
    /// The paper leaves the cell open or colours it through another
    /// column.
    Open,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cell::Possible => "✔",
            Cell::Impossible => "✘",
            Cell::Open => "?",
        })
    }
}

/// An assumption column of Figure 4 (on top of infinite memory).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Column {
    /// No further assumption.
    NoAssumption,
    /// A known upper bound on the number of omissions.
    OmissionKnowledge,
    /// Unique agent IDs.
    UniqueIds,
    /// Knowledge of the population size `n`.
    KnowledgeOfN,
}

impl Column {
    /// The four columns, in the paper's order.
    pub const ALL: [Column; 4] = [
        Column::NoAssumption,
        Column::OmissionKnowledge,
        Column::UniqueIds,
        Column::KnowledgeOfN,
    ];
}

/// The colour of `(model, column)`, executing its witness if it has one.
///
/// # Panics
///
/// Panics if a witness does not land: the simulator fails its Pairing
/// audit, or the attack produces no violation (or stall).
pub fn cell(model: Model, column: Column) -> Cell {
    use Column::*;
    use OneWayModel::*;
    let m = match model {
        // TW simulates itself, so every column is green.
        Model::TwoWay(TwoWayModel::Tw) => return Cell::Possible,
        // T2 with a known omission bound is the paper's one open gap;
        // T1/T3 stay open there pending the paper's future work.
        Model::TwoWay(_) if column == OmissionKnowledge => return Cell::Open,
        // Thm 3.1: its construction is executed in the one-way fragment
        // (I3/I4 below); the two-way claim follows via the hierarchy.
        Model::TwoWay(_) => return Cell::Impossible,
        Model::OneWay(m) => m,
    };
    match (m, column) {
        // Without assumptions IT/IO are weaker than TW with constant
        // memory; the paper colours them through the other columns.
        (It | Io, NoAssumption) => Cell::Open,
        // Corollary 1: SKnO with o = 0.
        (It, OmissionKnowledge) => skno(It, 0, 6),
        // IO has no omissions to bound, so the column adds nothing to
        // "no assumption".
        (Io, OmissionKnowledge) => Cell::Open,
        // Thm 3.2 holds whatever is known: the NO1 run I* is
        // omission-free.
        (I1 | I2, NoAssumption | OmissionKnowledge) => thm32_dichotomy(m),
        // Thm 3.1 / Lemma 1.
        (I3 | I4, NoAssumption) => lemma1(m),
        // Thm 4.1.
        (I3 | I4, OmissionKnowledge) => skno(m, 2, 5),
        // Thm 4.5; SID is an IO program, so it runs in IT too.
        (It | Io, UniqueIds) => sid(m),
        // Thm 4.6.
        (It | Io, KnowledgeOfN) => named_sid(m),
        // Lemma 1's run never uses anonymity on the attacked side, so
        // IDs or n do not help the omissive models.
        (I1 | I2 | I3 | I4, UniqueIds | KnowledgeOfN) => Cell::Impossible,
    }
}

/// Every row of Figure 4, in [`Model::ALL`] order, each cell from
/// [`cell`].
pub fn map() -> Vec<(Model, [Cell; 4])> {
    Model::ALL
        .into_iter()
        .map(|model| (model, Column::ALL.map(|column| cell(model, column))))
        .collect()
}

fn sims(consumers: usize, producers: usize) -> Vec<PairingState> {
    Pairing::initial(consumers, producers).as_slice().to_vec()
}

fn possible(m: OneWayModel, what: &str, audit: Result<AuditReport, EngineError>) -> Cell {
    let report = audit.unwrap_or_else(|e| panic!("{m}: {what} audit errored: {e}"));
    assert!(
        report.solved(),
        "{m}: {what} audit failed: {:?}",
        report.violations
    );
    Cell::Possible
}

/// SKnO provisioned for `o` omissions against a bounded adversary that
/// injects at most `o`.
fn skno(m: OneWayModel, o: u32, seed: u64) -> Cell {
    let mut runner = OneWayRunner::builder(m, Skno::new(Pairing, o))
        .config(Skno::<Pairing>::initial(&sims(2, 2)))
        .adversary(BoundedStrategy::new(0.02, o as u64))
        .seed(seed)
        .build()
        .unwrap();
    possible(m, "SKnO", audit_pairing(&mut runner, 1_500_000))
}

fn sid(m: OneWayModel) -> Cell {
    let mut runner = OneWayRunner::builder(m, Sid::new(Pairing))
        .config(Sid::<Pairing>::initial(&sims(3, 2)))
        .seed(7)
        .build()
        .unwrap();
    possible(m, "SID", audit_pairing(&mut runner, 1_500_000))
}

fn named_sid(m: OneWayModel) -> Cell {
    let sims = sims(2, 2);
    let mut runner = OneWayRunner::builder(m, NamedSid::new(Pairing, sims.len()))
        .config(NamedSid::<Pairing>::initial(&sims))
        .seed(8)
        .build()
        .unwrap();
    possible(m, "NamedSid", audit_pairing(&mut runner, 4_000_000))
}

/// Lemma 1's run `I*` drives SKnO (o = 1) into a safety violation.
fn lemma1(m: OneWayModel) -> Cell {
    let report = lemma1_attack(m, Skno::new(Pairing, 1), SknoState::new, 128, 512).unwrap();
    assert!(report.violated_safety(), "{m}: Lemma 1 attack did not land");
    Cell::Impossible
}

/// Both horns of Thm 3.2: SKnO is not NO1-resilient (it stalls), and
/// the retransmitting `Optimist` is made unsafe without an omission.
fn thm32_dichotomy(m: OneWayModel) -> Cell {
    let stalls = !no1_resilience(m, &Skno::new(Pairing, 1), SknoState::new, 4, 3_000).is_empty();
    let unsafe_optimist = thm32_attack(m, Optimist::new(Pairing), OptimistState::new, 64, 256)
        .unwrap()
        .violated_safety();
    assert!(stalls, "{m}: SKnO did not stall under NO1");
    assert!(unsafe_optimist, "{m}: Theorem 3.2 attack did not land");
    Cell::Impossible
}
