//! The paper's Figure 4 as a specification: the map of results.
//!
//! Figure 4 colours, for each interaction model and each assumption
//! column, whether two-way simulation is possible (green) or impossible
//! (red). `ppfts::verify::figure4` computes the map, executing the
//! witness of each of its 13 executable cells (a simulator run passing
//! the Pairing audit, or an attack construction producing the predicted
//! violation or stall); this test compares every cell against the
//! paper's matrix.

use ppfts::core::{project, Sid};
use ppfts::engine::{Model, OneWayModel, OneWayRunner, TwoWayModel};
use ppfts::protocols::{Pairing, PairingState};
use ppfts::verify::audit_pairing;
use ppfts::verify::figure4::{cell, Cell, Column};

#[test]
fn figure4_matrix_matches_the_paper() {
    use Cell::*;
    use OneWayModel::*;
    use TwoWayModel::*;
    // Expected verdicts per (model, column), derived from Figure 4 and
    // the theorem statements; Open marks the paper's explicit gap (T2 +
    // omission knowledge) and cells the paper colours through other
    // columns.
    #[rustfmt::skip]
    let expected: &[(Model, [Cell; 4])] = &[
        //                  no assumption  omission knowledge  unique IDs  knowledge of n
        (Model::TwoWay(Tw), [Possible,     Possible,           Possible,   Possible]),
        (Model::TwoWay(T1), [Impossible,   Open,               Impossible, Impossible]),
        (Model::TwoWay(T2), [Impossible,   Open,               Impossible, Impossible]),
        (Model::TwoWay(T3), [Impossible,   Open,               Impossible, Impossible]),
        (Model::OneWay(It), [Open,         Possible,           Possible,   Possible]),
        (Model::OneWay(Io), [Open,         Open,               Possible,   Possible]),
        (Model::OneWay(I1), [Impossible,   Impossible,         Impossible, Impossible]),
        (Model::OneWay(I2), [Impossible,   Impossible,         Impossible, Impossible]),
        (Model::OneWay(I3), [Impossible,   Possible,           Impossible, Impossible]),
        (Model::OneWay(I4), [Impossible,   Possible,           Impossible, Impossible]),
    ];

    for (model, row) in expected {
        for (column, want) in Column::ALL.into_iter().zip(row) {
            assert_eq!(cell(*model, column), *want, "{model} / {column:?}");
        }
    }
}

#[test]
fn open_gap_t2_documented() {
    // The paper's conclusion names exactly one open cell: T2 with a known
    // omission bound. Keep it pinned so a future closing of the gap is a
    // deliberate change.
    assert_eq!(
        cell(Model::TwoWay(TwoWayModel::T2), Column::OmissionKnowledge),
        Cell::Open
    );
}

#[test]
fn possibility_witnesses_leave_correct_final_states() {
    // Sanity: a green cell's witness ends with the exact stable counts.
    let sims = Pairing::initial(3, 2).as_slice().to_vec();
    let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
        .config(Sid::<Pairing>::initial(&sims))
        .seed(9)
        .build()
        .unwrap();
    audit_pairing(&mut runner, 1_500_000).unwrap();
    let proj = project(runner.config());
    assert_eq!(proj.count_state(&PairingState::Paired), 2);
    assert_eq!(proj.count_state(&PairingState::Spent), 2);
    assert_eq!(proj.count_state(&PairingState::Consumer), 1);
}
