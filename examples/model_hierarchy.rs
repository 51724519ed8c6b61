//! The interaction-model hierarchy of Figure 1, queryable and checked.
//!
//! Prints the ten interaction models of the paper, their transition
//! relations' capabilities, the inclusion arrows with their
//! justifications, and a reachability matrix of the closure. Finishes
//! with an *empirical* collapse check: every omissive model run with a
//! zero-omission adversary behaves exactly like its fault-free base.
//!
//! Run with: `cargo run --example model_hierarchy`

use ppfts::engine::hierarchy::{direct_inclusions, includes, ArrowReason};
use ppfts::engine::{
    Batched, Model, NoOmissions, OneWayModel, OneWayProgram, OneWayRunner, Stop, TwoWayModel,
    TwoWayRunner,
};
use ppfts::population::Configuration;
use ppfts::protocols::Epidemic;

struct OneWayEpidemic;
impl OneWayProgram for OneWayEpidemic {
    type State = bool;
    fn on_receive(&self, s: &bool, r: &bool) -> bool {
        *s || *r
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("The ten interaction models (paper Figure 1)\n");
    println!(
        "{:<6} {:<9} {:<11} detection",
        "model", "family", "omissive?"
    );
    println!("{}", "-".repeat(48));
    for model in Model::ALL {
        let (family, detection) = match model {
            Model::TwoWay(m) => (
                "two-way",
                match (m.starter_detects(), m.reactor_detects()) {
                    (false, false) => "none",
                    (true, false) => "starter (o)",
                    (false, true) => "reactor (h)",
                    (true, true) => "both (o, h)",
                },
            ),
            Model::OneWay(m) => (
                "one-way",
                if m.starter_detects_omission() {
                    "starter (o)"
                } else if m.reactor_detects_omission() {
                    "reactor (h)"
                } else if m.starter_applies_g() {
                    "proximity (g)"
                } else {
                    "none"
                },
            ),
        };
        println!(
            "{:<6} {:<9} {:<11} {}",
            model.to_string(),
            family,
            if model.allows_omissions() {
                "yes"
            } else {
                "no"
            },
            detection
        );
    }

    println!("\nInclusion arrows (problems solvable in A ⊆ solvable in B):\n");
    for arrow in direct_inclusions() {
        let why = match arrow.reason {
            ArrowReason::Specialization(s) => format!("relation specialization: {s}"),
            ArrowReason::AdversaryAvoidance => "adversary avoids omissions".to_string(),
        };
        println!(
            "  {:>3} → {:<3}  ({why})",
            arrow.from.to_string(),
            arrow.to.to_string()
        );
    }

    println!("\nReachability matrix of the closure (✓ = row ⊆ column):\n");
    print!("{:>4}", "");
    for to in Model::ALL {
        print!("{:>4}", to.to_string());
    }
    println!();
    for from in Model::ALL {
        print!("{:>4}", from.to_string());
        for to in Model::ALL {
            print!("{:>4}", if includes(from, to) { "✓" } else { "·" });
        }
        println!();
    }

    // Empirical collapse: with a zero-omission adversary, every omissive
    // model's executions coincide with its fault-free base (same seeds →
    // same trajectories).
    let c0 = Configuration::new(vec![true, false, false, false, false]);
    let run_two_way = |m: TwoWayModel| -> Vec<bool> {
        let mut r = TwoWayRunner::builder(m, Epidemic)
            .config(c0.clone())
            .adversary(NoOmissions)
            .seed(99)
            .build()
            .expect("valid population");
        r.run(Batched(1), Stop::steps(400)).expect("fault-free run");
        r.config().as_slice().to_vec()
    };
    let base = run_two_way(TwoWayModel::Tw);
    for m in [TwoWayModel::T1, TwoWayModel::T2, TwoWayModel::T3] {
        assert_eq!(run_two_way(m), base, "{m} must collapse to TW");
    }

    let run_one_way = |m: OneWayModel| -> Vec<bool> {
        let mut r = OneWayRunner::builder(m, OneWayEpidemic)
            .config(c0.clone())
            .adversary(NoOmissions)
            .seed(99)
            .build()
            .expect("valid population");
        r.run(Batched(1), Stop::steps(400)).expect("fault-free run");
        r.config().as_slice().to_vec()
    };
    let base = run_one_way(OneWayModel::It);
    for m in [
        OneWayModel::I1,
        OneWayModel::I2,
        OneWayModel::I3,
        OneWayModel::I4,
    ] {
        assert_eq!(run_one_way(m), base, "{m} must collapse to IT");
    }
    println!("\nCollapse check passed: with zero omissions, T1–T3 ≡ TW and I1–I4 ≡ IT.");
    Ok(())
}
