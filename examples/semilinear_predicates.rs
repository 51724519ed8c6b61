//! Compile an arbitrary semilinear predicate and simulate it on a weak
//! model — the full expressive power of population protocols, end to end.
//!
//! Standard population protocols stably compute exactly the semilinear
//! predicates (boolean combinations of threshold and remainder atoms over
//! the input counts). The paper's simulators quantify over *every*
//! two-way protocol, so this example stress-feeds them the whole class:
//! a compiled predicate runs natively under TW, then through `SID` on the
//! one-way IO model, and must stabilize to the same verdict.
//!
//! The scenario: a sensor swarm watches a herd where each animal is
//! `healthy` (symbol 0), `sick` (symbol 1) or `immune` (symbol 2). The
//! alert condition is:
//!
//! ```text
//!     (#sick ≥ 3)   AND   NOT (#immune + #sick ≡ 0 (mod 2))
//! ```
//!
//! Run with: `cargo run --example semilinear_predicates`

use ppfts::core::{project, Sid};
use ppfts::engine::{Batched, OneWayModel, OneWayRunner, Stop, TwoWayModel, TwoWayRunner};
use ppfts::population::{unanimous_output, Semantics};
use ppfts::protocols::semilinear::{Atom, PredicateExpr, SemilinearProtocol};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let alert = SemilinearProtocol::new(
        vec![
            Atom::Threshold {
                coeffs: vec![0, 1, 0], // count sick animals
                threshold: 3,
            },
            Atom::Remainder {
                coeffs: vec![0, 1, 1], // sick + immune
                modulus: 2,
                residue: 0,
            },
        ],
        PredicateExpr::atom(0).and(PredicateExpr::atom(1).not()),
    )?;

    // Herds to evaluate: (healthy, sick, immune).
    let herds = [(5usize, 3usize, 2usize), (4, 4, 2), (6, 2, 1), (2, 5, 0)];

    println!("alert = (#sick ≥ 3) AND NOT(#sick + #immune even)\n");
    println!(
        "{:>8} {:>5} {:>7} | {:>6} | {:>12} | {:>12}",
        "healthy", "sick", "immune", "oracle", "TW steps", "IO+SID steps"
    );
    println!("{}", "-".repeat(66));

    for (healthy, sick, immune) in herds {
        let inputs: Vec<usize> = std::iter::repeat_n(0, healthy)
            .chain(std::iter::repeat_n(1, sick))
            .chain(std::iter::repeat_n(2, immune))
            .collect();
        let expected = alert.expected(&inputs);

        // Native two-way run.
        let mut native = TwoWayRunner::builder(TwoWayModel::Tw, alert.clone())
            .config(alert.initial_configuration(&inputs))
            .seed(11)
            .build()?;
        let tw = native.run(
            Batched(1),
            Stop::until(5_000_000, |c| {
                unanimous_output(c, |q| alert.output(q)) == Some(expected)
            }),
        )?;
        assert!(tw.is_satisfied());

        // The same predicate through SID over Immediate Observation.
        let sims: Vec<_> = inputs.iter().map(|i| alert.encode(i)).collect();
        let mut simulated = OneWayRunner::builder(OneWayModel::Io, Sid::new(alert.clone()))
            .config(Sid::<SemilinearProtocol>::initial(&sims))
            .seed(11)
            .build()?;
        let io = simulated.run(
            Batched(1),
            Stop::until(20_000_000, |c| {
                unanimous_output(&project(c), |q| alert.output(q)) == Some(expected)
            }),
        )?;
        assert!(io.is_satisfied());

        println!(
            "{:>8} {:>5} {:>7} | {:>6} | {:>12} | {:>12}",
            healthy,
            sick,
            immune,
            expected,
            tw.steps(),
            io.steps()
        );
    }

    println!(
        "\nEvery herd stabilized to the oracle verdict in both worlds: the\n\
         simulator is payload-agnostic across the whole semilinear class."
    );
    Ok(())
}
