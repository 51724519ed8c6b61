//! Quickstart: simulate a two-way protocol on a weaker interaction model.
//!
//! This example follows the paper's core storyline on the smallest useful
//! payload: the agents must stably compute the OR of their input bits
//! (an epidemic), but the only communication primitive available is
//! **Immediate Observation** (IO) — one-way, with the starter completely
//! unaware that it was observed. The `SID` simulator (paper §4.2) bridges
//! the gap using unique IDs.
//!
//! Run with: `cargo run --example quickstart`

use ppfts::core::{build_matching, extract_events, project, Sid};
use ppfts::engine::{
    Batched, FullTrace, OneWayModel, OneWayRunner, Stop, TwoWayModel, TwoWayRunner,
};
use ppfts::population::{unanimous_output, Semantics};
use ppfts::protocols::Epidemic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let inputs = vec![true, false, false, false, false, false];
    let expected = Epidemic.expected(&inputs);
    println!("inputs:   {inputs:?}");
    println!("expected: OR = {expected}\n");

    // ── 1. Native run, standard two-way model ────────────────────────────
    let mut native = TwoWayRunner::builder(TwoWayModel::Tw, Epidemic)
        .config(Epidemic.initial_configuration(&inputs))
        .seed(1)
        .build()?;
    let out = native.run(
        Batched(1),
        Stop::until(1_000_000, |c| {
            unanimous_output(c, |q| Epidemic.output(q)) == Some(expected)
        }),
    )?;
    println!(
        "two-way (TW):        stabilized after {:>6} interactions",
        out.steps()
    );

    // ── 2. Same protocol, but only IO interactions are available ────────
    // Wrap it in SID: each agent gets a unique ID and the paper's locking
    // handshake turns observations into simulated two-way exchanges.
    let mut simulated = OneWayRunner::builder(OneWayModel::Io, Sid::new(Epidemic))
        .config(Sid::<Epidemic>::initial(&inputs))
        .trace_sink(FullTrace::new())
        .seed(1)
        .build()?;
    let out = simulated.run(
        Batched(1),
        Stop::until(1_000_000, |c| {
            unanimous_output(&project(c), |q| Epidemic.output(q)) == Some(expected)
        }),
    )?;
    println!(
        "IO + SID simulator:  stabilized after {:>6} interactions",
        out.steps()
    );

    // ── 3. Audit the simulation (paper Definitions 3–4) ──────────────────
    // Extract the simulation events and build the perfect matching: every
    // simulated state change pairs up into one two-way interaction of the
    // original protocol.
    let trace = simulated.take_trace().expect("trace was enabled");
    let events = extract_events(&trace);
    let matching = build_matching(&Epidemic, &events)?;
    println!(
        "\nsimulation audit: {} events, {} matched simulated interactions, {} in flight",
        events.len(),
        matching.len(),
        matching.unmatched.len(),
    );
    println!(
        "final simulated configuration: {:?}",
        project(simulated.config()).as_slice()
    );
    Ok(())
}
