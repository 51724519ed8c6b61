//! Anonymous agents name themselves, then simulate (paper §4.3).
//!
//! `SID` needs unique IDs — but the standard population-protocol model is
//! anonymous. Theorem 4.6 shows that *knowing the population size `n`* is
//! enough: the `Nn` naming protocol assigns stable unique names
//! `1..=n` in the IO model (Lemma 3), and every agent that observes
//! `max_id = n` knows naming is complete and can start `SID` with its own
//! name.
//!
//! The payload here is leader election, a protocol whose specification is
//! a *configuration* property (exactly one leader) rather than an output
//! consensus — exercising a different corner of the simulation machinery.
//!
//! Run with: `cargo run --example anonymous_naming`

use ppfts::core::{project, NamedSid, NamedState};
use ppfts::engine::{Batched, OneWayModel, OneWayRunner, Stop};
use ppfts::population::Configuration;
use ppfts::protocols::{LeaderElection, LeaderState};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for n in [4usize, 8, 16] {
        let sims = vec![LeaderState::Leader; n];
        let mut runner = OneWayRunner::builder(OneWayModel::Io, NamedSid::new(LeaderElection, n))
            .config(NamedSid::<LeaderElection>::initial(&sims))
            .seed(n as u64)
            .build()?;

        // Phase 1: watch the naming layer converge.
        let named = runner.run(
            Batched(1),
            Stop::until(20_000_000, |c: &Configuration<_>| {
                c.as_slice().iter().all(NamedState::is_simulating)
            }),
        )?;
        assert!(named.is_satisfied(), "naming must terminate (Lemma 3)");
        let naming_steps = named.steps();
        let mut ids: Vec<u32> = runner
            .config()
            .as_slice()
            .iter()
            .map(NamedState::my_id)
            .collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (1..=n as u32).collect::<Vec<_>>(),
            "a permutation of 1..=n"
        );

        // Phase 2: the simulated leader election runs on the new names.
        let elected = runner.run(
            Batched(1),
            Stop::until(20_000_000, |c| {
                project(c).count_state(&LeaderState::Leader) == 1
            }),
        )?;
        assert!(elected.is_satisfied(), "one leader must survive");

        println!(
            "n = {n:>2}: named in {:>7} interactions (ids 1..={n}), \
             leader elected after {:>7} more",
            naming_steps,
            elected.steps() - naming_steps,
        );
    }
    println!("\nTheorem 4.6 reproduced: IO + knowledge of n simulates any two-way protocol.");
    Ok(())
}
