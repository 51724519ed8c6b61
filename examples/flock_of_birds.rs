//! Flock of birds: the paper's motivating scenario under failures.
//!
//! §1.1 of the paper motivates population protocols with a passively
//! mobile sensor network: each bird of a flock carries a sensor, and the
//! flock must detect when the number of birds with elevated temperature
//! reaches a critical threshold `k`, so a sensor can intervene.
//!
//! Radio contacts between birds are unreliable: a message can vanish
//! mid-air (an *omission*), and only the receiver's radio notices the
//! corrupted frame — exactly the paper's one-way omissive model **I3**.
//! Knowing an upper bound `o` on how many frames can be lost, the flock
//! runs the threshold protocol through the `SKnO` simulator (paper §4.1):
//! every value is shipped as `o+1` redundant tokens and joker wildcards
//! patch the losses.
//!
//! Run with: `cargo run --example flock_of_birds`

use ppfts::core::{project, Skno, SknoState};
use ppfts::engine::{Batched, BoundedStrategy, OneWayModel, OneWayRunner, RateStrategy, Stop};
use ppfts::population::{unanimous_output, Configuration, Semantics};
use ppfts::protocols::{FlockOfBirds, FlockState};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const THRESHOLD: u32 = 4; // alarm when ≥ 4 birds run a fever
    const OMISSION_BOUND: u32 = 3; // the radio loses at most 3 frames

    let flock = FlockOfBirds::new(THRESHOLD);
    // 12 birds, 5 of them feverish: the alarm must fire.
    let fevers = [
        true, false, true, false, false, true, false, true, false, false, true, false,
    ];
    let sick = fevers.iter().filter(|b| **b).count();
    let expected = flock.expected(&fevers);
    println!(
        "flock of {} birds, {} feverish, threshold {THRESHOLD}",
        fevers.len(),
        sick
    );
    println!("ground truth: alarm = {expected}\n");

    let sim_states: Vec<_> = fevers.iter().map(|b| flock.encode(b)).collect();

    // The adversary loses frames at a 2% rate but is budgeted to the
    // assumed bound — the condition under which Theorem 4.1 guarantees
    // correctness.
    let mut runner = OneWayRunner::builder(OneWayModel::I3, Skno::new(flock, OMISSION_BOUND))
        .config(Skno::<FlockOfBirds>::initial(&sim_states))
        .adversary(BoundedStrategy::new(0.02, OMISSION_BOUND as u64))
        .seed(2026)
        .build()?;

    let out = runner.run(
        Batched(1),
        Stop::until(5_000_000, |c: &Configuration<SknoState<FlockState>>| {
            unanimous_output(&project(c), |q| q.detected) == Some(expected)
        }),
    )?;
    assert!(out.is_satisfied(), "the flock must stabilize");
    println!(
        "alarm stabilized to {expected} after {} interactions ({} frames lost)",
        out.steps(),
        runner.stats().omissive_steps,
    );

    // Memory audit (Theorem 4.1: Θ(|Q_P|·(o+1)·log n) per agent).
    let max_tokens = runner
        .config()
        .as_slice()
        .iter()
        .map(SknoState::token_footprint)
        .max()
        .unwrap_or(0);
    println!("largest per-bird token footprint: {max_tokens} tokens\n");

    // Below the threshold the alarm must stay silent — as long as the
    // adversary honours the assumed bound (Theorem 4.1's hypothesis).
    let calm = [true, false, false, true, false, true, false, false];
    let flock2 = FlockOfBirds::new(THRESHOLD);
    let calm_states: Vec<_> = calm.iter().map(|b| flock2.encode(b)).collect();
    let mut quiet = OneWayRunner::builder(OneWayModel::I3, Skno::new(flock2, OMISSION_BOUND))
        .config(Skno::<FlockOfBirds>::initial(&calm_states))
        .adversary(BoundedStrategy::new(0.02, OMISSION_BOUND as u64))
        .seed(7)
        .build()?;
    quiet.run(Batched(1), Stop::steps(200_000))?;
    let false_alarm = project(quiet.config())
        .as_slice()
        .iter()
        .any(|q| q.detected);
    assert!(!false_alarm, "no spurious alarms below the threshold");
    println!(
        "control flock ({} feverish < {THRESHOLD}): no alarm after {} interactions",
        calm.iter().filter(|b| **b).count(),
        quiet.steps(),
    );

    // And the cautionary tale of Theorem 3.1: let the adversary exceed
    // the assumed bound (an unbounded 2% loss rate) and the guarantee is
    // void — surplus jokers let the same count announcement be consumed
    // several times, inflating the tally until the alarm fires spuriously.
    let flock3 = FlockOfBirds::new(THRESHOLD);
    let mut betrayed = OneWayRunner::builder(OneWayModel::I3, Skno::new(flock3, OMISSION_BOUND))
        .config(Skno::<FlockOfBirds>::initial(&calm_states))
        .adversary(RateStrategy::new(0.02)) // UO adversary: no budget
        .seed(7)
        .build()?;
    let spurious = betrayed.run(
        Batched(1),
        Stop::until(400_000, |c: &Configuration<SknoState<FlockState>>| {
            project(c).as_slice().iter().any(|q| q.detected)
        }),
    )?;
    println!(
        "same flock, adversary past the bound: spurious alarm {} (omissions: {})",
        if spurious.is_satisfied() {
            format!("fired after {} interactions", spurious.steps())
        } else {
            "did not fire in this window".to_string()
        },
        betrayed.stats().omissive_steps,
    );
    println!("\nWithin the assumed bound SKnO is exact; beyond it, Theorem 3.1 bites.");
    Ok(())
}
