//! Matching and derived-execution validity across simulators (Defs 3–4).

use ppfts::core::{
    build_matching, extract_events, project, verify_derived_execution, NamedSid, Role, Sid, Skno,
};
use ppfts::engine::{Batched, BoundedStrategy, FullTrace, OneWayModel, OneWayRunner, Stop};
use ppfts::protocols::{Epidemic, Pairing, PairingState};

fn pairing_sims(c: usize, p: usize) -> Vec<PairingState> {
    Pairing::initial(c, p).as_slice().to_vec()
}

#[test]
fn sid_matchings_are_exact_and_replayable() {
    for seed in 0..8u64 {
        let sims = pairing_sims(3, 3);
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
            .config(Sid::<Pairing>::initial(&sims))
            .trace_sink(FullTrace::new())
            .seed(seed)
            .build()
            .unwrap();
        let initial = project(runner.config());
        runner.run(Batched(1), Stop::steps(40_000)).unwrap();
        let events = extract_events(&runner.take_trace().unwrap());
        let matching = build_matching(&Pairing, &events).unwrap();
        let derived = verify_derived_execution(&Pairing, &initial, &events, &matching).unwrap();
        assert_eq!(derived.len(), matching.len(), "seed {seed}");
        // SID events carry exact ids, so every pair is reciprocal.
        for &(si, ri) in &matching.pairs {
            assert_eq!(events[si].role, Role::Starter);
            assert_eq!(events[ri].role, Role::Reactor);
            assert_eq!(events[si].partner_id, events[ri].agent_protocol_id);
            assert_eq!(events[ri].partner_id, events[si].agent_protocol_id);
        }
    }
}

#[test]
fn skno_matchings_validate_at_the_multiset_level() {
    for seed in 0..8u64 {
        let o = 2;
        let sims = pairing_sims(3, 2);
        let mut runner = OneWayRunner::builder(OneWayModel::I3, Skno::new(Pairing, o))
            .config(Skno::<Pairing>::initial(&sims))
            .adversary(BoundedStrategy::new(0.03, o as u64))
            .trace_sink(FullTrace::new())
            .seed(seed)
            .build()
            .unwrap();
        let initial = project(runner.config());
        runner.run(Batched(1), Stop::steps(60_000)).unwrap();
        let events = extract_events(&runner.take_trace().unwrap());
        let matching = build_matching(&Pairing, &events).unwrap();
        let derived = verify_derived_execution(&Pairing, &initial, &events, &matching).unwrap();
        assert_eq!(derived.len(), matching.len(), "seed {seed}");
        // Anonymous events never carry ids.
        assert!(events.iter().all(|e| e.partner_id.is_none()));
    }
}

#[test]
fn named_sid_matchings_are_exact_once_naming_settles() {
    let inputs = vec![true, false, false, false];
    let mut runner = OneWayRunner::builder(OneWayModel::Io, NamedSid::new(Epidemic, inputs.len()))
        .config(NamedSid::<Epidemic>::initial(&inputs))
        .trace_sink(FullTrace::new())
        .seed(3)
        .build()
        .unwrap();
    let initial = project(runner.config());
    runner.run(Batched(1), Stop::steps(100_000)).unwrap();
    let events = extract_events(&runner.take_trace().unwrap());
    // All commits happen in the simulating phase, where protocol ids
    // exist and are unique.
    assert!(events.iter().all(|e| e.agent_protocol_id.is_some()));
    let matching = build_matching(&Epidemic, &events).unwrap();
    let derived = verify_derived_execution(&Epidemic, &initial, &events, &matching).unwrap();
    assert_eq!(derived.len(), matching.len());
}

#[test]
fn event_streams_respect_commit_sequence_numbers() {
    let sims = pairing_sims(2, 2);
    let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
        .config(Sid::<Pairing>::initial(&sims))
        .trace_sink(FullTrace::new())
        .seed(5)
        .build()
        .unwrap();
    runner.run(Batched(1), Stop::steps(20_000)).unwrap();
    let events = extract_events(&runner.take_trace().unwrap());
    // Per agent, seq must be 0, 1, 2, … in trace order.
    use std::collections::HashMap;
    let mut next: HashMap<usize, u64> = HashMap::new();
    for e in &events {
        let want = next.entry(e.agent.index()).or_insert(0);
        assert_eq!(e.seq, *want, "agent {} commit gap", e.agent);
        *want += 1;
    }
}

#[test]
fn unmatched_events_are_only_in_flight_halves() {
    // After a long run with no mid-flight cutoff hazards (SID pairs are
    // tight), the number of unmatched events is bounded by the number of
    // agents: at most one open handshake half per agent.
    let sims = pairing_sims(4, 4);
    let mut runner = OneWayRunner::builder(OneWayModel::Io, Sid::new(Pairing))
        .config(Sid::<Pairing>::initial(&sims))
        .trace_sink(FullTrace::new())
        .seed(11)
        .build()
        .unwrap();
    runner.run(Batched(1), Stop::steps(50_000)).unwrap();
    let events = extract_events(&runner.take_trace().unwrap());
    let matching = build_matching(&Pairing, &events).unwrap();
    assert!(matching.unmatched.len() <= sims.len());
}
