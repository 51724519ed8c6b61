//! Facade-level check of the epoch path's refusal of non-i.i.d. omission
//! schedules. The dense ↔ count and interleaved ↔ epoch relations
//! themselves are rows of `tests/differential.rs`.

use ppfts::engine::{
    Batched, BoundedStrategy, EngineError, Epochs, StatsOnly, Stop, TwoWayModel, TwoWayRunner,
};
use ppfts::population::CountConfiguration;
use ppfts::protocols::Epidemic;

/// Typed rejection: the epoch path thins omissions binomially from a
/// fixed i.i.d. rate, so a history-dependent adversary (here a budgeted
/// strategy) must be refused with `EpochIncompatible` — and the refusal
/// must leave the runner untouched, so the interleaved path can still
/// honor the adversary afterwards.
#[test]
fn epoch_path_rejects_non_iid_omission_schedules() {
    let mut runner = TwoWayRunner::builder(TwoWayModel::T1, Epidemic)
        .population(CountConfiguration::from_groups([(true, 1), (false, 63)]))
        .adversary(BoundedStrategy::new(0.5, 1_000))
        .seed(1)
        .trace_sink(StatsOnly)
        .build()
        .expect("valid population");
    let err = runner.run(Epochs, Stop::steps(10_000)).unwrap_err();
    assert!(matches!(err, EngineError::EpochIncompatible { .. }));
    assert_eq!(runner.steps(), 0, "rejection must precede any mutation");
    runner
        .run(Batched(1), Stop::steps(10_000))
        .expect("interleaved path honors the adversary");
    assert_eq!(runner.steps(), 10_000);
}
