//! The benchmark's own contracts: seed sets replay to the same digest
//! regardless of run or worker count, the traced and untraced loops
//! stop at the same step on every seed, and the output checks reject
//! wrong outputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds are slow on these workloads).

use std::time::Instant;

use ppfts_engine::RunStats;
use ppfts_perfbench::{
    check_dense, check_epoch, run_round, run_seed, skno_runner, Mode, Prepared, Workload, EPOCH_N,
};
use ppfts_population::{CountConfiguration, Topology};

fn seeds(w: Workload, count: usize) -> Vec<u64> {
    w.seed_set(7, count)
}

fn sample_size(w: Workload) -> usize {
    match w {
        Workload::SknoOmission => 3,
        Workload::SidSparse => 6,
        Workload::EpidemicEpoch => 2,
    }
}

#[test]
fn seed_sets_are_fixed_by_the_workload_seed() {
    for w in Workload::ALL {
        assert_eq!(w.seed_set(3, 5), w.seed_set(3, 5));
        assert_ne!(w.seed_set(3, 5), w.seed_set(4, 5));
        let set = w.seed_set(3, 100);
        let mut dedup = set.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 100, "{}: seeds are distinct", w.name());
    }
}

#[test]
fn digest_repeats_across_runs_and_worker_counts() {
    for w in Workload::ALL {
        let prepared = Prepared::new(w);
        let set = seeds(w, sample_size(w));
        let one = run_round(&prepared, &set, 1, Mode::Untraced);
        let again = run_round(&prepared, &set, 1, Mode::Untraced);
        let two = run_round(&prepared, &set, 2, Mode::Untraced);
        assert!(
            one.runs.iter().all(|r| r.ok()),
            "{}: every seed converges",
            w.name()
        );
        assert_eq!(one.digest(), again.digest(), "{}: same seed set", w.name());
        assert_eq!(one.digest(), two.digest(), "{}: 1 vs 2 workers", w.name());
    }
}

#[test]
fn traced_and_untraced_dense_loops_stop_at_the_same_step() {
    for w in [Workload::SknoOmission, Workload::SidSparse] {
        let prepared = Prepared::new(w);
        let origin = Instant::now();
        for seed in seeds(w, sample_size(w)) {
            let plain = run_seed(&prepared, seed, Mode::Untraced, origin);
            let traced = run_seed(&prepared, seed, Mode::Traced, origin);
            assert!(plain.ok() && traced.ok(), "{} seed {seed}", w.name());
            assert_eq!(plain.steps, traced.steps, "{} seed {seed}", w.name());
            assert_eq!(plain.stats, traced.stats, "{} seed {seed}", w.name());
            assert!(traced.error.is_none());
            assert!(!traced.spans.is_empty());
        }
    }
}

#[test]
fn traced_epoch_loop_converges_and_checks() {
    let prepared = Prepared::new(Workload::EpidemicEpoch);
    let seed = seeds(Workload::EpidemicEpoch, 1)[0];
    let run = run_seed(&prepared, seed, Mode::Traced, Instant::now());
    assert!(run.ok(), "{run:?}");
}

#[test]
fn dense_check_rejects_an_unconverged_configuration() {
    let topology = Topology::complete(16).expect("n ≥ 2");
    let runner = skno_runner(&topology, 1);
    // Fresh runner: only vertex 0 is infected.
    let err = check_dense(runner.config(), RunStats::default(), 0, 1).unwrap_err();
    assert!(err.contains("1/16"), "{err}");
}

#[test]
fn checks_reject_inconsistent_counters() {
    let mut runner = skno_runner(&Topology::complete(16).expect("n ≥ 2"), 1);
    runner.run_batched(200_000, 1024).expect("SKnO runs");
    let stats = runner.stats();
    let steps = runner.steps();
    check_dense(runner.config(), stats, steps, 1).expect("a converged run passes");
    let mut broken = stats;
    broken.noop_steps += 1;
    assert!(check_dense(runner.config(), broken, steps, 1).is_err());
    assert!(check_dense(runner.config(), stats, steps + 1, 1).is_err());
    let mut omissive = stats;
    omissive.omissive_steps = 2;
    assert!(check_dense(runner.config(), omissive, steps, 1).is_err());

    let all = CountConfiguration::from_groups([(true, EPOCH_N)]);
    let stats = RunStats {
        steps: 100,
        omissive_steps: 10,
        changed_steps: 40,
        noop_steps: 60,
    };
    check_epoch(&all, stats, 100).expect("consistent counters pass");
    let some = CountConfiguration::from_groups([(true, EPOCH_N - 1), (false, 1)]);
    assert!(check_epoch(&some, stats, 100).is_err());
    let quiet = RunStats {
        omissive_steps: 0,
        ..stats
    };
    assert!(check_epoch(&all, quiet, 100).is_err());
}
