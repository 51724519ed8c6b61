//! E13 — graphical fault-tolerant simulation: SKnO and SID on restricted
//! interaction graphs.
//!
//! The workload is the simulated two-way epidemic (seeded at vertex 0,
//! run to stable full *simulated* infection) through the graphical
//! simulators, over ring / grid / random-regular(4) / complete at
//! n ∈ {64, 256, 1024}:
//!
//! * `sid_<family>_n<n>` — graphical `SID` (fault-free IO). Its
//!   three-observation handshake must *re-meet* the same partner, so low
//!   degree helps and the complete graph is its worst case at scale —
//!   the opposite ordering of the raw epidemic's conductance story.
//! * `skno_o<o>_<family>_n<n>`, o ∈ {0, 1, 2} — graphical `SKnO` under
//!   I3 with the omission adversary spending bound `o` at rate 0.02.
//!   Graphical runs are keyed per announcer, so completing a run of
//!   length o+1 requires reassembling one announcer's tokens at one of
//!   its neighbors: o = 0 tracks the graph's broadcast time, while
//!   o ≥ 1 pays a reassembly cost that explodes as conductance drops.
//!
//! Cells that cannot converge within the fixed step budget execute the
//! full budget and report `converged = 0` — deliberately: the committed
//! numbers chart *where* omission tolerance stops being practical on
//! each graph family, and budget-capped cells stay deterministic for
//! the bench-regression gate. The checksum folds both the convergence
//! count and the mean steps so neither is optimized away.
//!
//! Run with `BENCH_JSON=$PWD/BENCH_RESULTS.json cargo bench -p
//! ppfts-bench --bench e13_graphical_ftt` from the workspace root to
//! record the numbers into the committed baseline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ppfts_bench::{measure_sid_epidemic_graphical, measure_skno_epidemic_graphical};
use ppfts_sweep::workloads::e13_families;

/// Step budget per seed: enough for every cell that converges at all at
/// these sizes (calibrated: SKnO o=1 on rr4 at n=64 needs ~31M), small
/// enough that budget-capped cells stay in bench-friendly wall-clock.
const BUDGET: u64 = 48_000_000;

fn bench_graphical_ftt(c: &mut Criterion) {
    // Every run is seed-deterministic; three samples per cell give the
    // shim a real p50/p95 now that the indexed hot path (PR 9) makes
    // even the budget-capped cells affordable to repeat.
    let mut group = c.benchmark_group("e13_graphical_ftt");
    group.sample_size(3);
    for n in [64usize, 256, 1024] {
        for (family, topology) in e13_families(n) {
            group.bench_function(format!("sid_{family}_n{n}"), |b| {
                b.iter(|| {
                    let conv = measure_sid_epidemic_graphical(&topology, 1, BUDGET);
                    black_box((conv.converged, conv.mean_steps))
                });
            });
            for o in [0u32, 1, 2] {
                group.bench_function(format!("skno_o{o}_{family}_n{n}"), |b| {
                    b.iter(|| {
                        let conv = measure_skno_epidemic_graphical(&topology, o, 1, BUDGET);
                        black_box((conv.converged, conv.mean_steps))
                    });
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_graphical_ftt);
criterion_main!(benches);
