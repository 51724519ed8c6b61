//! E17 — the indexed simulation hot path: wall-clock of the graphical
//! fault-tolerant simulators after PR 9's `RunIndex` + batched-arc work.
//!
//! The workload is the same simulated two-way epidemic as E13 (seeded at
//! vertex 0, run to stable full *simulated* infection), but the grid is
//! chosen to expose exactly what the hot-path work changed:
//!
//! * `sid_<family>_n<n>` — graphical `SID` (fault-free IO): the cached
//!   adjacency-filtering flag plus the monomorphized batched arc draw.
//! * `skno_o<o>_<family>_n<n>`, o ∈ {0, 1, 2} — graphical `SKnO` under
//!   I3 with the bounded omission adversary at rate 0.02: the per-agent
//!   `RunIndex` replaces the O(queue) census that used to dominate every
//!   reactor check, so cost per step no longer grows with the number of
//!   parked announcement tokens.
//!
//! Families are complete / rr4 / ring at n ∈ {256, 1024, 4096} — one
//! conductance extreme on each side of rr4. The complete-graph n = 1024
//! cells overlap E13 deliberately: comparing `e17_simulator_hotpath/
//! skno_o2_complete_n1024` (and `sid_complete_n1024`) against the E13
//! numbers committed before this PR is the speedup acceptance check.
//! Budget-capped cells execute the full budget and report
//! `converged = 0`, which keeps every cell deterministic for the
//! bench-regression gate.
//!
//! Run with `BENCH_JSON=$PWD/BENCH_RESULTS.json cargo bench -p
//! ppfts-bench --bench e17_simulator_hotpath` from the workspace root to
//! record the numbers into the committed baseline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ppfts_bench::{measure_sid_epidemic_graphical, measure_skno_epidemic_graphical};
use ppfts_population::Topology;
use ppfts_sweep::workloads::{E13_RR_DEGREE, E13_TOPOLOGY_SEED};

/// Same per-seed step budget as E13, so the overlapping complete-graph
/// cells are directly comparable across the two baselines.
const BUDGET: u64 = 48_000_000;

/// E17 graph families: the SID-worst/SKnO-best complete graph, the
/// expander middle ground, and the low-conductance ring. Grid is left to
/// E13 — it needs perfect-square n and adds no new regime here.
fn e17_families(n: usize) -> Vec<(&'static str, Topology)> {
    vec![
        ("complete", Topology::complete(n).expect("n ≥ 2")),
        (
            "rr4",
            Topology::random_regular(n, E13_RR_DEGREE, E13_TOPOLOGY_SEED)
                .expect("rr4 is feasible at every E17 size"),
        ),
        ("ring", Topology::ring(n).expect("n ≥ 4")),
    ]
}

fn bench_simulator_hotpath(c: &mut Criterion) {
    // Every run is seed-deterministic; three samples give the shim a
    // real p50/p95 while keeping the budget-capped cells affordable.
    let mut group = c.benchmark_group("e17_simulator_hotpath");
    group.sample_size(3);
    for n in [256usize, 1024, 4096] {
        for (family, topology) in e17_families(n) {
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

criterion_group!(benches, bench_simulator_hotpath);
criterion_main!(benches);
