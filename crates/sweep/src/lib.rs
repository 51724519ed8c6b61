//! The experiment driver: declarative scenario manifests in, a
//! checkpointed JSONL result ledger and a convergence table out.
//!
//! The experiment grids this repository charts (E5's size sweep, E13's
//! topology × omission-bound grid, …) are cartesian products of a few
//! axes — protocol family, interaction topology, population size,
//! omission bound, seed — run for thousands of seeded jobs. This crate
//! industrializes that: a JSON **manifest** ([`manifest::expand`])
//! declares the grid; the **orchestrator** ([`orchestrator::run_sweep`])
//! fans the expanded jobs over threads (reusing the engine's
//! atomic-cursor dispatcher), streams each finished job as one JSONL
//! line, and treats that same file as the **checkpoint ledger**: a
//! killed or capped sweep resumes by rerunning with the same arguments —
//! recorded jobs are skipped, and because every job is deterministic in
//! its manifest coordinates, the resumed union is bit-identical to a
//! straight-through run.
//!
//! Workload bodies are the single-seed runs of [`workloads`], one per
//! manifest family; the bench crate's `measure_*` aggregators fan the
//! same bodies over seeds. The EXPERIMENTS.md convergence tables (E5,
//! E7, E8, E11, E12, E13, E15) each come from one committed manifest
//! under `crates/sweep/manifests/`.
//!
//! The `ppfts_sweep` binary is the CLI:
//!
//! ```text
//! ppfts_sweep --manifest crates/sweep/manifests/e13_grid.json --out e13.jsonl
//! ppfts_sweep --manifest … --out e13.jsonl --max-jobs 50   # partial leg
//! ppfts_sweep --manifest … --out e13.jsonl                 # resume the rest
//! ppfts_sweep --manifest … --out e13.jsonl --verify        # audit: exit 0 iff complete
//! ppfts_sweep --manifest … --out e13.jsonl --summarize     # the table
//! ```

#![warn(missing_docs)]

pub use ppfts_verify::json;
pub mod manifest;
pub mod orchestrator;
pub mod scenario;
pub mod workloads;

pub use manifest::{expand, Family, Job, Manifest, ManifestError, TopologyKind};
pub use orchestrator::{
    load_ledger, run_sweep, summarize, summary_table, verify, GroupSummary, SweepReport,
    VerifyReport,
};
pub use scenario::{run_job, JobResult};

#[cfg(test)]
mod tests {
    use ppfts_population::Topology;

    use crate::workloads::{
        e13_families, pairing_inputs, sid_pairing_run, skno_epidemic_graphical_run_with,
        skno_peak_tokens,
    };

    #[test]
    fn sid_measurement_converges_for_small_n() {
        for seed in 0..3 {
            let (out, simulated) = sid_pairing_run(4, seed, 500_000).unwrap();
            assert!(out.is_satisfied(), "seed {seed}");
            assert!(
                out.steps() >= 3 * simulated,
                "at least FTT per simulated step"
            );
        }
    }

    /// E6: the n = 8 row EXPERIMENTS.md quotes (seed 11, 50 000 steps).
    #[test]
    fn peak_tokens_scale_with_bound() {
        let peaks: Vec<usize> = (0..=3)
            .map(|o| skno_peak_tokens(8, o, 50_000, 11))
            .collect();
        assert_eq!(peaks, [7, 14, 19, 25], "peak tokens for o = 0..3");
    }

    /// E13's graph instrumentation table: conductance Φ and lazy-walk
    /// spectral gap of each family, as EXPERIMENTS.md prints them.
    #[test]
    fn e13_instrumentation_matches_the_table() {
        let table = [
            (
                64,
                [
                    (0.031, 0.0024),
                    (0.086, 0.0232),
                    (0.184, 0.0728),
                    (0.508, 0.5079),
                ],
            ),
            (
                256,
                [
                    (0.010, 0.0002),
                    (0.046, 0.0053),
                    (0.164, 0.0714),
                    (0.502, 0.5020),
                ],
            ),
        ];
        for (n, rows) in table {
            for ((family, t), (phi, gap)) in e13_families(n).into_iter().zip(rows) {
                let measured = (t.conductance(), t.spectral_profile(4_000).spectral_gap);
                assert!(
                    (measured.0 - phi).abs() <= 5e-4 && (measured.1 - gap).abs() <= 5e-5,
                    "{family} n = {n}: (Φ, gap) = {measured:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "even n")]
    fn odd_population_rejected() {
        let _ = pairing_inputs(5);
    }

    /// E17: the indexed simulator and its scan-path reference run the
    /// same graphical SKnO workload bit for bit.
    #[test]
    #[ignore = "release scale: run in release with --ignored"]
    fn indexed_and_scan_reference_runs_are_identical() {
        let topology = Topology::complete(64).unwrap();
        for o in 0..=2 {
            let indexed = skno_epidemic_graphical_run_with(&topology, o, 0, 2_000_000, true);
            let scan = skno_epidemic_graphical_run_with(&topology, o, 0, 2_000_000, false);
            assert_eq!(indexed.unwrap(), scan.unwrap(), "o = {o}");
        }
    }
}
