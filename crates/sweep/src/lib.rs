//! Sweep orchestration for the experiment suite: declarative scenario
//! manifests in, a checkpointed JSONL result ledger out.
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
//! Workload bodies are the single-seed harnesses of [`ppfts_bench`], so
//! orchestrated sweeps measure exactly the dynamics of the `measure_*`
//! aggregators and the committed bench baseline.
//!
//! The `ppfts_sweep` binary is the CLI:
//!
//! ```text
//! ppfts_sweep --manifest crates/sweep/manifests/e13_grid.json --out e13.jsonl
//! ppfts_sweep --manifest … --out e13.jsonl --max-jobs 50   # partial leg
//! ppfts_sweep --manifest … --out e13.jsonl                 # resume the rest
//! ppfts_sweep --manifest … --out e13.jsonl --verify        # audit: exit 0 iff complete
//! ```

#![warn(missing_docs)]

pub use ppfts_verify::json;
pub mod manifest;
pub mod orchestrator;
pub mod scenario;

pub use manifest::{expand, Family, Job, Manifest, ManifestError, TopologyKind};
pub use orchestrator::{
    load_ledger, run_sweep, summarize, summary_table, verify, GroupSummary, SweepReport,
    VerifyReport,
};
pub use scenario::{run_job, JobResult};
