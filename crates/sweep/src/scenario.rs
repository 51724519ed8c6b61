//! From a [`Job`] to a result: dispatches each manifest family to its
//! single-seed body in [`workloads`](crate::workloads).

use ppfts_engine::EngineError;

use crate::manifest::{Family, Job};
use crate::workloads::{
    epidemic_counts, epidemic_epoch_run, epidemic_giant_run, epidemic_topology_run,
    named_pairing_run, naming_phase_run, sid_epidemic_graphical_run, sid_pairing_run,
    skno_epidemic_graphical_run, skno_pairing_run,
};

/// The outcome of one job, as recorded in the sweep ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// The job's ledger key.
    pub id: String,
    /// Whether the run converged within its budget.
    pub converged: bool,
    /// Engine interactions executed when the run stopped (0 on an
    /// error line).
    pub steps: u64,
    /// The simulated-step denominator of the workload (`n` for
    /// epidemics, `n/2` pairings for the Pairing workload; 0 on an
    /// error line).
    pub simulated: u64,
    /// The engine error that ended the run, if one did. Such a job is
    /// recorded (and so not re-run on resume) but is neither converged
    /// nor a budget miss.
    pub error: Option<String>,
}

impl JobResult {
    /// The ledger record of a job whose run ended in `error`.
    #[must_use]
    pub fn failed(id: &str, error: &EngineError) -> Self {
        JobResult {
            id: id.to_string(),
            converged: false,
            steps: 0,
            simulated: 0,
            error: Some(error.to_string()),
        }
    }
}

/// Runs one job to completion on the current thread.
///
/// Deterministic in the job (topologies are generated with fixed seeds,
/// runs with the job's seed), so a resumed sweep reproduces exactly the
/// results a straight-through sweep would have written.
///
/// # Errors
///
/// The [`EngineError`] that ended the run, if one did.
///
/// # Panics
///
/// Panics only on internal invariant violations (the manifest layer
/// pre-validated sizes and axes); the orchestrator catches panics and
/// reports the job as failed without writing a ledger entry.
pub fn run_job(job: &Job) -> Result<JobResult, EngineError> {
    let topology = job
        .topology
        .map(|kind| kind.build(job.n).expect("expand() pre-validated the size"));
    let (out, simulated) = match job.family {
        Family::Skno => skno_epidemic_graphical_run(
            topology.as_ref().expect("graphical family has a topology"),
            job.o,
            job.seed,
            job.budget,
        ),
        Family::Sid => sid_epidemic_graphical_run(
            topology.as_ref().expect("graphical family has a topology"),
            job.seed,
            job.budget,
        ),
        Family::Epidemic => epidemic_topology_run(
            topology.as_ref().expect("graphical family has a topology"),
            job.seed,
            job.budget,
        ),
        Family::SknoPairing => skno_pairing_run(job.n, job.o, job.seed, job.budget),
        Family::SidPairing => sid_pairing_run(job.n, job.seed, job.budget),
        Family::NamedPairing => named_pairing_run(job.n, job.seed, job.budget),
        Family::Naming => naming_phase_run(job.n, job.seed, job.budget),
        Family::EpidemicCount => epidemic_giant_run(epidemic_counts(job.n), job.seed, job.budget),
        Family::EpidemicEpoch => epidemic_epoch_run(job.n, job.seed, job.budget),
    }?;
    Ok(JobResult {
        id: job.id.clone(),
        converged: out.is_satisfied(),
        steps: out.steps(),
        simulated,
        error: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::expand;

    #[test]
    fn every_family_runs_at_smoke_scale() {
        let doc = r#"{
            "name": "families",
            "seeds": 1,
            "budget": 400000,
            "grids": [
                {"family": "skno", "topology": "complete", "n": 16, "o": 0},
                {"family": "sid", "topology": "ring", "n": 16},
                {"family": "epidemic", "topology": "star", "n": 16},
                {"family": "skno_pairing", "n": 8, "o": 1, "budget": 1000000},
                {"family": "sid_pairing", "n": 8},
                {"family": "named_pairing", "n": 8},
                {"family": "naming", "n": 8},
                {"family": "epidemic_count", "n": 100},
                {"family": "epidemic_epoch", "n": 100}
            ]
        }"#;
        let manifest = expand(doc).unwrap();
        assert_eq!(manifest.jobs.len(), 9);
        for job in &manifest.jobs {
            let result = run_job(job).unwrap();
            assert_eq!(result.id, job.id);
            assert!(result.converged, "{} should converge", job.id);
            assert!(result.steps > 0);
            assert!(result.simulated > 0);
        }
    }

    #[test]
    fn job_results_are_deterministic_in_the_job() {
        let doc = r#"{"name": "det", "seeds": 2, "budget": 300000, "grids": [
            {"family": "sid", "topology": "rr4", "n": 16}
        ]}"#;
        let manifest = expand(doc).unwrap();
        let first: Vec<JobResult> = manifest.jobs.iter().map(|j| run_job(j).unwrap()).collect();
        let second: Vec<JobResult> = manifest.jobs.iter().map(|j| run_job(j).unwrap()).collect();
        // Step counts are batch-aligned, so distinct seeds may well
        // coincide — determinism is the only contract here.
        assert_eq!(first, second);
    }
}
