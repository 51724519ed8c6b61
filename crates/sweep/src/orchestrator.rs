//! The sweep driver: runs a manifest's pending jobs across threads,
//! streaming each finished job as one JSONL line that doubles as the
//! checkpoint ledger.
//!
//! # Checkpoint / resume
//!
//! The output file is the *only* state. Every completed job appends
//! (and flushes) one line `{"id": …, "converged": …, "steps": …,
//! "simulated": …}` under a mutex — plus `"error": …` when the run
//! ended in an engine error — so after a kill the file holds every
//! finished job plus at most one torn line. On the next invocation
//! [`load_ledger`] drops unparseable lines (rewriting the file so later
//! appends don't glue onto a torn tail), [`run_sweep`] skips every
//! recorded id, and the interrupted or failed jobs — never written —
//! simply run again. Job results are deterministic in the job
//! ([`run_job`]), so a resumed sweep is bit-identical to a
//! straight-through one.
//!
//! Dispatch reuses the engine's chunked atomic-cursor fan-out
//! ([`run_seeds`] /  [`run_seeds_with_progress`]) over pending-job
//! indices: no queue mutex, work-stealing tail balance, and the same
//! per-chunk progress watermark the experiment harnesses use.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::{self, BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ppfts_engine::{run_seeds, run_seeds_with_progress, DistSummary};

use crate::json;
use crate::manifest::{group_of, Manifest};
use crate::scenario::{run_job, JobResult};

/// What one [`run_sweep`] invocation did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepReport {
    /// Jobs the manifest expands to.
    pub total: usize,
    /// Jobs already in the ledger, skipped.
    pub skipped: usize,
    /// Jobs run and recorded by this invocation.
    pub ran: usize,
    /// Of those, jobs whose run ended in an engine error (recorded with
    /// the error, so a rerun does not retry them).
    pub errors: usize,
    /// Jobs that panicked; not recorded, so a rerun retries them.
    pub failed: usize,
    /// Jobs still missing from the ledger after this invocation
    /// (failed ones, plus everything beyond a `max_jobs` cap).
    pub remaining: usize,
}

/// Renders one ledger line (no trailing newline). The `"error"` field
/// appears only on a job that ended in an engine error.
#[must_use]
fn render_result(r: &JobResult) -> String {
    let error = r
        .error
        .as_ref()
        .map(|e| format!(", \"error\": \"{}\"", json::escape(e)))
        .unwrap_or_default();
    format!(
        "{{\"id\": \"{}\", \"converged\": {}, \"steps\": {}, \"simulated\": {}{error}}}",
        json::escape(&r.id),
        r.converged,
        r.steps,
        r.simulated
    )
}

fn parse_result(line: &str) -> Option<JobResult> {
    let v = json::parse(line).ok()?;
    let error = match v.get("error") {
        Some(e) => Some(e.as_str()?.to_string()),
        None => None,
    };
    Some(JobResult {
        id: v.get("id")?.as_str()?.to_string(),
        converged: v.get("converged")?.as_bool()?,
        steps: v.get("steps")?.as_u64()?,
        simulated: v.get("simulated")?.as_u64()?,
        error,
    })
}

/// Reads a ledger file into its recorded results, in file order.
///
/// A missing file is an empty ledger. Unparseable lines — a torn tail
/// from a kill mid-append, or hand-editing damage — are dropped, and
/// when any are found the file is rewritten to the surviving records so
/// subsequent appends start on a clean line boundary. The jobs on
/// dropped lines are thereby un-done and will rerun.
///
/// # Errors
///
/// Propagates I/O failures reading or rewriting the file.
pub fn load_ledger(path: &Path) -> io::Result<Vec<JobResult>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut results = Vec::new();
    let mut dropped = false;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_result(line) {
            Some(r) => results.push(r),
            None => dropped = true,
        }
    }
    if dropped {
        let mut clean = String::new();
        for r in &results {
            clean.push_str(&render_result(r));
            clean.push('\n');
        }
        std::fs::write(path, clean)?;
    }
    Ok(results)
}

/// Runs every manifest job not yet in the ledger at `out`, appending
/// one JSONL line per finished job, fanned out over `threads` workers.
///
/// `max_jobs` caps how many pending jobs this invocation attempts —
/// the CI smoke uses it to simulate a mid-sweep kill, and it gives
/// long sweeps a natural session granularity. `progress(done, total)`
/// is forwarded to the dispatcher's per-chunk watermark (`total` is
/// this invocation's attempted-job count).
///
/// # Errors
///
/// Propagates ledger I/O failures. A job whose run ends in an engine
/// error is recorded with that error and counted in
/// [`SweepReport::errors`]. A job that *panics* is not an error: it is
/// counted in [`SweepReport::failed`], left out of the ledger, and
/// retried by the next invocation.
///
/// # Panics
///
/// Panics if `threads == 0`, or if the ledger mutex was poisoned.
pub fn run_sweep(
    manifest: &Manifest,
    out: &Path,
    threads: usize,
    max_jobs: Option<usize>,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> io::Result<SweepReport> {
    assert!(threads > 0, "need at least one worker thread");
    let done: BTreeSet<String> = load_ledger(out)?.into_iter().map(|r| r.id).collect();
    let pending: Vec<_> = manifest
        .jobs
        .iter()
        .filter(|j| !done.contains(&j.id))
        .collect();
    let attempt = max_jobs.map_or(pending.len(), |cap| cap.min(pending.len()));
    let batch = &pending[..attempt];

    let file = OpenOptions::new().create(true).append(true).open(out)?;
    let writer = Mutex::new(BufWriter::new(file));
    let failed = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let io_error: Mutex<Option<io::Error>> = Mutex::new(None);

    let run_one = |i: u64| {
        let job = batch[i as usize];
        // A panicking job must not take the whole sweep (and the other
        // workers' finished-but-unwritten jobs) down with it.
        match catch_unwind(AssertUnwindSafe(|| run_job(job))) {
            Ok(result) => {
                let result = result.unwrap_or_else(|e| {
                    errors.fetch_add(1, Ordering::Relaxed);
                    JobResult::failed(&job.id, &e)
                });
                let mut w = writer.lock().expect("ledger writer poisoned");
                // Flush per job: a kill loses at most one torn line,
                // which load_ledger repairs on resume.
                let wrote = writeln!(w, "{}", render_result(&result)).and_then(|()| w.flush());
                if let Err(e) = wrote {
                    io_error
                        .lock()
                        .expect("error slot poisoned")
                        .get_or_insert(e);
                }
            }
            Err(_) => {
                failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    match progress {
        Some(report) => {
            run_seeds_with_progress(0..attempt as u64, threads, run_one, |done, total| {
                report(done, total);
            });
        }
        None => {
            run_seeds(0..attempt as u64, threads, run_one);
        }
    }
    if let Some(e) = io_error.lock().expect("error slot poisoned").take() {
        return Err(e);
    }

    let failed = failed.load(Ordering::Relaxed);
    Ok(SweepReport {
        total: manifest.jobs.len(),
        skipped: done.len(),
        ran: attempt - failed,
        errors: errors.load(Ordering::Relaxed),
        failed,
        remaining: manifest.jobs.len() - done.len() - (attempt - failed),
    })
}

/// How a ledger squares with its manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Jobs the manifest expands to.
    pub expected: usize,
    /// Distinct manifest jobs the ledger records.
    pub recorded: usize,
    /// Manifest jobs with no ledger entry.
    pub missing: Vec<String>,
    /// Ledger ids the manifest doesn't produce (stale file, wrong
    /// manifest).
    pub unknown: Vec<String>,
    /// Ids recorded more than once.
    pub duplicates: Vec<String>,
}

impl VerifyReport {
    /// Complete and clean: every job exactly once, nothing else.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty() && self.unknown.is_empty() && self.duplicates.is_empty()
    }
}

/// Audits the ledger at `out` against `manifest`: completeness (every
/// job recorded), provenance (no foreign ids) and uniqueness (no
/// duplicates).
///
/// # Errors
///
/// Propagates ledger I/O failures.
pub fn verify(manifest: &Manifest, out: &Path) -> io::Result<VerifyReport> {
    let recorded = load_ledger(out)?;
    let expected: BTreeSet<&str> = manifest.jobs.iter().map(|j| j.id.as_str()).collect();
    let mut seen = BTreeSet::new();
    let mut duplicates = Vec::new();
    let mut unknown = Vec::new();
    for r in &recorded {
        if !seen.insert(r.id.as_str()) {
            duplicates.push(r.id.clone());
        }
        if !expected.contains(r.id.as_str()) {
            unknown.push(r.id.clone());
        }
    }
    let missing: Vec<String> = manifest
        .jobs
        .iter()
        .filter(|j| !seen.contains(j.id.as_str()))
        .map(|j| j.id.clone())
        .collect();
    Ok(VerifyReport {
        expected: expected.len(),
        recorded: seen.iter().filter(|id| expected.contains(**id)).count(),
        missing,
        unknown,
        duplicates,
    })
}

/// Per-group aggregate of a sweep's results: one row per job id with
/// the `/s{seed}` segment stripped.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupSummary {
    /// The group key (job id minus seed).
    pub group: String,
    /// Seeds recorded.
    pub seeds: usize,
    /// Seeds that converged within budget.
    pub converged: usize,
    /// Seeds whose run ended in an engine error; the remaining
    /// `seeds - converged - errors` missed their budget.
    pub errors: usize,
    /// Distribution of interaction counts over *converged* seeds;
    /// `None` when none converged.
    pub steps: Option<DistSummary>,
    /// Mean over converged seeds of steps ÷ the workload's simulated-step
    /// denominator (steps per simulated interaction, or per agent for
    /// epidemics); `None` when none converged.
    pub per_simulated: Option<f64>,
}

/// Groups ledger results by [`group_of`] and summarizes each group's
/// convergence-step distribution, sorted by group key with digit runs
/// compared as numbers (`n4` before `n16` before `n256`).
#[must_use]
pub fn summarize(results: &[JobResult]) -> Vec<GroupSummary> {
    let mut groups: Vec<(String, Vec<&JobResult>)> = Vec::new();
    for r in results {
        let key = group_of(&r.id);
        match groups.iter_mut().find(|(g, _)| g == key) {
            Some((_, members)) => members.push(r),
            None => groups.push((key.to_string(), vec![r])),
        }
    }
    groups.sort_by(|a, b| natural_cmp(&a.0, &b.0));
    groups
        .into_iter()
        .map(|(group, members)| {
            let converged: Vec<&JobResult> =
                members.iter().copied().filter(|r| r.converged).collect();
            let steps: Vec<f64> = converged.iter().map(|r| r.steps as f64).collect();
            let per_simulated: Vec<f64> = converged
                .iter()
                .map(|r| r.steps as f64 / r.simulated.max(1) as f64)
                .collect();
            GroupSummary {
                group,
                seeds: members.len(),
                converged: converged.len(),
                errors: members.iter().filter(|r| r.error.is_some()).count(),
                steps: DistSummary::of(&steps),
                per_simulated: DistSummary::of(&per_simulated).map(|d| d.mean),
            }
        })
        .collect()
}

/// Compares two group keys with every maximal run of ASCII digits read
/// as a number, so `skno_pairing/n4/o0` sorts before
/// `skno_pairing/n16/o0`. Job ids carry no leading zeros, so a longer
/// digit run is a larger number.
fn natural_cmp(a: &str, b: &str) -> CmpOrdering {
    let digits = |s: &[u8]| s.iter().take_while(|c| c.is_ascii_digit()).count();
    let (mut a, mut b) = (a.as_bytes(), b.as_bytes());
    loop {
        let (run_a, run_b) = (digits(a), digits(b));
        let order = if run_a > 0 && run_b > 0 {
            run_a.cmp(&run_b).then_with(|| a[..run_a].cmp(&b[..run_b]))
        } else {
            match (a.first(), b.first()) {
                (None, None) => return CmpOrdering::Equal,
                (x, y) => x.cmp(&y),
            }
        };
        if order != CmpOrdering::Equal {
            return order;
        }
        let step = run_a.max(1);
        (a, b) = (&a[step..], &b[step..]);
    }
}

/// Renders [`summarize`]'s rows as an aligned text table. `per-sim` is
/// [`GroupSummary::per_simulated`].
#[must_use]
pub fn summary_table(summaries: &[GroupSummary]) -> String {
    let mut out = String::from(
        "group                                    | conv  | err | mean steps   | p50          | p95          | per-sim\n",
    );
    out.push_str(
        "-----------------------------------------|-------|-----|--------------|--------------|--------------|-----------\n",
    );
    let dash = || "-".to_string();
    for s in summaries {
        let (mean, p50, p95) = s.steps.map_or_else(
            || (dash(), dash(), dash()),
            |d| {
                (
                    format!("{:.1}", d.mean),
                    format!("{:.0}", d.p50),
                    format!("{:.0}", d.p95),
                )
            },
        );
        let per_sim = s.per_simulated.map_or_else(dash, |r| format!("{r:.2}"));
        out.push_str(&format!(
            "{:<40} | {:>2}/{:<2} | {:>3} | {:>12} | {:>12} | {:>12} | {:>10}\n",
            s.group, s.converged, s.seeds, s.errors, mean, p50, p95, per_sim
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: &str, converged: bool, steps: u64) -> JobResult {
        JobResult {
            id: id.to_string(),
            converged,
            steps,
            simulated: 16,
            error: None,
        }
    }

    fn errored(id: &str) -> JobResult {
        JobResult::failed(
            id,
            &ppfts_engine::EngineError::PerAgentBackendRequired {
                operation: "building \"quoted\" records",
            },
        )
    }

    #[test]
    fn ledger_lines_round_trip() {
        let r = result("skno/rr4/n16/o1/s3", true, 123_456);
        let line = render_result(&r);
        assert!(
            !line.contains("error"),
            "successful lines carry no error field"
        );
        assert_eq!(parse_result(&line), Some(r));
        let e = errored("skno/rr4/n16/o1/s4");
        let line = render_result(&e);
        assert!(line.contains("\"error\": \""), "{line}");
        assert_eq!(parse_result(&line), Some(e));
    }

    #[test]
    fn ledger_lines_without_an_error_field_still_parse() {
        let line = r#"{"id": "a/n2/s0", "converged": true, "steps": 10, "simulated": 16}"#;
        assert_eq!(parse_result(line), Some(result("a/n2/s0", true, 10)));
        assert_eq!(render_result(&result("a/n2/s0", true, 10)), line);
        // A malformed error field makes the line unparseable, like any
        // other damaged field.
        let bad =
            r#"{"id": "a/n2/s1", "converged": false, "steps": 0, "simulated": 0, "error": 3}"#;
        assert_eq!(parse_result(bad), None);
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_repaired() {
        let dir = std::env::temp_dir().join(format!("ppfts_sweep_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let good = render_result(&result("a/n2/s0", true, 10));
        std::fs::write(&path, format!("{good}\n{{\"id\": \"a/n2/s1\", \"conv")).unwrap();
        let loaded = load_ledger(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].id, "a/n2/s0");
        // The file was rewritten to end on a clean line boundary.
        let repaired = std::fs::read_to_string(&path).unwrap();
        assert_eq!(repaired, format!("{good}\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_ledger_is_empty() {
        let path = std::env::temp_dir().join("ppfts_sweep_never_written.jsonl");
        assert!(load_ledger(&path).unwrap().is_empty());
    }

    #[test]
    fn summarize_groups_by_id_minus_seed() {
        let results = vec![
            result("skno/rr4/n16/o0/s0", true, 100),
            result("skno/rr4/n16/o0/s1", true, 300),
            result("skno/rr4/n16/o0/s2", false, 999),
            result("sid/ring/n16/s0", true, 50),
        ];
        let summaries = summarize(&results);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].group, "sid/ring/n16");
        let skno = &summaries[1];
        assert_eq!(skno.group, "skno/rr4/n16/o0");
        assert_eq!((skno.seeds, skno.converged), (3, 2));
        let d = skno.steps.unwrap();
        assert_eq!((d.count, d.mean, d.min), (2, 200.0, 100.0));
        let table = summary_table(&summaries);
        assert!(table.contains("skno/rr4/n16/o0"));
        assert!(table.contains("2/3"));
    }

    #[test]
    fn summarize_orders_sizes_numerically() {
        let results: Vec<JobResult> = [1024, 256, 16, 4]
            .iter()
            .map(|n| result(&format!("skno_pairing/n{n}/o0/s0"), true, 10))
            .collect();
        let groups: Vec<String> = summarize(&results).into_iter().map(|s| s.group).collect();
        assert_eq!(
            groups,
            [
                "skno_pairing/n4/o0",
                "skno_pairing/n16/o0",
                "skno_pairing/n256/o0",
                "skno_pairing/n1024/o0"
            ]
        );
    }

    #[test]
    fn per_sim_is_the_mean_ratio_over_converged_seeds() {
        let mut half = result("x/n2/s1", true, 48);
        half.simulated = 2;
        let results = vec![
            result("x/n2/s0", true, 32),
            half,
            result("x/n2/s2", false, 999),
        ];
        let s = &summarize(&results)[0];
        // (32/16 + 48/2) / 2 converged seeds.
        assert_eq!(s.per_simulated, Some(13.0));
        assert!(summary_table(&summarize(&results)).contains("13.00"));
    }

    #[test]
    fn summarize_counts_errors_apart_from_budget_misses() {
        let results = vec![
            result("x/n2/s0", true, 7),
            result("x/n2/s1", false, 50),
            errored("x/n2/s2"),
        ];
        let s = &summarize(&results)[0];
        assert_eq!((s.seeds, s.converged, s.errors), (3, 1, 1));
        assert_eq!(s.steps.unwrap().count, 1, "errors add no step sample");
        let table = summary_table(&summarize(&results));
        assert!(table.contains(" 1/3  |   1 |"), "{table}");
    }

    #[test]
    fn errored_jobs_are_recorded_and_not_rerun_on_resume() {
        let dir = std::env::temp_dir().join(format!("ppfts_sweep_err_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let manifest = crate::manifest::expand(
            r#"{"name": "e", "seeds": 1, "budget": 1000, "grids": [
                {"family": "epidemic", "topology": "complete", "n": 4}
            ]}"#,
        )
        .unwrap();
        let id = &manifest.jobs[0].id;
        std::fs::write(&path, format!("{}\n", render_result(&errored(id)))).unwrap();
        let report = run_sweep(&manifest, &path, 1, None, None).unwrap();
        assert_eq!((report.skipped, report.ran, report.errors), (1, 0, 0));
        assert!(verify(&manifest, &path).unwrap().is_complete());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summarize_handles_groups_with_no_convergence() {
        let summaries = summarize(&[result("x/n2/s0", false, 7)]);
        assert_eq!(summaries[0].steps, None);
        assert!(summary_table(&summaries).contains('-'));
    }
}
