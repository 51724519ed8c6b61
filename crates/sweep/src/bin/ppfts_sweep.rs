//! CLI for manifest-driven experiment sweeps.
//!
//! ```text
//! ppfts_sweep --manifest M.json --out runs.jsonl [--threads N] [--max-jobs K]
//! ppfts_sweep --manifest M.json --list
//! ppfts_sweep --manifest M.json --out runs.jsonl --verify
//! ppfts_sweep --manifest M.json --out runs.jsonl --summarize
//! ```
//!
//! Exit codes: `0` success (for `--verify`: ledger complete; for a run:
//! every attempted job recorded), `1` incomplete or failed jobs, `2`
//! usage or manifest errors.

use std::path::PathBuf;
use std::process::ExitCode;

use ppfts_sweep::{expand, load_ledger, run_sweep, summarize, summary_table, verify};

struct Args {
    manifest: PathBuf,
    out: Option<PathBuf>,
    threads: usize,
    max_jobs: Option<usize>,
    mode: Mode,
}

#[derive(PartialEq, Eq)]
enum Mode {
    Run,
    List,
    Verify,
    Summarize,
}

const USAGE: &str = "\
usage: ppfts_sweep --manifest <file> [options] [mode]

modes (default: run the sweep)
  --list       print the expanded job ids (no --out needed)
  --verify     check the ledger covers every manifest job; exit 1 if not
  --summarize  aggregate the ledger into a per-grid convergence table

options
  --out <ledger.jsonl>  checkpoint ledger (required for run/verify/
                        summarize; finished jobs are skipped on re-run)
  --threads <n>         worker threads                 [default: cores]
  --max-jobs <k>        stop after k jobs this invocation

exit codes: 0 success (verify: ledger complete; run: every attempted
job recorded), 1 incomplete or failed jobs, 2 usage or manifest errors";

fn parse_args() -> Result<Args, String> {
    let mut manifest = None;
    let mut out = None;
    let mut threads = ppfts_sweep::workloads::workers();
    let mut max_jobs = None;
    let mut mode = Mode::Run;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--manifest" => {
                manifest = Some(PathBuf::from(argv.next().ok_or("--manifest needs a path")?));
            }
            "--out" => out = Some(PathBuf::from(argv.next().ok_or("--out needs a path")?)),
            "--threads" => {
                threads = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &usize| t > 0)
                    .ok_or("--threads needs a positive integer")?;
            }
            "--max-jobs" => {
                max_jobs = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-jobs needs an integer")?,
                );
            }
            "--list" => mode = Mode::List,
            "--verify" => mode = Mode::Verify,
            "--summarize" => mode = Mode::Summarize,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        manifest: manifest.ok_or("--manifest is required")?,
        out,
        threads,
        max_jobs,
        mode,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let document = match std::fs::read_to_string(&args.manifest) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.manifest.display());
            return ExitCode::from(2);
        }
    };
    let manifest = match expand(&document) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {}: {e}", args.manifest.display());
            return ExitCode::from(2);
        }
    };

    if args.mode == Mode::List {
        for job in &manifest.jobs {
            println!("{}", job.id);
        }
        eprintln!("{} jobs ({})", manifest.jobs.len(), manifest.name);
        return ExitCode::SUCCESS;
    }

    let Some(out) = args.out else {
        eprintln!("error: --out is required for this mode\n{USAGE}");
        return ExitCode::from(2);
    };

    match args.mode {
        Mode::Verify => {
            let report = match verify(&manifest, &out) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: reading {}: {e}", out.display());
                    return ExitCode::from(2);
                }
            };
            println!(
                "{}: {}/{} jobs recorded, {} missing, {} unknown, {} duplicate",
                manifest.name,
                report.recorded,
                report.expected,
                report.missing.len(),
                report.unknown.len(),
                report.duplicates.len()
            );
            for id in report.missing.iter().take(10) {
                println!("  missing: {id}");
            }
            if report.is_complete() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Mode::Summarize => {
            let results = match load_ledger(&out) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: reading {}: {e}", out.display());
                    return ExitCode::from(2);
                }
            };
            print!("{}", summary_table(&summarize(&results)));
            ExitCode::SUCCESS
        }
        Mode::Run | Mode::List => {
            let progress = |done: usize, total: usize| {
                eprintln!("[{}] {done}/{total} jobs", manifest.name);
            };
            let report = match run_sweep(
                &manifest,
                &out,
                args.threads,
                args.max_jobs,
                Some(&progress),
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: writing {}: {e}", out.display());
                    return ExitCode::from(2);
                }
            };
            println!(
                "{}: ran {} (skipped {}, failed {}, engine errors {}), {} of {} remaining",
                manifest.name,
                report.ran,
                report.skipped,
                report.failed,
                report.errors,
                report.remaining,
                report.total
            );
            if report.failed > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}
