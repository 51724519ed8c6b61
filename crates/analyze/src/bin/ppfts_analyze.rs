//! The static-analysis gate.
//!
//! Runs the `ppfts-analyze` suite over the protocol library and the
//! simulator embeddings, printing a findings table and the E14
//! verification grid.
//!
//! Usage: `ppfts_analyze [--smoke] [CHECK_ID ...]`
//!
//! With no ids, the whole suite runs. `--smoke` restricts to the fast
//! count-space checks (skipping the dense simulator product spaces): the
//! [`SUITE`] entries marked `smoke`.
//! Exit-code contract (shared with `bench_gate`): **0** clean, **1**
//! error-severity findings, **2** usage error (unknown id or flag).

use std::process::ExitCode;

use ppfts_analyze::{grid_table, run_suite, Report, Severity, SUITE};

fn usage() {
    eprintln!("usage: ppfts_analyze [--smoke] [CHECK_ID ...]");
    eprintln!("known checks:");
    for check in SUITE {
        eprintln!("  {:<22} {}", check.id, check.title);
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut ids: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("ppfts_analyze: unknown flag `{flag}`");
                usage();
                return ExitCode::from(2);
            }
            id => ids.push(id.to_lowercase()),
        }
    }

    let mut selected: Vec<&str> = Vec::new();
    for id in &ids {
        match SUITE.iter().find(|check| check.id == id) {
            Some(check) if check.smoke || !smoke => selected.push(check.id),
            Some(_) => {}
            None => {
                eprintln!("ppfts_analyze: unknown check `{id}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    if ids.is_empty() {
        selected = SUITE
            .iter()
            .filter(|check| check.smoke || !smoke)
            .map(|check| check.id)
            .collect();
    }
    // `run_suite` reads no ids as the whole suite; here, none is left
    // only when `--smoke` dropped every id given.
    let (report, grid) = if selected.is_empty() {
        (Report::new(), Vec::new())
    } else {
        run_suite(&selected)
    };

    println!("# ppfts_analyze");
    println!();
    if report.findings().is_empty() {
        println!("No findings.");
    } else {
        println!("{}", report.table());
    }
    println!("## Verification grid (E14)");
    println!();
    println!("{}", grid_table(&grid));
    println!(
        "{} error(s), {} warning(s), {} note(s).",
        report.count(Severity::Error),
        report.count(Severity::Warning),
        report.count(Severity::Note)
    );
    report.exit_code()
}
