//! Adversary schedule fuzzer CLI.
//!
//! Searches for omission-fault schedules that break graphical `SKnO`,
//! replays found genomes deterministically, and self-tests against a
//! deliberately under-provisioned simulator.
//!
//! Exit-code contract (shared with `bench_gate` and `ppfts_analyze`):
//! 0 clean (no attack found / replay survived / self-test passed),
//! 1 findings (attack found / replay broke / self-test failed),
//! 2 usage error.

use std::process::ExitCode;

use ppfts_fuzz::{fuzz, FuzzConfig, FuzzTarget, ScheduleGenome};
use ppfts_population::Topology;

const USAGE: &str = "\
usage: ppfts_fuzz [options]

modes (default: fuzz)
  --replay <genome.json>  evaluate one genome and audit its replay
  --self-test             seeded-mutant check: an under-provisioned
                          SKnO (o_sim = 0, one omission allowed) must
                          break within the budget

options
  --budget <N>      genome evaluations to spend        [default 64]
  --protocol <P>    simulated protocol: epidemic       [default epidemic]
  --topology <T>    ring | rr4 | complete              [default complete]
  --n <N>           population size                    [default 64]
  --o <O>           omission budget of the schedule
                    class AND simulator provisioning   [default 1]
  --o-sim <O>       override simulator provisioning
                    (o_sim < o under-provisions)
  --seeds <K>       run seeds per evaluation           [default 4]
  --steps <B>       per-run step budget                [default 4000000]
  --seed <S>        fuzzer RNG seed                    [default 240]
  --threads <T>     worker threads over run seeds      [default 1]
  --out <path>      write the best genome JSON here

Graphical SKnO at o >= 1 is conductance-limited (E13): on ring/grid the
fault-free baseline itself exhausts any practical budget, so broken_seeds
stays 0 there and severity is carried by the pressure fields. Raise
--steps for sparse families or o = 2 (complete n=64 o=2 needs ~2e7).

exit codes: 0 clean, 1 findings (attack found / self-test failed),
2 usage error";

/// Default per-run step budget: covers the fault-free complete-graph
/// baseline at the default n = 64 for o <= 1 (E13: mean 1.2e6 steps at
/// o = 1) with headroom for attacked runs.
const DEFAULT_STEPS: u64 = 4_000_000;

struct Options {
    budget: u64,
    topology: String,
    n: usize,
    o: u64,
    o_sim: Option<u32>,
    seeds: u64,
    steps: Option<u64>,
    seed: u64,
    threads: usize,
    out: Option<String>,
    replay: Option<String>,
    self_test: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            budget: 64,
            topology: "complete".to_owned(),
            n: 64,
            o: 1,
            o_sim: None,
            seeds: 4,
            steps: None,
            seed: 240,
            threads: 1,
            out: None,
            replay: None,
            self_test: false,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--budget" => opts.budget = parse_num(&value("--budget")?, "--budget")?,
            "--protocol" => {
                let p = value("--protocol")?;
                if p != "epidemic" {
                    return Err(format!("unsupported protocol {p:?} (only: epidemic)"));
                }
            }
            "--topology" => opts.topology = value("--topology")?,
            "--n" => opts.n = parse_num(&value("--n")?, "--n")? as usize,
            "--o" => opts.o = parse_num(&value("--o")?, "--o")?,
            "--o-sim" => {
                opts.o_sim = Some(parse_num(&value("--o-sim")?, "--o-sim")? as u32);
            }
            "--seeds" => opts.seeds = parse_num(&value("--seeds")?, "--seeds")?,
            "--steps" => opts.steps = Some(parse_num(&value("--steps")?, "--steps")?),
            "--seed" => opts.seed = parse_num(&value("--seed")?, "--seed")?,
            "--threads" => opts.threads = parse_num(&value("--threads")?, "--threads")? as usize,
            "--out" => opts.out = Some(value("--out")?),
            "--replay" => opts.replay = Some(value("--replay")?),
            "--self-test" => opts.self_test = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn parse_num(s: &str, flag: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{flag}: {s:?} is not a non-negative integer"))
}

fn build_topology(kind: &str, n: usize) -> Result<Topology, String> {
    match kind {
        "ring" => Topology::ring(n),
        "rr4" => Topology::random_regular(n, 4, 12),
        "complete" => Topology::complete(n),
        other => return Err(format!("unknown topology {other:?} (ring|rr4|complete)")),
    }
    .map_err(|e| format!("topology {kind}(n={n}): {e}"))
}

fn build_target(opts: &Options) -> Result<FuzzTarget, String> {
    let topology = build_topology(&opts.topology, opts.n)?;
    let o_sim = opts
        .o_sim
        .unwrap_or(u32::try_from(opts.o).unwrap_or(u32::MAX));
    let steps = opts.steps.unwrap_or(DEFAULT_STEPS);
    let seeds: Vec<u64> = (1..=opts.seeds).collect();
    Ok(FuzzTarget::new(
        topology,
        o_sim,
        opts.o,
        seeds,
        steps,
        opts.threads.max(1),
    ))
}

fn run_fuzz(opts: &Options) -> Result<bool, String> {
    let target = build_target(opts)?;
    let baseline_converged = target.baseline().iter().filter(|b| b.converged).count();
    println!(
        "fuzz: topology={}(n={}) o={} o_sim={} seeds={} steps={} budget={}",
        opts.topology,
        opts.n,
        opts.o,
        target.o_sim(),
        opts.seeds,
        target.step_budget(),
        opts.budget,
    );
    println!(
        "baseline: {baseline_converged}/{} seeds converge fault-free",
        target.baseline().len()
    );
    let cfg = FuzzConfig {
        budget: opts.budget,
        rng_seed: opts.seed,
        corpus_cap: 16,
    };
    let report = fuzz(&target, &cfg);
    let s = report.best.severity;
    println!(
        "best: broken_seeds={} max_pending={} max_stall_depth={} max_steps={} ({} evaluations{})",
        s.broken_seeds,
        s.max_pending,
        s.max_stall_depth,
        s.max_steps,
        report.evaluations,
        report
            .first_break_at
            .map(|at| format!(", first break at {at}"))
            .unwrap_or_default(),
    );
    if report.errored_evaluations > 0 {
        println!(
            "engine errors in {} evaluations (errored seeds are never counted broken)",
            report.errored_evaluations
        );
    }
    if let Some(path) = &opts.out {
        std::fs::write(path, report.best.genome.to_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote best genome to {path}");
    }
    if report.broke() {
        let violations = target
            .audit_replay(&report.best.genome, 1)
            .map_err(|e| format!("replay audit: engine error: {e}"))?;
        if violations.is_empty() {
            println!("replay audit: clean (attack is a faithful <= o schedule)");
        } else {
            println!("replay audit: VIOLATIONS {violations:?}");
        }
        println!("FINDING: schedule breaks SKnO within the class budget");
        println!("genome: {}", report.best.genome.to_json());
    } else {
        println!(
            "no schedule with <= {} omissions broke SKnO within budget",
            opts.o
        );
    }
    Ok(report.broke())
}

fn run_replay(opts: &Options, path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let genome = ScheduleGenome::from_json(&text).map_err(|e| e.to_string())?;
    let target = build_target(opts)?;
    let eval = target.evaluate(&genome);
    for s in &eval.seeds {
        println!(
            "seed {}: converged={} steps={} omissive={} changed={} noop={} pending={} stall_depth={}{}",
            s.seed,
            s.converged,
            s.steps,
            s.stats.omissive_steps,
            s.stats.changed_steps,
            s.stats.noop_steps,
            s.pressure.pending_agents,
            s.pressure.stall_depth,
            match (&s.error, s.broken) {
                (Some(e), _) => format!("  ERROR: {e}"),
                (None, true) => "  BROKEN".to_owned(),
                (None, false) => String::new(),
            },
        );
    }
    if let Some(s) = eval.seeds.iter().find(|s| s.error.is_some()) {
        return Err(format!("replay: seed {} ended in an engine error", s.seed));
    }
    let first_seed = eval.seeds.first().map_or(1, |s| s.seed);
    let violations = target
        .audit_replay(&genome, first_seed)
        .map_err(|e| format!("replay audit: engine error: {e}"))?;
    if violations.is_empty() {
        println!("replay audit: clean");
    } else {
        println!("replay audit: VIOLATIONS {violations:?}");
        return Ok(true);
    }
    Ok(eval.severity.is_break())
}

/// The seeded-mutant self-test: under-provision the simulator
/// (`o_sim = 0`) while allowing the schedule one omission. The fuzzer
/// must break this mutant within the (small) budget — if it cannot, the
/// search loop has lost its teeth and the job fails.
fn run_self_test(opts: &Options) -> Result<bool, String> {
    let topology = build_topology(&opts.topology, opts.n)?;
    let steps = opts.steps.unwrap_or(DEFAULT_STEPS);
    let seeds: Vec<u64> = (1..=opts.seeds).collect();
    let target = FuzzTarget::new(topology, 0, 1, seeds, steps, opts.threads.max(1));
    if !target.baseline().iter().all(|b| b.converged) {
        return Err("self-test: fault-free baseline did not converge; raise --steps".to_owned());
    }
    let cfg = FuzzConfig {
        budget: opts.budget,
        rng_seed: opts.seed,
        corpus_cap: 8,
    };
    let report = fuzz(&target, &cfg);
    if report.broke() {
        let violations = target
            .audit_replay(&report.best.genome, 1)
            .map_err(|e| format!("self-test replay: engine error: {e}"))?;
        if !violations.is_empty() {
            println!("self-test FAILED: found attack is unfaithful: {violations:?}");
            return Ok(false);
        }
        println!(
            "self-test passed: weakened SKnO (o_sim=0, 1 omission) broken at evaluation {}",
            report.first_break_at.unwrap_or(report.evaluations),
        );
        Ok(true)
    } else {
        println!(
            "self-test FAILED: weakened SKnO survived {} evaluations",
            report.evaluations
        );
        Ok(false)
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("ppfts_fuzz: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.self_test {
        run_self_test(&opts).map(|passed| !passed)
    } else if let Some(path) = opts.replay.clone() {
        run_replay(&opts, &path)
    } else {
        run_fuzz(&opts)
    };
    match result {
        Ok(finding) => ExitCode::from(u8::from(finding)),
        Err(e) => {
            eprintln!("ppfts_fuzz: {e}");
            ExitCode::from(2)
        }
    }
}
