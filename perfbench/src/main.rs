//! The benchmark's command line.
//!
//! ```text
//! ppfts-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on the untraced loops;
//! `--trace 1` runs the untraced and the traced loops and the ladder
//! rungs and reports the per-layer metrics. The last line of standard
//! output is the JSON result. `--setup-probe` (internal) sets up the
//! workload once in a fresh process and prints the time it took.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use ppfts_engine::{BoundedStrategy, NoOmissions, RateStrategy};
use ppfts_perfbench::ladder::{self, median, Sampler};
use ppfts_perfbench::report::{self, Metric, Provenance};
use ppfts_perfbench::trace::{self, Layer};
use ppfts_perfbench::{
    run_round, Mode, Prepared, Round, Workload, EPOCH_N, EPOCH_RATE, SKNO_O, SKNO_RATE,
};
use ppfts_population::{dist, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Fresh-process set-ups per run; `setup_s` is their median.
const SETUP_PROBES: usize = 15;

/// Most worker threads of the load (fewer when fewer CPUs are available).
const MAX_WORKERS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
    setup_probe: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: ppfts-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        workers: report::available_cpus().min(MAX_WORKERS),
        setup_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        println!("setup_s {}", setup_once(&args));
        return ExitCode::SUCCESS;
    }
    match if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    } {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One cold set-up of the workload's whole seed set: graph generation,
/// then per seed the initial configuration, `build()` and the first
/// interaction (which builds the epoch-length table on the epoch path),
/// plus the ln-factorial table the epoch samplers read.
fn setup_once(args: &Args) -> f64 {
    let seeds = args
        .workload
        .seed_set(args.seed, args.workload.seed_count(args.seconds));
    let start = Instant::now();
    let prepared = Prepared::new(args.workload);
    if args.workload == Workload::EpidemicEpoch {
        // A mode-centred binomial draw reads (and so builds) the lazily
        // initialized ln-factorial table.
        let mut rng = SmallRng::seed_from_u64(args.seed);
        std::hint::black_box(dist::binomial(1000, 0.5, &mut rng));
    }
    for &seed in &seeds {
        prepared.setup_one(seed);
    }
    start.elapsed().as_secs_f64()
}

/// Runs [`SETUP_PROBES`] set-ups, each in a fresh child process so lazy
/// process-wide tables are rebuilt every time; returns their times.
fn setup_probes(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output()
                .map_err(|e| format!("setup probe: {e}"))?;
            if !out.status.success() {
                return Err(format!("setup probe failed: {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .find_map(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or_else(|| "setup probe printed no time".to_string())
        })
        .collect()
}

/// Runs `seeds` through `mode` on the workers and prints the round's
/// digest.
fn round(prepared: &Prepared, seeds: &[u64], workers: usize, mode: Mode) -> Round {
    let round = run_round(prepared, seeds, workers, mode);
    println!(
        "round ({mode:?}): {} seeds in {:.3} s on {} workers, digest {:016x}",
        round.runs.len(),
        round.wall_s,
        round.workers,
        round.digest()
    );
    round
}

/// Seeds attempted and failed, and whether every output check passed.
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    fn of(round: &Round) -> Tally {
        let mut t = Tally {
            attempted: 0,
            failed: 0,
            correct: true,
        };
        for run in &round.runs {
            t.attempted += 1;
            if !run.ok() {
                t.failed += 1;
                println!(
                    "FAILED seed {}: converged={} steps={} error={:?} panicked={} mismatch={:?}",
                    run.seed, run.converged, run.steps, run.error, run.panicked, run.mismatch
                );
            }
            t.correct &= run.mismatch.is_none();
        }
        t
    }
}

/// Engine interactions ÷ summed per-seed busy time.
fn interactions_per_s(round: &Round) -> f64 {
    let steps: u64 = round.runs.iter().map(|r| r.steps).sum();
    let busy: f64 = round.runs.iter().map(|r| r.busy_s).sum();
    steps as f64 / busy
}

fn header(args: &Args, seeds: &[u64]) {
    println!("# provenance {}", Provenance::collect(args.workers).json());
    println!(
        "# workload {} seed {} seconds {} trace {} seed set {}..={} ({} seeds)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        seeds[0],
        seeds[seeds.len() - 1],
        seeds.len()
    );
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<32} {:>18.6} {:<12} {}", m.name, m.value, m.unit, m.note);
    }
}

fn untraced(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let seeds = w.seed_set(args.seed, w.seed_count(args.seconds));
    header(args, &seeds);
    let probes = setup_probes(args)?;
    let prepared = Prepared::new(w);
    let load = round(&prepared, &seeds, args.workers, Mode::Untraced);
    println!("digest {} {:016x}", w.name(), load.digest());
    let t = Tally::of(&load);
    let busy: Vec<f64> = load.runs.iter().map(|r| r.busy_s).collect();
    let steps: Vec<f64> = load.runs.iter().map(|r| r.steps as f64).collect();
    let metrics = vec![
        Metric::new("setup_s", median(&probes), "s")
            .note(format!("median of {} fresh-process set-ups", probes.len())),
        Metric::new("wall_s", load.wall_s, "s").note(format!(
            "{} seeds on {} workers",
            seeds.len(),
            load.workers
        )),
        Metric::new("run_s_p50", median(&busy), "s").note(format!("n = {}", busy.len())),
        Metric::new("interactions_per_s", interactions_per_s(&load), "1/s"),
        Metric::new("sim_steps_p50", median(&steps), "interactions")
            .note(format!("n = {}", steps.len())),
        Metric::new(
            "converged_frac",
            (t.attempted - t.failed) as f64 / t.attempted as f64,
            "frac",
        )
        .note(format!("{}/{}", t.attempted - t.failed, t.attempted)),
        Metric::new("peak_rss_mib", report::peak_rss_mib(), "MiB"),
    ];
    print_metrics(&metrics);
    println!(
        "{}",
        report::result_json(t.correct, t.attempted, t.failed, &metrics)
    );
    Ok(())
}

/// Nearest-rank percentile of a non-empty sample.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn traced(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let all = w.seed_set(args.seed, w.seed_count(args.seconds));
    let seeds = &all[..all.len().min(w.traced_seed_cap())];
    header(args, seeds);
    let prepared = Prepared::new(w);
    let plain = round(&prepared, seeds, args.workers, Mode::Untraced);
    let traced = round(&prepared, seeds, args.workers, Mode::Traced);
    println!("digest {} {:016x}", w.name(), plain.digest());
    let mut t = Tally::of(&plain);
    let tt = Tally::of(&traced);
    t.attempted += tt.attempted;
    t.failed += tt.failed;
    t.correct &= tt.correct;
    // Both dense loops stop at the same step of every seed, so their
    // digests must agree; the traced epoch loop stops at coarser
    // boundaries by design.
    if w != Workload::EpidemicEpoch && traced.digest() != plain.digest() {
        println!("MISMATCH: traced and untraced loops simulated different runs");
        t.correct = false;
    }

    // Spans: per-layer totals, and the per-call cost of the step layer.
    let runs = &traced.runs;
    let totals = trace::layer_totals(runs.iter().map(|r| r.spans.as_slice()));
    let total = |layer: Layer| {
        totals
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    };
    let step_layer = if w == Workload::EpidemicEpoch {
        Layer::RunEpochs
    } else {
        Layer::RunBatched
    };
    let per_step: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.layer == step_layer && s.work > 0)
        .map(|s| s.dur_ns() as f64 / s.work as f64)
        .collect();
    let step = total(step_layer);
    let step_mean = step.total_ns as f64 / step.work as f64;
    let builds: Vec<f64> = runs.iter().map(|r| r.build_s).collect();
    let predicate = total(Layer::Predicate);
    let stats = runs
        .iter()
        .fold(ppfts_engine::RunStats::default(), |mut acc, r| {
            acc.merge(&r.stats);
            acc
        });
    let errors = runs.iter().filter(|r| r.error.is_some()).count();
    let omissive: u64 = runs.iter().map(|r| r.stats.omissive_steps).sum();
    // Ladder rungs.
    let seed = args.seed;
    let rng_ns = ladder::rng_ns(seed);
    let graph = match &prepared.topology {
        Some(t) => t.clone(),
        None => Topology::complete(EPOCH_N).expect("n ≥ 2"),
    };
    let arc_ns = ladder::arc_draw_ns(&graph, seed);
    let params = ladder::epoch_params(seed, 4096);
    let binomial_ns = ladder::sampler_ns(Sampler::Binomial, &params, seed);
    let hyper_ns = ladder::sampler_ns(Sampler::Hypergeometric, &params, seed);
    let mvhg_ns = ladder::sampler_ns(Sampler::Mvhg, &params, seed);
    let adversary_ns = match w {
        Workload::SknoOmission => {
            ladder::adversary_ns(|| BoundedStrategy::new(SKNO_RATE, u64::from(SKNO_O)), seed)
        }
        Workload::SidSparse => ladder::adversary_ns(|| NoOmissions, seed),
        Workload::EpidemicEpoch => ladder::adversary_ns(|| RateStrategy::new(EPOCH_RATE), seed),
    };
    let skno = ladder::skno_rung(seeds[0]);
    let sid_graph = match w {
        Workload::SidSparse => graph.clone(),
        _ => Prepared::new(Workload::SidSparse)
            .topology
            .expect("the SID workload has a graph"),
    };
    let sid_hook_ns = ladder::sid_hook_ns(&sid_graph, seeds[0]);
    let epoch_ns = if w == Workload::EpidemicEpoch {
        step_mean
    } else {
        ladder::epoch_interaction_ns(seeds[0])
    };
    let runner_self = match w {
        Workload::SknoOmission => step_mean - (arc_ns + adversary_ns + skno.hook_ns),
        Workload::SidSparse => step_mean - (arc_ns + adversary_ns + sid_hook_ns),
        // The epoch path draws no arcs, consults no per-step adversary
        // and runs no simulator hook: the whole step is runner work.
        Workload::EpidemicEpoch => step_mean,
    };
    // Simulator pressure: per-seed peaks of the traced seeds on the SKnO
    // workload (median over seeds), the SKnO rung's peak elsewhere.
    let (pending, stall) = if w == Workload::SknoOmission {
        let pending: Vec<f64> = runs
            .iter()
            .map(|r| r.pressure_peak.pending_agents as f64)
            .collect();
        let stall: Vec<f64> = runs
            .iter()
            .map(|r| r.pressure_peak.stall_depth as f64)
            .collect();
        (median(&pending), median(&stall))
    } else {
        (
            skno.pressure_peak.pending_agents as f64,
            skno.pressure_peak.stall_depth as f64,
        )
    };
    let plain_ips = interactions_per_s(&plain);
    let traced_ips = interactions_per_s(&traced);

    let metrics = vec![
        Metric::new("population.arc_draw_ns", arc_ns, "ns"),
        Metric::new("population.binomial_ns", binomial_ns, "ns"),
        Metric::new("population.hypergeometric_ns", hyper_ns, "ns"),
        Metric::new("population.mvhg_ns", mvhg_ns, "ns"),
        Metric::new("engine.rng_ns", rng_ns, "ns"),
        Metric::new("engine.build_s", median(&builds), "s").note(format!("n = {}", builds.len())),
        Metric::new("engine.adversary_ns", adversary_ns, "ns"),
        Metric::new(
            "engine.batch_step_ns_p50",
            percentile(&per_step, 0.50),
            "ns",
        )
        .note(format!("n = {} calls", per_step.len())),
        Metric::new(
            "engine.batch_step_ns_p99",
            percentile(&per_step, 0.99),
            "ns",
        ),
        Metric::new(
            "engine.predicate_ns",
            predicate.total_ns as f64 / predicate.count.max(1) as f64,
            "ns",
        )
        .note(format!("n = {}", predicate.count)),
        Metric::new("engine.runner_self_ns", runner_self, "ns"),
        Metric::new("engine.epoch_interaction_ns", epoch_ns, "ns"),
        Metric::new("engine.seed_idle_frac", plain.idle_frac(), "frac"),
        Metric::new(
            "engine.changed_frac",
            stats.changed_steps as f64 / stats.steps.max(1) as f64,
            "frac",
        ),
        Metric::new("engine.omissive_steps", omissive as f64, "count"),
        Metric::new("engine.errors", errors as f64, "count"),
        Metric::new("core.skno_hook_ns", skno.hook_ns, "ns"),
        Metric::new("core.sid_hook_ns", sid_hook_ns, "ns"),
        Metric::new("core.pending_peak", pending, "count"),
        Metric::new("core.stall_depth_peak", stall, "count"),
        Metric::new(
            "bench.trace_overhead_frac",
            1.0 - traced_ips / plain_ips,
            "frac",
        )
        .note(format!(
            "traced {traced_ips:.4e}/s vs untraced {plain_ips:.4e}/s"
        )),
    ];

    println!(
        "{:<24} {:>9} {:>14} {:>14} {:>16}",
        "span", "count", "total_ms", "self_ms", "interactions"
    );
    for (layer, t) in &totals {
        if t.count > 0 {
            println!(
                "{:<24} {:>9} {:>14.3} {:>14.3} {:>16}",
                layer.name(),
                t.count,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6,
                t.work
            );
        }
    }
    print_metrics(&metrics);
    let out = PathBuf::from(".bench_out").join(format!("spans-{}.tsv", w.name()));
    trace::write_tsv(&out, runs.iter().map(|r| (r.seed, r.spans.as_slice())))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("spans written to {}", out.display());
    println!(
        "{}",
        report::result_json(t.correct, t.attempted, t.failed, &metrics)
    );
    Ok(())
}
