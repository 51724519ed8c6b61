//! Runs the experiment suite (DESIGN.md E1–E18) and prints the
//! paper-claim-vs-measured tables recorded in EXPERIMENTS.md.
//!
//! Convergence measurements (E5, E7, E8) run on the engine's batched
//! `StatsOnly` path with their predicates wrapped in the `stably`
//! combinator (see `ppfts_bench`), so the tables no longer stop on
//! transient mid-handshake projections and step counts are batch aligned.
//!
//! Run with: `cargo run --release -p ppfts-bench --bin experiments`
//!
//! Positional arguments select experiments by id (`experiments e12 e13`
//! runs only those rows; no arguments runs everything), and `--smoke`
//! shrinks sizes, seeds and budgets to CI-smoke scale.

use ppfts_bench::{
    e13_families, measure_epidemic_epoch, measure_epidemic_giant, measure_epidemic_giant_dense,
    measure_epidemic_topology, measure_named, measure_naming_phase, measure_sid,
    measure_sid_epidemic_graphical, measure_skno, measure_skno_epidemic_graphical,
    skno_epidemic_graphical_run_with, skno_peak_tokens, E13_RR_DEGREE, E13_TOPOLOGY_SEED,
};
use ppfts_core::{fastest_transition_time, Sid, SidState, Skno, SknoState};
use ppfts_engine::hierarchy::{direct_inclusions, includes};
use ppfts_engine::{Model, OneWayModel};
use ppfts_fuzz::{FuzzConfig, FuzzReport, FuzzTarget};
use ppfts_population::Topology;
use ppfts_protocols::{Pairing, PairingState};
use ppfts_verify::{lemma1_attack, thm32_attack, AttackOutcome, Optimist, OptimistState};

fn header(id: &str, title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{id} — {title}");
    println!("{}", "=".repeat(72));
}

/// Prints the banner for experiment `id`, titled from
/// [`Selection::KNOWN`] — the single source `--help` also prints.
fn section(id: &str) {
    let title = Selection::KNOWN
        .iter()
        .find(|(known, _)| *known == id)
        .expect("section ids are registered in Selection::KNOWN")
        .1;
    header(&id.to_ascii_uppercase(), title);
}

/// CLI selection: which experiments to run, at which scale.
struct Selection {
    ids: Vec<String>,
    smoke: bool,
}

impl Selection {
    /// The experiment ids this binary knows, with their table titles
    /// (the same titles `header` prints, kept in one place so `--help`
    /// cannot drift from the sections).
    const KNOWN: [(&'static str, &'static str); 16] = [
        ("e1", "Figure 1: hierarchy arrows and closure"),
        (
            "e2",
            "Lemma 1 / Theorem 3.1: FTT and the omission attack on SKnO (I3)",
        ),
        (
            "e3",
            "Theorem 3.2: the weak models I1/I2 fall without omissions",
        ),
        ("e4", "Theorem 3.3: graceful degradation threshold ≤ 1"),
        (
            "e5",
            "Theorem 4.1: SKnO convergence on Pairing (I3, adversary at full budget)",
        ),
        (
            "e6",
            "Corollary 1 / Theorem 4.1: SKnO memory audit (peak tokens per agent)",
        ),
        (
            "e7",
            "Theorem 4.5: SID convergence on Pairing (IO, unique IDs)",
        ),
        (
            "e8",
            "Theorem 4.6 / Lemma 3: naming with knowledge of n, then simulation",
        ),
        (
            "e9",
            "Figure 4: run `cargo run --release -p ppfts-bench --bin figure4`",
        ),
        (
            "e10",
            "Flock-of-birds motivation: run `cargo run --example flock_of_birds`",
        ),
        (
            "e11",
            "Giant-n epidemic on the count backend (n = 10²…10⁶, Θ(n log n))",
        ),
        (
            "e12",
            "Graph-aware scheduling: epidemic broadcast by interaction topology",
        ),
        (
            "e13",
            "Graphical fault tolerance: SKnO/SID simulators on restricted graphs",
        ),
        (
            "e15",
            "Batch-epoch epidemic sweep (n = 10²…10⁹, sub-ns per interaction)",
        ),
        (
            "e17",
            "Indexed simulation hot path: RunIndex vs scan-reference wall-clock",
        ),
        (
            "e18",
            "Adversary schedule fuzzing: found-attack severity vs o and conductance",
        ),
    ];

    fn usage() -> String {
        let mut text = String::from(
            "usage: experiments [--smoke] [ids…]\n\n\
             Runs the experiment suite (no ids: everything) and prints the\n\
             tables recorded in EXPERIMENTS.md. `--smoke` shrinks sizes,\n\
             seeds and budgets to CI scale for every listed experiment.\n\nids\n",
        );
        for (id, title) in Self::KNOWN {
            text.push_str(&format!("  {id:<4} {title}\n"));
        }
        text
    }

    fn from_args() -> Self {
        let mut ids = Vec::new();
        let mut smoke = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--help" | "-h" => {
                    println!("{}", Self::usage());
                    std::process::exit(0);
                }
                id if id.starts_with('-') => {
                    eprintln!("unknown flag {id}; usage: experiments [--smoke] [e1 e2 …]");
                    std::process::exit(2);
                }
                id => {
                    let id = id.to_ascii_lowercase();
                    if !Self::KNOWN.iter().any(|(known, _)| *known == id) {
                        let ids: Vec<&str> = Self::KNOWN.iter().map(|(id, _)| *id).collect();
                        eprintln!(
                            "unknown experiment id `{id}`; known ids: {}",
                            ids.join(", ")
                        );
                        std::process::exit(2);
                    }
                    ids.push(id);
                }
            }
        }
        Selection { ids, smoke }
    }

    fn wants(&self, id: &str) -> bool {
        self.ids.is_empty() || self.ids.iter().any(|want| want == id)
    }
}

fn main() {
    let selection = Selection::from_args();
    let seeds = if selection.smoke { 2u64 } else { 10u64 };

    if selection.wants("e1") {
        section("e1");
        println!(
            "{} direct arrows; closure checks:",
            direct_inclusions().len()
        );
        let io = Model::OneWay(OneWayModel::Io);
        let tw = Model::TwoWay(ppfts_engine::TwoWayModel::Tw);
        println!("  includes(IO, TW) = {}", includes(io, tw));
        println!("  includes(TW, IO) = {}", includes(tw, io));
        println!("  (full matrix: cargo run --example model_hierarchy)");
    }

    if selection.wants("e2") {
        section("e2");
        println!(
            "{:>3} | {:>4} | {:>9} | {:>9} | {:>9} | verdict",
            "o", "FTT", "producers", "paired", "omissions"
        );
        for o in 1..=3u32 {
            let report = lemma1_attack(
                OneWayModel::I3,
                Skno::new(Pairing, o),
                SknoState::new,
                128,
                512,
            )
            .expect("attack builds");
            let AttackOutcome::SafetyViolated { paired, .. } = report.outcome else {
                panic!("expected violation")
            };
            println!(
                "{:>3} | {:>4} | {:>9} | {:>9} | {:>9} | safety violated (paper: ≥ t+1 = {})",
                o,
                report.ftt,
                report.producers,
                paired,
                report.omissions_in_run,
                report.ftt + 1,
            );
        }
    }

    if selection.wants("e3") {
        section("e3");
        for m in [OneWayModel::I1, OneWayModel::I2] {
            let report = thm32_attack(m, Optimist::new(Pairing), OptimistState::new, 64, 256)
                .expect("attack builds");
            println!(
                "{m}: NO1-resilient Optimist broken with {} omissions in the run → {:?}",
                report.omissions_in_run, report.outcome
            );
        }
    }

    if selection.wants("e4") {
        section("e4");
        let deg = ppfts_verify::degradation_report(
            OneWayModel::I3,
            Skno::new(Pairing, 1),
            SknoState::new,
            128,
            512,
        )
        .expect("attack builds");
        println!(
            "SKnO(o=1): tolerates one omission = {}; beyond the threshold: {:?}",
            deg.tolerates_one_omission, deg.beyond_threshold
        );
        println!("Theorem 3.3 corroborated: {}", deg.corroborates_thm33());
    }

    if selection.wants("e5") {
        section("e5");
        println!(
            "    o | {:>5} | {:>11} | {:>12} | {:>10}",
            "n", "converged", "mean steps", "per-sim"
        );
        let sizes: &[usize] = if selection.smoke {
            &[4, 8]
        } else {
            &[4, 8, 16]
        };
        for o in [0u32, 1, 2] {
            for &n in sizes {
                let c = measure_skno(n, o, seeds, 30_000_000);
                println!("{:>5} | {}", o, c.row());
            }
        }
    }

    if selection.wants("e6") {
        section("e6");
        println!(
            "{:>3} | {:>5} | {:>12} | bound Θ((o+1)·|Q|·log n): tokens ∝ (o+1)",
            "o", "n", "peak tokens"
        );
        for o in [0u32, 1, 2, 3] {
            for n in [4usize, 8] {
                let peak = skno_peak_tokens(n, o, 50_000, 11);
                println!("{o:>3} | {n:>5} | {peak:>12}");
            }
        }
    }

    if selection.wants("e7") {
        section("e7");
        println!(
            "{:>5} | {:>11} | {:>12} | {:>10}",
            "n", "converged", "mean steps", "per-sim"
        );
        let sizes: &[usize] = if selection.smoke {
            &[4, 8]
        } else {
            &[4, 8, 16, 32, 64]
        };
        for &n in sizes {
            let c = measure_sid(n, seeds, 30_000_000);
            println!("{}", c.row());
        }
        let ftt = fastest_transition_time(
            OneWayModel::Io,
            &Sid::new(Pairing),
            &Pairing,
            SidState::new(0, PairingState::Consumer),
            SidState::new(1, PairingState::Producer),
            16,
        )
        .expect("SID transitions");
        println!(
            "measured FTT(SID) = {} (paper's handshake: pair, lock, complete)",
            ftt.steps
        );
    }

    if selection.wants("e8") {
        section("e8");
        println!("naming phase only:");
        println!(
            "{:>5} | {:>11} | {:>12} | {:>10}",
            "n", "converged", "mean steps", "(n/a)"
        );
        let sizes: &[usize] = if selection.smoke {
            &[4, 8]
        } else {
            &[4, 8, 16, 32]
        };
        for &n in sizes {
            let c = measure_naming_phase(n, seeds, 30_000_000);
            println!("{}", c.row());
        }
        println!("naming + simulated Pairing:");
        let sizes: &[usize] = if selection.smoke { &[4] } else { &[4, 8, 16] };
        for &n in sizes {
            let c = measure_named(n, seeds, 60_000_000);
            println!("{}", c.row());
        }
    }

    if selection.wants("e9") {
        section("e9");
        println!("(separate binary; every cell is execution-backed)");
    }

    if selection.wants("e10") {
        section("e10");
        println!("(threshold detection under omissive I3 with SKnO)");
    }

    if selection.wants("e11") {
        section("e11");
        println!("count backend (CountConfiguration — O(1) memory in n):");
        println!(
            "{:>7} | {:>11} | {:>12} | {:>10}",
            "n", "converged", "mean steps", "per-agent"
        );
        let sizes: &[usize] = if selection.smoke {
            &[100, 1_000]
        } else {
            &[100, 1_000, 10_000, 100_000, 1_000_000]
        };
        for &n in sizes {
            let c = measure_epidemic_giant(n, if n <= 10_000 { seeds } else { 3 }, 400_000_000);
            println!("{}", c.row());
        }
        println!("dense backend (same workload, O(n) memory + O(n) boundary predicate):");
        let sizes: &[usize] = if selection.smoke {
            &[100, 1_000]
        } else {
            &[100, 1_000, 10_000, 100_000]
        };
        for &n in sizes {
            let c =
                measure_epidemic_giant_dense(n, if n <= 10_000 { seeds } else { 3 }, 400_000_000);
            println!("{}", c.row());
        }
    }

    if selection.wants("e12") {
        section("e12");
        println!(
            "{:>8} | {:>7} | {:>11} | {:>12} | {:>10}",
            "family", "n", "converged", "mean steps", "per-agent"
        );
        let sizes: &[usize] = if selection.smoke {
            &[1_000]
        } else {
            &[1_000, 10_000]
        };
        for &n in sizes {
            let budget = (n as u64) * (n as u64) * 4;
            for (family, make) in [
                (
                    "ring",
                    Box::new(move || Topology::ring(n).unwrap())
                        as Box<dyn Fn() -> Topology + Sync>,
                ),
                (
                    "rr4",
                    Box::new(move || Topology::random_regular(n, 4, 12).unwrap()),
                ),
                ("complete", Box::new(move || Topology::complete(n).unwrap())),
            ] {
                let c =
                    measure_epidemic_topology(&make, if n <= 1_000 { seeds } else { 3 }, budget);
                println!("{family:>8} | {}", c.row());
            }
        }
        println!(
            "(edge-draw throughput across n = 10³…10⁵: BENCH_RESULTS.json, e12_topology/draws_*)"
        );
    }

    if selection.wants("e13") {
        section("e13");
        let sizes: &[usize] = if selection.smoke { &[64] } else { &[64, 256] };
        let budget: u64 = if selection.smoke {
            4_000_000
        } else {
            48_000_000
        };
        let e13_seeds = if selection.smoke { 1 } else { 3 };
        println!(
            "graph instrumentation (Φ = conductance, gap = lazy-walk spectral gap; \
             Cheeger: gap/2 ≤ Φ ≤ √(2·gap)):"
        );
        println!("{:>10} | {:>5} | {:>9} | {:>9}", "family", "n", "Φ", "gap");
        for &n in sizes {
            for (family, t) in e13_families(n) {
                println!(
                    "{:>10} | {:>5} | {:>9.4} | {:>9.4}",
                    family,
                    n,
                    t.conductance(),
                    t.spectral_profile(4_000).spectral_gap
                );
            }
        }
        println!(
            "\nsimulated epidemic through the graphical simulators \
             (budget {budget} steps/seed; 0-converged rows exhausted it):"
        );
        println!(
            "{:>14} | {:>10} | {:>5} | {:>11} | {:>12} | {:>10}",
            "simulator", "family", "n", "converged", "mean steps", "per-agent"
        );
        for &n in sizes {
            for (family, t) in e13_families(n) {
                let c = measure_sid_epidemic_graphical(&t, e13_seeds, budget);
                println!("{:>14} | {:>10} | {}", "sid", family, c.row());
                for o in [0u32, 1, 2] {
                    let c = measure_skno_epidemic_graphical(&t, o, 0.02, e13_seeds, budget);
                    println!(
                        "{:>14} | {:>10} | {}",
                        format!("skno o={o}"),
                        family,
                        c.row()
                    );
                }
            }
        }
        println!(
            "(the committed n = 64…1024 grid incl. wall-clock: BENCH_RESULTS.json, \
             e13_graphical_ftt/*)"
        );
    }

    if selection.wants("e15") {
        section("e15");
        println!("epoch path (Epochs — O(d²) per ≈0.63·√n-step epoch):");
        println!(
            "{:>7} | {:>11} | {:>12} | {:>10}",
            "n", "converged", "mean steps", "per-agent"
        );
        let sizes: &[usize] = if selection.smoke {
            &[1_000, 100_000]
        } else {
            &[
                100,
                1_000,
                10_000,
                100_000,
                1_000_000,
                10_000_000,
                100_000_000,
                1_000_000_000,
            ]
        };
        for &n in sizes {
            let budget = (n as u64).saturating_mul(400);
            let c = measure_epidemic_epoch(n, if n <= 10_000 { seeds } else { 3 }, budget);
            println!("{}", c.row());
        }
        println!(
            "(wall-clock per seed across the sweep, plus the per-interaction \
             interleaved↔epoch ratio at n = 10⁶: BENCH_RESULTS.json, e15_epoch/* \
             and e11_giant/per_interaction_*)"
        );
    }

    if selection.wants("e17") {
        section("e17");
        let (n, budget): (usize, u64) = if selection.smoke {
            (64, 2_000_000)
        } else {
            (1_024, 48_000_000)
        };
        let topology = Topology::complete(n).expect("n \u{2265} 2");
        println!(
            "graphical SKnO simulated epidemic, complete graph n = {n}, \
             budget {budget} steps, seed 0 (identical outcomes asserted):"
        );
        println!(
            "{:>4} | {:>12} | {:>12} | {:>8} | {:>12}",
            "o", "indexed", "scan-ref", "speedup", "steps"
        );
        for o in [0u32, 1, 2] {
            let start = std::time::Instant::now();
            let fast = skno_epidemic_graphical_run_with(&topology, o, 0.02, 0, budget, true)
                .expect("bounded I3 omissions stay in the model's relation");
            let fast_ms = start.elapsed().as_secs_f64() * 1e3;
            let start = std::time::Instant::now();
            let scan = skno_epidemic_graphical_run_with(&topology, o, 0.02, 0, budget, false)
                .expect("bounded I3 omissions stay in the model's relation");
            let scan_ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                fast, scan,
                "indexed and scan-path runs must agree bit-for-bit"
            );
            println!(
                "{:>4} | {:>9.2} ms | {:>9.2} ms | {:>7.2}\u{d7} | {:>12}",
                o,
                fast_ms,
                scan_ms,
                scan_ms / fast_ms,
                fast.0.steps()
            );
        }
        println!(
            "(live bit-identity A/B on one seed; the committed complete/rr4/ring \
             \u{d7} n = 256\u{2026}4096 wall-clock grid: BENCH_RESULTS.json, \
             e17_simulator_hotpath/*)"
        );
    }

    if selection.wants("e18") {
        section("e18");
        let (sizes, evals, fuzz_seeds): (&[usize], u64, u64) = if selection.smoke {
            (&[16], 6, 2)
        } else {
            (&[64, 256], 12, 2)
        };
        let fuzz_one = |topology: Topology, o_sim: u32, o: u64, steps: u64| {
            let target = FuzzTarget::new(topology, o_sim, o, (1..=fuzz_seeds).collect(), steps, 1);
            let baseline = target.baseline().iter().filter(|b| b.converged).count();
            let report = ppfts_fuzz::fuzz(
                &target,
                &FuzzConfig {
                    budget: evals,
                    rng_seed: 240,
                    corpus_cap: 8,
                },
            );
            (baseline, report)
        };
        let row = |label: &str, n: usize, steps: u64, baseline: usize, report: &FuzzReport| {
            let s = report.best.severity;
            println!(
                "{:>12} | {:>5} | {:>10} | {:>9} | {:>6} | {:>7} | {:>5} | {:>10} | {}",
                label,
                n,
                steps,
                format!("{baseline}/{fuzz_seeds}"),
                s.broken_seeds,
                s.max_pending,
                s.max_stall_depth,
                s.max_steps,
                report
                    .first_break_at
                    .map_or_else(|| "—".to_owned(), |at| format!("eval {at}")),
            );
        };
        println!(
            "control: the seeded mutant (o_sim = 0, schedule allowed 1 omission) \
             must break; the provisioned simulator must survive the same budget.\n"
        );
        println!(
            "{:>12} | {:>5} | {:>10} | {:>9} | {:>6} | {:>7} | {:>5} | {:>10} | first break",
            "cell", "n", "steps", "baseline", "broken", "pending", "stall", "max steps"
        );
        // Control pair on the smallest complete graph.
        let control_n = sizes[0].min(64);
        let control_steps: u64 = if selection.smoke { 600_000 } else { 4_000_000 };
        let complete = |n: usize| Topology::complete(n).expect("n ≥ 2");
        let (b, r) = fuzz_one(complete(control_n), 0, 1, control_steps);
        assert!(
            r.broke(),
            "seeded mutant must break (severity {:?})",
            r.best.severity
        );
        row("weakened o=1", control_n, control_steps, b, &r);
        let (b, r) = fuzz_one(complete(control_n), 1, 1, control_steps);
        assert!(!r.broke(), "provisioned SKnO must survive the smoke budget");
        row("skno o=1", control_n, control_steps, b, &r);

        if !selection.smoke {
            println!("\nseverity vs o (complete graph, provisioned o_sim = o):");
            println!(
                "{:>12} | {:>5} | {:>10} | {:>9} | {:>6} | {:>7} | {:>5} | {:>10} | first break",
                "cell", "n", "steps", "baseline", "broken", "pending", "stall", "max steps"
            );
            for &n in sizes {
                for o in [0u32, 1, 2] {
                    // E13 fault-free means: o=1 n=64 ≈ 1.2e6, o=1 n=256
                    // ≈ 1.6e7, o=2 n=64 ≈ 1.4e7; o=2 n=256 exhausts any
                    // practical budget (honest 0-baseline row). The
                    // attacked o=1 n=256 runs converge at ~3.2e7 — one
                    // omission costs ≈ 2× fault-free — so budgets below
                    // 48M mint spurious "broken" rows (budget artifact,
                    // not a stall).
                    let steps: u64 = match (o, n) {
                        (0, _) => 1_000_000,
                        (_, n) if n <= 64 => 24_000_000,
                        _ => 48_000_000,
                    };
                    let (b, r) = fuzz_one(complete(n), o, u64::from(o), steps);
                    row(&format!("complete o={o}"), n, steps, b, &r);
                }
            }
            println!("\nseverity vs conductance (o = 1, families in increasing Φ):");
            println!(
                "{:>12} | {:>5} | {:>10} | {:>9} | {:>6} | {:>7} | {:>5} | {:>10} | first break",
                "cell", "n", "steps", "baseline", "broken", "pending", "stall", "max steps"
            );
            for &n in sizes {
                let families = [
                    ("ring", Topology::ring(n).expect("n ≥ 4")),
                    (
                        "rr4",
                        Topology::random_regular(n, E13_RR_DEGREE, E13_TOPOLOGY_SEED)
                            .expect("rr4 is feasible"),
                    ),
                    ("complete", complete(n)),
                ];
                for (family, t) in families {
                    // Sparse families exhaust any budget fault-free
                    // (conductance limit), so 8M bounds their cost; the
                    // complete graph gets the true-tolerance budget.
                    let steps: u64 = match family {
                        "complete" if n > 64 => 48_000_000,
                        _ => 8_000_000,
                    };
                    let (b, r) = fuzz_one(t, 1, 1, steps);
                    row(family, n, steps, b, &r);
                }
            }
            println!(
                "\n(ring/rr4 baselines exhaust the budget fault-free — E13's \
                 conductance limit — so broken stays 0 there by construction \
                 and severity is carried by the pressure columns)"
            );
        }
    }

    println!(
        "\nAll selected experiment tables printed. EXPERIMENTS.md records the expected shapes."
    );
}
