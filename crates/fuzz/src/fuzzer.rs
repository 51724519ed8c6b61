//! The search loop.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{
    crossover, mutate, random_genome, AttackSeverity, Corpus, FuzzTarget, MutationCtx,
    ScheduleGenome, ScoredGenome,
};

/// Search-loop parameters.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Genome evaluations to spend (each evaluation runs every seed).
    pub budget: u64,
    /// Seed of the mutation RNG: the whole search is deterministic in
    /// it (and the target).
    pub rng_seed: u64,
    /// Corpus capacity.
    pub corpus_cap: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            budget: 64,
            rng_seed: 0xF0,
            corpus_cap: 16,
        }
    }
}

/// What the search found.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// The most severe genome found, with its score.
    pub best: ScoredGenome,
    /// Evaluations actually spent.
    pub evaluations: u64,
    /// Evaluation count at which the first break was found, if any.
    pub first_break_at: Option<u64>,
    /// Evaluations in which some seed's run ended in an engine error
    /// (such a seed is never counted broken).
    pub errored_evaluations: u64,
}

impl FuzzReport {
    /// Whether some genome broke at least one seed.
    #[must_use]
    pub fn broke(&self) -> bool {
        self.best.severity.is_break()
    }
}

/// Runs the feedback-guided search: seed the corpus with archetype and
/// random genomes, then mutate/cross parents picked from the severe
/// end, keeping whatever scores higher.
///
/// Deterministic in `(target, cfg)`: the same inputs reproduce the same
/// report, and the returned genome replays bit-identically through
/// [`FuzzTarget::evaluate`].
#[must_use]
pub fn fuzz(target: &FuzzTarget, cfg: &FuzzConfig) -> FuzzReport {
    let mut rng = SmallRng::seed_from_u64(cfg.rng_seed);
    let cut = target.topology().sweep_cut_vertices();
    let ctx = MutationCtx {
        max_step: target.step_budget(),
        cut_vertices: &cut,
        population: target.topology().len(),
        max_events: usize::try_from(target.o_budget())
            .unwrap_or(usize::MAX)
            .max(1),
    };
    let mut corpus = Corpus::new(cfg.corpus_cap);
    let mut report = FuzzReport {
        best: ScoredGenome {
            genome: ScheduleGenome::empty(),
            severity: AttackSeverity::default(),
        },
        evaluations: 0,
        first_break_at: None,
        errored_evaluations: 0,
    };
    let consider = |genome: ScheduleGenome, corpus: &mut Corpus, report: &mut FuzzReport| {
        let eval = target.evaluate(&genome);
        let severity = eval.severity;
        report.evaluations += 1;
        report.errored_evaluations += u64::from(eval.seeds.iter().any(|s| s.error.is_some()));
        if severity.is_break() && report.first_break_at.is_none() {
            report.first_break_at = Some(report.evaluations);
        }
        if severity > report.best.severity {
            report.best = ScoredGenome {
                genome: genome.clone(),
                severity,
            };
        }
        corpus.add(genome, severity);
    };

    // Archetype seeds: the shapes hand-written attacks take — early
    // untargeted hits, and cut-targeted windows when the topology has a
    // sparse cut.
    let mut seeds: Vec<ScheduleGenome> = Vec::new();
    seeds.push(ScheduleGenome {
        events: (0..ctx.max_events.min(4) as u64)
            .map(|k| ppfts_engine::ScheduledEvent {
                from: k * 17,
                until: k * 17 + 1,
                target: None,
            })
            .collect(),
        segments: vec![],
        salt: 1,
    });
    if let Some(&v) = cut.first() {
        seeds.push(ScheduleGenome {
            events: (0..ctx.max_events.min(4))
                .map(|k| ppfts_engine::ScheduledEvent {
                    from: 0,
                    until: target.step_budget(),
                    target: Some(cut[k % cut.len()]),
                })
                .collect(),
            segments: vec![],
            salt: u64::from(u32::try_from(v).unwrap_or(0)),
        });
    }
    while seeds.len() < 4 {
        seeds.push(random_genome(&ctx, &mut rng));
    }
    for genome in seeds {
        if report.evaluations >= cfg.budget {
            break;
        }
        consider(genome, &mut corpus, &mut report);
    }

    while report.evaluations < cfg.budget {
        let child = match corpus.pick(&mut rng).cloned() {
            None => random_genome(&ctx, &mut rng),
            Some(parent) => {
                // Every 4th child is a crossover when two parents exist.
                if corpus.len() >= 2 && rng.gen_range(0..4u32) == 0 {
                    let other = corpus.pick(&mut rng).cloned().expect("non-empty");
                    crossover(&parent.genome, &other.genome, &ctx, &mut rng)
                } else {
                    mutate(&parent.genome, &ctx, &mut rng)
                }
            }
        };
        consider(child, &mut corpus, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_population::Topology;

    #[test]
    fn fuzz_is_deterministic_and_breaks_the_weakened_target() {
        // The seeded-mutant condition: simulator provisioned for 0
        // omissions, schedule allowed 1. Must break within a tiny
        // budget.
        let target = FuzzTarget::new(Topology::complete(8).unwrap(), 0, 1, vec![1, 2], 40_000, 1);
        let cfg = FuzzConfig {
            budget: 8,
            rng_seed: 7,
            corpus_cap: 8,
        };
        let report = fuzz(&target, &cfg);
        assert!(report.broke(), "severity: {:?}", report.best.severity);
        let again = fuzz(&target, &cfg);
        assert_eq!(report.best.genome, again.best.genome);
        assert_eq!(report.best.severity, again.best.severity);
        assert_eq!(report.first_break_at, again.first_break_at);
    }
}
