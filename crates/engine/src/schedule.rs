//! Deterministic scheduled-omission adversary.
//!
//! [`OmissionSchedule`] is the execution form of a fuzzer genome: a
//! finite list of one-shot omission events (optionally *targeted* at an
//! agent, e.g. a sweep-cut vertex) plus rate segments whose
//! per-step decisions come from the RNG-free
//! [`hash_bernoulli`](ppfts_population::dist::hash_bernoulli) hash.
//! Because nothing here consumes the shared RNG stream
//! ([`uses_rng`](crate::OmissionStrategy::uses_rng)` == false`), a run
//! under a schedule replays bit-identically from the same seed, and the
//! batched bulk pair-draw fast path stays enabled.

use ppfts_population::dist::hash_bernoulli;
use ppfts_population::Interaction;
use rand::RngCore;

use crate::OmissionStrategy;

/// A one-shot omission event: fires at most once, at the first eligible
/// step inside its window.
///
/// Untargeted events (`target == None`) fire at the first step of their
/// window. Targeted events wait for the first drawn interaction inside
/// the window that involves the target agent — the schedule compiler
/// aims these at low-conductance cut vertices
/// ([`Topology::sweep_cut_vertices`](ppfts_population::Topology::sweep_cut_vertices)).
/// On backends without agent identities (the count backend passes no
/// interaction) a targeted event degrades to untargeted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// First step index (inclusive) at which the event may fire.
    pub from: u64,
    /// Step index (exclusive) after which the event expires. Use
    /// `from + 1` for an exact-step event.
    pub until: u64,
    /// Agent the omission must involve, if any.
    pub target: Option<usize>,
}

impl ScheduledEvent {
    /// An untargeted omission at exactly step `step`.
    #[must_use]
    pub fn at(step: u64) -> Self {
        ScheduledEvent {
            from: step,
            until: step + 1,
            target: None,
        }
    }

    /// Whether `step` lies inside this event's window.
    #[must_use]
    fn window_contains(&self, step: u64) -> bool {
        self.from <= step && step < self.until
    }

    fn matches(&self, step: u64, interaction: Option<Interaction>) -> bool {
        if !self.window_contains(step) {
            return false;
        }
        match (self.target, interaction) {
            (Some(t), Some(i)) => i.involves(t.into()),
            // No target, or no identities to match against: eligible.
            _ => true,
        }
    }
}

/// A half-open step window `[from, until)` in which each interaction is
/// independently omissive with probability `rate`, decided by the
/// deterministic [`hash_bernoulli`] keyed on the step index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateSegment {
    /// First step index (inclusive) of the segment.
    pub from: u64,
    /// Step index (exclusive) ending the segment.
    pub until: u64,
    /// Per-step omission probability in `[0, 1]`.
    pub rate: f64,
}

impl RateSegment {
    fn fires(&self, step: u64, salt: u64, index: usize) -> bool {
        self.from <= step
            && step < self.until
            && hash_bernoulli(step, salt ^ (index as u64).wrapping_mul(0x9e37), self.rate)
    }
}

/// Deterministic scheduled-omission adversary compiled from a fuzzer
/// genome.
///
/// The schedule is a pure function of `(events, segments, salt)` and the
/// step/interaction sequence: it never touches the RNG, so any found
/// attack replays bit-identically through the runners.
///
/// # Example
///
/// ```
/// use ppfts_engine::{OmissionSchedule, OmissionStrategy, ScheduledEvent};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut adv = OmissionSchedule::new(
///     vec![ScheduledEvent::at(3), ScheduledEvent::at(7)],
///     vec![],
///     Some(2),
///     0,
/// );
/// let hits: Vec<u64> = (0..10).filter(|&t| adv.decide(t, &mut rng)).collect();
/// assert_eq!(hits, vec![3, 7]);
/// assert_eq!(adv.budget(), Some(2));
/// assert!(!adv.uses_rng()); // bulk pair drawing stays enabled
/// ```
#[derive(Clone, Debug)]
pub struct OmissionSchedule {
    events: Vec<ScheduledEvent>,
    fired: Vec<bool>,
    segments: Vec<RateSegment>,
    limit: Option<u64>,
    salt: u64,
    injected: u64,
}

impl OmissionSchedule {
    /// Builds a schedule from one-shot `events`, probabilistic
    /// `segments`, an optional hard cap `limit` on total injections, and
    /// the hash `salt` decorrelating segment decisions across schedules.
    #[must_use]
    pub fn new(
        events: Vec<ScheduledEvent>,
        segments: Vec<RateSegment>,
        limit: Option<u64>,
        salt: u64,
    ) -> Self {
        let fired = vec![false; events.len()];
        OmissionSchedule {
            events,
            fired,
            segments,
            limit,
            salt,
            injected: 0,
        }
    }

    /// The one-shot events of this schedule.
    #[must_use]
    pub fn events(&self) -> &[ScheduledEvent] {
        &self.events
    }

    /// The rate segments of this schedule.
    #[must_use]
    pub fn segments(&self) -> &[RateSegment] {
        &self.segments
    }

    /// The segment-decorrelation salt.
    #[must_use]
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Resets the fired/injected state so the same schedule value can
    /// drive another run.
    pub fn reset(&mut self) {
        self.fired.iter_mut().for_each(|f| *f = false);
        self.injected = 0;
    }

    /// Whether the schedule *permits* an omission at `step` against
    /// `interaction`, ignoring one-shot bookkeeping and the injection
    /// cap.
    ///
    /// This is the stateless membership test behind replay audits
    /// (`ppfts-verify`'s schedule audit): every omissive step of a
    /// faithful run must satisfy it.
    #[must_use]
    pub fn permits(&self, step: u64, interaction: Option<Interaction>) -> bool {
        self.events.iter().any(|e| e.matches(step, interaction))
            || self
                .segments
                .iter()
                .enumerate()
                .any(|(i, s)| s.fires(step, self.salt, i))
    }

    /// Worst-case number of omissions the schedule can still inject,
    /// if finite: the cap when one is set, otherwise the event count
    /// plus the total segment window length (segments can fire at most
    /// once per step).
    fn max_injections(&self) -> Option<u64> {
        if let Some(limit) = self.limit {
            return Some(limit);
        }
        let windows: u64 = self
            .segments
            .iter()
            .map(|s| s.until.saturating_sub(s.from))
            .fold(0u64, u64::saturating_add);
        Some((self.events.len() as u64).saturating_add(windows))
    }
}

impl OmissionStrategy for OmissionSchedule {
    fn decide(&mut self, step: u64, rng: &mut dyn RngCore) -> bool {
        self.decide_at(step, None, rng)
    }

    fn decide_at(
        &mut self,
        step: u64,
        interaction: Option<Interaction>,
        _rng: &mut dyn RngCore,
    ) -> bool {
        if self.limit.is_some_and(|l| self.injected >= l) {
            return false;
        }
        for (i, event) in self.events.iter().enumerate() {
            if !self.fired[i] && event.matches(step, interaction) {
                self.fired[i] = true;
                self.injected += 1;
                return true;
            }
        }
        for (i, segment) in self.segments.iter().enumerate() {
            if segment.fires(step, self.salt, i) {
                self.injected += 1;
                return true;
            }
        }
        false
    }

    fn injected(&self) -> u64 {
        self.injected
    }

    fn budget(&self) -> Option<u64> {
        self.max_injections()
    }

    fn uses_rng(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn untargeted_events_fire_once_at_window_start() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut adv = OmissionSchedule::new(
            vec![
                ScheduledEvent {
                    from: 2,
                    until: 10,
                    target: None,
                },
                ScheduledEvent::at(5),
            ],
            vec![],
            None,
            0,
        );
        let hits: Vec<u64> = (0..12).filter(|&t| adv.decide(t, &mut rng)).collect();
        assert_eq!(hits, vec![2, 5]);
        assert_eq!(adv.injected(), 2);
        assert_eq!(adv.budget(), Some(2));
    }

    #[test]
    fn targeted_event_waits_for_its_agent() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut adv = OmissionSchedule::new(
            vec![ScheduledEvent {
                from: 0,
                until: 100,
                target: Some(7),
            }],
            vec![],
            None,
            0,
        );
        let miss = Interaction::new(1, 2).unwrap();
        let hit = Interaction::new(7, 3).unwrap();
        assert!(!adv.decide_at(0, Some(miss), &mut rng));
        assert!(adv.decide_at(1, Some(hit), &mut rng));
        // One-shot: the same agent appearing again does not re-fire.
        assert!(!adv.decide_at(2, Some(hit), &mut rng));
        assert_eq!(adv.injected(), 1);
    }

    #[test]
    fn targeted_event_degrades_without_identities() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut adv = OmissionSchedule::new(
            vec![ScheduledEvent {
                from: 4,
                until: 8,
                target: Some(0),
            }],
            vec![],
            None,
            0,
        );
        // Count backend: no interaction to inspect → untargeted window.
        let hits: Vec<u64> = (0..10).filter(|&t| adv.decide(t, &mut rng)).collect();
        assert_eq!(hits, vec![4]);
    }

    #[test]
    fn limit_caps_total_injections() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut adv = OmissionSchedule::new(
            (0..10).map(ScheduledEvent::at).collect(),
            vec![],
            Some(3),
            0,
        );
        let total: u64 = (0..10).map(|t| adv.decide(t, &mut rng) as u64).sum();
        assert_eq!(total, 3);
        assert_eq!(adv.budget(), Some(3));
    }

    #[test]
    fn rate_segments_are_deterministic_and_windowed() {
        let run = |salt| {
            let mut rng = SmallRng::seed_from_u64(99);
            let mut adv = OmissionSchedule::new(
                vec![],
                vec![RateSegment {
                    from: 100,
                    until: 600,
                    rate: 0.4,
                }],
                None,
                salt,
            );
            let hits: Vec<u64> = (0..1000).filter(|&t| adv.decide(t, &mut rng)).collect();
            (hits, adv.injected())
        };
        let (a, injected) = run(17);
        let (b, _) = run(17);
        assert_eq!(a, b, "replays must be identical");
        assert!(a.iter().all(|&t| (100..600).contains(&t)));
        // ≈ 0.4 · 500 = 200 expected hits; the hash keeps it close.
        assert!((150..250).contains(&(injected as usize)), "{injected}");
        // A different salt decorrelates.
        let (c, _) = run(18);
        assert_ne!(a, c);
        assert_eq!(run(17).1, injected);
    }

    #[test]
    fn permits_is_the_stateless_membership_test() {
        let adv = OmissionSchedule::new(
            vec![ScheduledEvent {
                from: 3,
                until: 5,
                target: Some(1),
            }],
            vec![RateSegment {
                from: 50,
                until: 60,
                rate: 1.0,
            }],
            Some(1),
            0,
        );
        let hit = Interaction::new(1, 2).unwrap();
        let miss = Interaction::new(3, 4).unwrap();
        assert!(adv.permits(3, Some(hit)));
        assert!(!adv.permits(3, Some(miss)));
        assert!(!adv.permits(5, Some(hit)), "window is half-open");
        assert!(adv.permits(55, None), "rate-1 segment always permits");
        assert!(!adv.permits(60, None));
    }

    #[test]
    fn reset_allows_reuse_across_runs() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut adv = OmissionSchedule::new(vec![ScheduledEvent::at(1)], vec![], Some(1), 0);
        assert!(adv.decide(1, &mut rng));
        assert!(!adv.decide(1, &mut rng));
        adv.reset();
        assert_eq!(adv.injected(), 0);
        assert!(adv.decide(1, &mut rng));
    }
}
