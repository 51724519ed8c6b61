//! Flock-of-birds threshold counting.

use ppfts_population::{EnumerableStates, Semantics, TwoWayProtocol};

/// State of a [`FlockOfBirds`] agent: an accumulated count plus a detection
/// flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlockState {
    /// Accumulated count, saturated at the threshold `k`.
    pub count: u32,
    /// Whether this agent knows the threshold has been reached.
    pub detected: bool,
}

/// The classic threshold ("flock of birds") protocol: *do at least `k`
/// agents carry a mark?*
///
/// This is the paper's own motivating scenario (§1.1): each bird carries a
/// sensor, and the flock must detect when the number of birds with, say,
/// elevated temperature reaches a critical threshold `k`, so that a sensor
/// can intervene.
///
/// Each marked agent starts with count 1. When two agents meet, the
/// starter takes as much of the joint count as fits below `k` and the
/// reactor keeps the remainder, so the total count is conserved:
///
/// ```text
/// (u, v) ↦ (min(u + v, k), (u + v) − min(u + v, k))
/// ```
///
/// An agent whose merged count reaches `k` raises `detected`, and the flag
/// spreads epidemically in both roles. Under global fairness some agent
/// eventually accumulates `min(total, k)`, so `detected` stabilizes to
/// `total ≥ k` at every agent.
///
/// # Example
///
/// ```
/// use ppfts_population::{Semantics, TwoWayProtocol};
/// use ppfts_protocols::{FlockOfBirds, FlockState};
///
/// let flock = FlockOfBirds::new(3);
/// let (s, r) = flock.delta(
///     &FlockState { count: 2, detected: false },
///     &FlockState { count: 2, detected: false },
/// );
/// assert_eq!((s.count, r.count), (3, 1)); // total conserved, capped at k
/// assert!(s.detected && r.detected);      // threshold reached
/// assert!(flock.expected(&[true, true, true, false]));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlockOfBirds {
    threshold: u32,
}

impl FlockOfBirds {
    /// Creates the protocol detecting "at least `threshold` marked agents".
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` (the predicate would be constantly true).
    pub fn new(threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        FlockOfBirds { threshold }
    }

    /// The detection threshold `k`.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }
}

impl TwoWayProtocol for FlockOfBirds {
    type State = FlockState;

    fn delta(&self, s: &FlockState, r: &FlockState) -> (FlockState, FlockState) {
        let k = self.threshold;
        let total = s.count + r.count;
        let kept = total.min(k);
        let reached = total >= k || s.detected || r.detected;
        (
            FlockState {
                count: kept,
                detected: reached,
            },
            FlockState {
                count: total - kept,
                detected: reached,
            },
        )
    }
}

impl Semantics for FlockOfBirds {
    type Input = bool;
    type Output = bool;

    fn encode(&self, marked: &bool) -> FlockState {
        FlockState {
            count: *marked as u32,
            detected: self.threshold == 1 && *marked,
        }
    }

    fn output(&self, q: &FlockState) -> bool {
        q.detected
    }

    fn expected(&self, inputs: &[bool]) -> bool {
        inputs.iter().filter(|b| **b).count() as u32 >= self.threshold
    }
}

impl EnumerableStates for FlockOfBirds {
    type State = FlockState;
    fn states(&self) -> Vec<FlockState> {
        let mut v = Vec::new();
        for count in 0..=self.threshold {
            for detected in [false, true] {
                v.push(FlockState { count, detected });
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_engine::{Batched, Stop, TwoWayModel, TwoWayRunner};
    use ppfts_population::unanimous_output;

    fn run_flock(k: u32, marked: usize, unmarked: usize, seed: u64) -> Option<bool> {
        let flock = FlockOfBirds::new(k);
        let inputs: Vec<bool> = std::iter::repeat_n(true, marked)
            .chain(std::iter::repeat_n(false, unmarked))
            .collect();
        let expected = flock.expected(&inputs);
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, flock)
            .config(flock.initial_configuration(&inputs))
            .seed(seed)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(1),
                Stop::until(400_000, |c| {
                    unanimous_output(c, |q| flock.output(q)) == Some(expected)
                }),
            )
            .unwrap();
        out.is_satisfied().then_some(expected)
    }

    #[test]
    fn count_is_conserved_by_every_meeting() {
        let flock = FlockOfBirds::new(5);
        for u in 0..=5 {
            for v in 0..=5u32.saturating_sub(u) {
                let (s, r) = flock.delta(
                    &FlockState {
                        count: u,
                        detected: false,
                    },
                    &FlockState {
                        count: v,
                        detected: false,
                    },
                );
                assert_eq!(s.count + r.count, u + v);
                assert!(s.count <= 5);
            }
        }
    }

    #[test]
    fn detects_threshold_reached() {
        assert_eq!(run_flock(3, 4, 3, 1), Some(true));
        assert_eq!(run_flock(5, 5, 0, 2), Some(true));
    }

    #[test]
    fn stays_quiet_below_threshold() {
        assert_eq!(run_flock(4, 3, 5, 3), Some(false));
        // Extra paranoia: detection never fires spuriously mid-run.
        let flock = FlockOfBirds::new(4);
        let inputs = vec![true, true, true, false, false];
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, flock)
            .config(flock.initial_configuration(&inputs))
            .seed(4)
            .build()
            .unwrap();
        for _ in 0..20_000 {
            runner.step().unwrap();
            assert!(runner.config().as_slice().iter().all(|q| !q.detected));
        }
    }

    #[test]
    fn threshold_one_detects_immediately() {
        let flock = FlockOfBirds::new(1);
        let c = flock.initial_configuration(&[true, false]);
        assert!(flock.output(&c.as_slice()[0]));
    }

    #[test]
    fn detection_flag_spreads_both_ways() {
        let flock = FlockOfBirds::new(2);
        let lit = FlockState {
            count: 0,
            detected: true,
        };
        let dark = FlockState {
            count: 0,
            detected: false,
        };
        let (s, r) = flock.delta(&lit, &dark);
        assert!(s.detected && r.detected);
        let (s, r) = flock.delta(&dark, &lit);
        assert!(s.detected && r.detected);
    }

    #[test]
    fn enumerated_state_space_has_expected_size() {
        assert_eq!(FlockOfBirds::new(3).states().len(), 8); // (k+1) × 2
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = FlockOfBirds::new(0);
    }

    #[test]
    fn table_port_runs_on_the_count_backend() {
        use ppfts_engine::convergence::stably;
        use ppfts_engine::StatsOnly;
        use ppfts_population::{unanimous_output_counts, CountConfiguration, TableProtocol};
        let flock = FlockOfBirds::new(3);
        let table = TableProtocol::from_protocol(&flock);
        for s in flock.states() {
            for r in flock.states() {
                assert_eq!(table.delta(&s, &r), flock.delta(&s, &r));
            }
        }
        // 5 marked birds among 200, threshold 3: everyone must detect.
        let inputs: Vec<bool> = std::iter::repeat_n(true, 5)
            .chain(std::iter::repeat_n(false, 195))
            .collect();
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, table)
            .population(flock.initial_counts(&inputs))
            .seed(6)
            .trace_sink(StatsOnly)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(256),
                Stop::until(
                    5_000_000,
                    stably(
                        |c: &CountConfiguration<FlockState>| {
                            unanimous_output_counts(&c.counts(), |q| flock.output(q)) == Some(true)
                        },
                        2,
                    ),
                ),
            )
            .unwrap();
        assert!(out.is_satisfied());
    }
}
