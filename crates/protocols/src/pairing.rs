//! The paper's Pairing protocol `P_IP` (Definition 5).

use ppfts_population::{Configuration, EnumerableStates, TwoWayProtocol};

/// Local states of the [`Pairing`] protocol.
///
/// The paper's `cs` is [`Paired`](PairingState::Paired), `c` is
/// [`Consumer`](PairingState::Consumer), `p` is
/// [`Producer`](PairingState::Producer) and `⊥` is
/// [`Spent`](PairingState::Spent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PairingState {
    /// `cs`: a consumer that has been irrevocably paired with a producer.
    Paired,
    /// `c`: an unpaired consumer.
    Consumer,
    /// `p`: an unspent producer.
    Producer,
    /// `⊥`: a producer that has been consumed.
    Spent,
}

/// The Pairing problem protocol `P_IP` of the reproduced paper.
///
/// Consumers (`c`) and producers (`p`) pair up one-to-one:
///
/// ```text
/// (c, p) ↦ (cs, ⊥)        (p, c) ↦ (⊥, cs)
/// ```
///
/// all other pairs are left unchanged. In the fault-free two-way model this
/// trivially solves the Pairing problem (Definition 5):
///
/// * **Irrevocability** — only a `c` can become `cs`, and a `cs` never
///   changes again;
/// * **Safety** — at most `|producers|` agents are ever in `cs` (each
///   pairing spends one producer);
/// * **Liveness** — under global fairness the count of `cs` stabilizes to
///   `min(|consumers|, |producers|)`.
///
/// Every impossibility proof of the paper (Theorems 3.1–3.3) works by
/// exhibiting a run in which a purported simulator drives *more* agents
/// into `cs` than there are producers — a safety violation. The checkers
/// in `ppfts-verify` test exactly these properties.
///
/// # Example
///
/// ```
/// use ppfts_population::TwoWayProtocol;
/// use ppfts_protocols::{Pairing, PairingState::*};
///
/// assert_eq!(Pairing.delta(&Consumer, &Producer), (Paired, Spent));
/// assert_eq!(Pairing.delta(&Producer, &Consumer), (Spent, Paired));
/// assert_eq!(Pairing.delta(&Paired, &Producer), (Paired, Producer));
/// assert!(Pairing.is_symmetric_on(&Consumer, &Producer));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pairing;

impl Pairing {
    /// The number of agents in the irrevocable `cs` state.
    pub fn paired_count(config: &Configuration<PairingState>) -> usize {
        config.count_state(&PairingState::Paired)
    }

    /// Convenience: the initial configuration with `consumers` agents in
    /// `c` followed by `producers` agents in `p`.
    pub fn initial(consumers: usize, producers: usize) -> Configuration<PairingState> {
        Configuration::from_groups([
            (PairingState::Consumer, consumers),
            (PairingState::Producer, producers),
        ])
    }
}

impl TwoWayProtocol for Pairing {
    type State = PairingState;

    fn delta(&self, s: &PairingState, r: &PairingState) -> (PairingState, PairingState) {
        use PairingState::*;
        match (s, r) {
            (Consumer, Producer) => (Paired, Spent),
            (Producer, Consumer) => (Spent, Paired),
            _ => (*s, *r),
        }
    }
}

impl EnumerableStates for Pairing {
    type State = PairingState;
    fn states(&self) -> Vec<PairingState> {
        vec![
            PairingState::Paired,
            PairingState::Consumer,
            PairingState::Producer,
            PairingState::Spent,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_engine::{Batched, Stop, TwoWayModel, TwoWayRunner};
    use PairingState::*;

    #[test]
    fn only_consumer_producer_pairs_react() {
        for s in Pairing.states() {
            for r in Pairing.states() {
                let out = Pairing.delta(&s, &r);
                if (s, r) == (Consumer, Producer) {
                    assert_eq!(out, (Paired, Spent));
                } else if (s, r) == (Producer, Consumer) {
                    assert_eq!(out, (Spent, Paired));
                } else {
                    assert_eq!(out, (s, r), "({s:?}, {r:?}) must be identity");
                }
            }
        }
    }

    #[test]
    fn paired_state_is_irrevocable_in_delta() {
        for r in Pairing.states() {
            assert_eq!(Pairing.delta(&Paired, &r).0, Paired);
            assert_eq!(Pairing.delta(&r, &Paired).1, Paired);
        }
    }

    #[test]
    fn initial_layout_and_expected_pairs() {
        let c0 = Pairing::initial(3, 5);
        assert_eq!(c0.len(), 8);
        assert_eq!(c0.count_state(&PairingState::Consumer), 3);
        assert_eq!(c0.count_state(&PairingState::Producer), 5);
        assert_eq!(Pairing::paired_count(&c0), 0);
    }

    #[test]
    fn liveness_under_tw_global_fairness() {
        for (consumers, producers) in [(3, 2), (2, 3), (4, 4), (1, 6)] {
            let c0 = Pairing::initial(consumers, producers);
            let expected = consumers.min(producers);
            let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Pairing)
                .config(c0)
                .seed(consumers as u64 * 31 + producers as u64)
                .build()
                .unwrap();
            let out = runner
                .run(
                    Batched(1),
                    Stop::until(200_000, |c| Pairing::paired_count(c) == expected),
                )
                .unwrap();
            assert!(
                out.is_satisfied(),
                "{consumers}c/{producers}p never stabilized"
            );
            // Safety held throughout (checked here at the end; the
            // verify crate checks it per-step).
            assert!(Pairing::paired_count(runner.config()) <= producers);
        }
    }

    #[test]
    fn safety_invariant_holds_per_step() {
        let c0 = Pairing::initial(5, 2);
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, Pairing)
            .config(c0)
            .seed(99)
            .build()
            .unwrap();
        for _ in 0..5000 {
            runner.step().unwrap();
            assert!(Pairing::paired_count(runner.config()) <= 2);
        }
    }
}
