//! Parallel composition of two protocols.

use ppfts_population::{EnumerableStates, Semantics, TwoWayProtocol};

/// Runs two protocols in lock-step on paired states.
///
/// Every interaction applies both components' transitions to the
/// respective halves of the state. Parallel composition is the classic way
/// to close stable predicates under boolean combination: compute both
/// atoms simultaneously, then combine the component outputs (the
/// [`Semantics`] impl outputs the pair).
///
/// # Example
///
/// "At least 2 marked agents AND the total sum is even":
///
/// ```
/// use ppfts_population::{Semantics, TwoWayProtocol};
/// use ppfts_protocols::{FlockOfBirds, Product, Remainder};
///
/// let both = Product::new(FlockOfBirds::new(2), Remainder::new(2, 0));
/// let inputs = vec![(true, 3u32), (true, 5u32), (false, 0u32)];
/// let (ge2, even) = both.expected(&inputs);
/// assert!(ge2);       // two marked agents
/// assert!(even);      // 3 + 5 + 0 = 8
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Product<P1, P2> {
    first: P1,
    second: P2,
}

impl<P1, P2> Product<P1, P2> {
    /// Composes `first` and `second` in parallel.
    pub fn new(first: P1, second: P2) -> Self {
        Product { first, second }
    }

    /// The first component.
    pub fn first(&self) -> &P1 {
        &self.first
    }

    /// The second component.
    pub fn second(&self) -> &P2 {
        &self.second
    }
}

impl<P1, P2> TwoWayProtocol for Product<P1, P2>
where
    P1: TwoWayProtocol,
    P2: TwoWayProtocol,
{
    type State = (P1::State, P2::State);

    fn delta(&self, s: &Self::State, r: &Self::State) -> (Self::State, Self::State) {
        let (s1, r1) = self.first.delta(&s.0, &r.0);
        let (s2, r2) = self.second.delta(&s.1, &r.1);
        ((s1, s2), (r1, r2))
    }
}

impl<P1, P2> Semantics for Product<P1, P2>
where
    P1: Semantics,
    P2: Semantics,
    P1::Input: Clone,
    P2::Input: Clone,
{
    type Input = (P1::Input, P2::Input);
    type Output = (P1::Output, P2::Output);

    fn encode(&self, input: &Self::Input) -> Self::State {
        (self.first.encode(&input.0), self.second.encode(&input.1))
    }

    fn output(&self, q: &Self::State) -> Self::Output {
        (self.first.output(&q.0), self.second.output(&q.1))
    }

    fn expected(&self, inputs: &[Self::Input]) -> Self::Output {
        let firsts: Vec<P1::Input> = inputs.iter().map(|i| i.0.clone()).collect();
        let seconds: Vec<P2::Input> = inputs.iter().map(|i| i.1.clone()).collect();
        (self.first.expected(&firsts), self.second.expected(&seconds))
    }
}

impl<P1, P2> EnumerableStates for Product<P1, P2>
where
    P1: EnumerableStates,
    P2: EnumerableStates,
{
    type State = (P1::State, P2::State);

    fn states(&self) -> Vec<Self::State> {
        let seconds = self.second.states();
        self.first
            .states()
            .into_iter()
            .flat_map(|a| seconds.iter().map(move |b| (a.clone(), b.clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Epidemic, FlockOfBirds, Remainder};
    use ppfts_engine::{Batched, Stop, TwoWayModel, TwoWayRunner};
    use ppfts_population::unanimous_output;

    #[test]
    fn delta_acts_componentwise() {
        let p = Product::new(Epidemic, Epidemic);
        let (s, r) = p.delta(&(true, false), &(false, true));
        assert_eq!(s, (true, true));
        assert_eq!(r, (true, true));
    }

    #[test]
    fn state_space_is_cartesian() {
        let p = Product::new(Epidemic, Epidemic);
        assert_eq!(p.states().len(), 4);
    }

    #[test]
    fn computes_conjunction_of_predicates() {
        let proto = Product::new(FlockOfBirds::new(2), Remainder::new(3, 0));
        let inputs: Vec<(bool, u32)> = vec![(true, 1), (true, 1), (false, 1), (false, 0)];
        let expected = proto.expected(&inputs);
        assert_eq!(expected, (true, true)); // 2 marked, sum 3 ≡ 0 (mod 3)
        let mut runner = TwoWayRunner::builder(TwoWayModel::Tw, proto)
            .config(proto.initial_configuration(&inputs))
            .seed(12)
            .build()
            .unwrap();
        let out = runner
            .run(
                Batched(1),
                Stop::until(400_000, |c| {
                    unanimous_output(c, |q| proto.output(q)) == Some(expected)
                }),
            )
            .unwrap();
        assert!(out.is_satisfied());
    }

    #[test]
    fn components_do_not_interfere() {
        let p = Product::new(Epidemic, Remainder::new(2, 0));
        let (s, _r) = p.delta(
            &(false, Remainder::new(2, 0).encode(&1)),
            &(true, Remainder::new(2, 0).encode(&1)),
        );
        // Epidemic half infected; remainder half merged independently.
        assert!(s.0);
        assert_eq!(s.1.value, Some(0));
    }
}
