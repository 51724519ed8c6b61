//! Ordered pairwise interactions.

use std::fmt;

use rand::{Rng, RngCore};

use crate::{AgentId, PopulationError};

/// An ordered pairwise interaction `(starter, reactor)`.
///
/// Every meeting of two agents is *asymmetric*: the first agent is the
/// **starter** (`a_s`) and the second the **reactor** (`a_r`). In the
/// two-way model both parties read each other's state; in the one-way models
/// information flows only from starter to reactor. What each party gets to
/// compute is decided by the interaction model in `ppfts-engine`, not by
/// this type.
///
/// # Example
///
/// ```
/// use ppfts_population::Interaction;
///
/// let i = Interaction::new(0, 1)?;
/// assert_eq!(i.starter().index(), 0);
/// assert_eq!(i.reactor().index(), 1);
/// assert_eq!(i.reversed(), Interaction::new(1, 0)?);
/// # Ok::<(), ppfts_population::PopulationError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interaction {
    starter: AgentId,
    reactor: AgentId,
}

impl Interaction {
    /// Creates the interaction in which agent `starter` meets agent
    /// `reactor`.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::SelfInteraction`] if both indices are
    /// equal: an agent never interacts with itself.
    pub fn new(starter: usize, reactor: usize) -> Result<Self, PopulationError> {
        if starter == reactor {
            return Err(PopulationError::SelfInteraction { agent: starter });
        }
        Ok(Interaction {
            starter: AgentId::new(starter),
            reactor: AgentId::new(reactor),
        })
    }

    /// Draws a uniformly random ordered pair of distinct agents among `n`:
    /// the starter from `0..n`, then the reactor from `0..n−1` shifted
    /// past it. Every uniform pair draw of the workspace (the uniform
    /// scheduler, the complete topology) consumes the RNG stream this way.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(n: usize, rng: &mut R) -> Self {
        let s = rng.gen_range(0..n);
        let mut r = rng.gen_range(0..n - 1);
        if r >= s {
            r += 1;
        }
        Interaction {
            starter: AgentId::new(s),
            reactor: AgentId::new(r),
        }
    }

    /// The agent initiating the interaction (`a_s`).
    pub const fn starter(self) -> AgentId {
        self.starter
    }

    /// The agent reacting to the interaction (`a_r`).
    pub const fn reactor(self) -> AgentId {
        self.reactor
    }

    /// The same meeting with the roles exchanged.
    pub fn reversed(self) -> Self {
        Interaction {
            starter: self.reactor,
            reactor: self.starter,
        }
    }

    /// Whether `agent` takes part in this interaction in either role.
    pub fn involves(self, agent: AgentId) -> bool {
        self.starter == agent || self.reactor == agent
    }

    /// Checks that both endpoints fall inside a population of `len` agents.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::AgentOutOfBounds`] naming the first
    /// offending endpoint.
    pub fn check_bounds(self, len: usize) -> Result<(), PopulationError> {
        for id in [self.starter, self.reactor] {
            if id.index() >= len {
                return Err(PopulationError::AgentOutOfBounds {
                    agent: id.index(),
                    len,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Interaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.starter, self.reactor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_interaction() {
        assert_eq!(
            Interaction::new(4, 4),
            Err(PopulationError::SelfInteraction { agent: 4 })
        );
    }

    #[test]
    fn reversal_swaps_roles() {
        let i = Interaction::new(1, 2).unwrap();
        let r = i.reversed();
        assert_eq!(r.starter(), AgentId::new(2));
        assert_eq!(r.reactor(), AgentId::new(1));
        assert_eq!(r.reversed(), i);
    }

    #[test]
    fn involvement_covers_both_roles() {
        let i = Interaction::new(0, 3).unwrap();
        assert!(i.involves(AgentId::new(0)));
        assert!(i.involves(AgentId::new(3)));
        assert!(!i.involves(AgentId::new(1)));
    }

    #[test]
    fn bounds_check_names_offender() {
        let i = Interaction::new(1, 5).unwrap();
        assert!(i.check_bounds(6).is_ok());
        assert_eq!(
            i.check_bounds(5),
            Err(PopulationError::AgentOutOfBounds { agent: 5, len: 5 })
        );
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Interaction::new(0, 1).unwrap().to_string(), "(a0, a1)");
    }
}
