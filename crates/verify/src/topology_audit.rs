//! Fairness and coverage audits for graph-aware scheduling.
//!
//! Restricted interaction topologies change what *global fairness* means:
//! the scheduler must deal every **edge of the graph** infinitely often,
//! not every ordered pair. Two checkers certify that property for real
//! executions:
//!
//! * [`audit_scheduler_coverage`] drives a
//!   [`TopologyScheduler`] for a fixed
//!   number of draws and tallies per-arc hit counts — the statistical
//!   witness that every arc of a connected topology has probability
//!   `1/2m` per step and is therefore scheduled infinitely often in
//!   expectation;
//! * [`audit_trace_topology`] replays a recorded [`Trace`] against a
//!   topology and rejects the first interaction that is *not* a graph
//!   arc — the safety half (a graph-aware run must never deal an edge
//!   the graph does not have), plus the same coverage tally for the
//!   arcs it did deal.
//!
//! Both return a [`CoverageReport`] whose `min_hits`/`max_hits` bracket
//! the empirical arc distribution; [`CoverageReport::max_deviation`]
//! turns it into the chi-square-style uniformity figure the statistical
//! tests assert on.

use ppfts_core::SimulatorState;
use ppfts_engine::{Scheduler, TopologyScheduler, Trace};
use ppfts_population::{Interaction, State, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use std::error::Error;
use std::fmt;

/// Per-arc hit statistics of an execution (or scheduler stream) over a
/// topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverageReport {
    /// Arcs (ordered edges) the topology has.
    pub arcs: usize,
    /// Arcs hit at least once.
    pub covered: usize,
    /// Total draws tallied.
    pub draws: u64,
    /// Hits of the coldest arc.
    pub min_hits: u64,
    /// Hits of the hottest arc.
    pub max_hits: u64,
}

impl CoverageReport {
    /// Whether every arc was dealt at least once.
    pub fn is_full(&self) -> bool {
        self.covered == self.arcs
    }

    /// Expected hits per arc under the uniform-arc law.
    fn expected_hits(&self) -> f64 {
        self.draws as f64 / self.arcs.max(1) as f64
    }

    /// Largest relative deviation of any arc from the uniform
    /// expectation: `max(|hits − e| / e)` over the coldest and hottest
    /// arcs. Small (→ 0 as draws grow) iff the stream is uniform over
    /// arcs.
    pub fn max_deviation(&self) -> f64 {
        let e = self.expected_hits();
        if e == 0.0 {
            return 0.0;
        }
        let lo = (e - self.min_hits as f64).abs() / e;
        let hi = (self.max_hits as f64 - e).abs() / e;
        lo.max(hi)
    }
}

/// A recorded interaction that the audited topology does not contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyViolation {
    /// Step index of the offending record.
    pub index: u64,
    /// The interaction that is not a graph arc.
    pub interaction: Interaction,
}

impl fmt::Display for TopologyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {} dealt {}, which is not an edge of the topology",
            self.index, self.interaction
        )
    }
}

impl Error for TopologyViolation {}

/// Tallies `draws` interactions from a fresh
/// [`TopologyScheduler`] over
/// `topology`, seeded with `seed`.
///
/// With `draws` a reasonable multiple of `topology.arc_count()`, a
/// *connected* topology must come back [`is_full`](CoverageReport::is_full)
/// with [`max_deviation`](CoverageReport::max_deviation) shrinking as
/// `O(1/√draws)` — the executable form of "every edge is scheduled
/// infinitely often in expectation".
pub fn audit_scheduler_coverage(topology: &Topology, draws: u64, seed: u64) -> CoverageReport {
    let mut scheduler = TopologyScheduler::new(topology.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = topology.len();
    let mut tally = ArcTally::new(topology);
    for index in 0..draws {
        let i = scheduler.next_interaction(n, &mut rng);
        tally
            .hit(topology, index, i)
            .expect("TopologyScheduler deals only graph arcs");
    }
    tally.report()
}

/// Replays `trace` against `topology`: fails on the first recorded
/// interaction that is not a graph arc, otherwise reports arc coverage.
///
/// # Errors
///
/// [`TopologyViolation`] naming the first off-graph step.
pub fn audit_trace_topology<Q: State, F>(
    trace: &Trace<Q, F>,
    topology: &Topology,
) -> Result<CoverageReport, TopologyViolation> {
    let mut tally = ArcTally::new(topology);
    for rec in trace {
        tally.hit(topology, rec.index, rec.interaction)?;
    }
    Ok(tally.report())
}

/// Report of [`audit_simulation_topology`]: the physical arc coverage
/// plus how many *simulated* transitions were audited through the
/// simulation embedding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimulationTopologyReport {
    /// Arc coverage of the physical interactions (the trace itself).
    pub physical: CoverageReport,
    /// Simulated commits observed across the trace (commit-count
    /// increments on either endpoint).
    pub commits: u64,
    /// Commits that exposed their partner's vertex (`Commit::partner_id`)
    /// and were therefore adjacency-checked — all commits for graphical
    /// `SID`/`SKnO`; zero for anonymous simulators, which have no vertex
    /// to check.
    pub located_commits: u64,
}

/// A violation found by [`audit_simulation_topology`]: either the
/// physical trace left the graph, or a simulated transition paired
/// non-adjacent vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimulationTopologyViolation {
    /// A recorded physical interaction is not a graph arc.
    Physical(TopologyViolation),
    /// A committed simulated transition named a partner vertex that is
    /// not adjacent to the committing agent.
    Simulated {
        /// Step index of the offending record.
        index: u64,
        /// Vertex (agent index) of the committing agent.
        agent: usize,
        /// The non-adjacent partner vertex the commit named.
        partner: u64,
    },
}

impl fmt::Display for SimulationTopologyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationTopologyViolation::Physical(v) => write!(f, "{v}"),
            SimulationTopologyViolation::Simulated {
                index,
                agent,
                partner,
            } => write!(
                f,
                "step {index}: agent {agent} committed a simulated transition against \
                 vertex {partner}, which is not a graph neighbor"
            ),
        }
    }
}

impl Error for SimulationTopologyViolation {}

/// Audits that a *simulated* execution stayed on the graph **through the
/// simulation embedding**: every physical interaction of `trace` must be
/// a graph arc (as in [`audit_trace_topology`]), and every simulated
/// transition an agent commits must pair it with a graph-adjacent
/// vertex.
///
/// The simulated half reads the [`SimulatorState`] ghost commit log:
/// whenever an endpoint's commit count increases across a record, the
/// fresh commit's `partner_id` must place the simulated partner on the
/// graph, in either of the two ways simulators locate partners:
///
/// * **handshake partners** — the commit names the protocol-level ID of
///   the *other endpoint of this very record* (`SID`: the partner's ID;
///   `NamedSid`: the partner's acquired name, which is not a vertex but
///   identifies an agent this one physically — hence adjacently — met);
/// * **vertex partners** — the commit names a graph vertex that must be
///   adjacent to the committing agent's own vertex, its agent index
///   (graphical `SKnO`: the consumed run's origin, possibly several
///   relay hops away from where its tokens were consumed).
///
/// A commit satisfying neither is the violation. Anonymous commits
/// (`partner_id = None`) carry no location claim and are only counted.
///
/// # Errors
///
/// The first [`SimulationTopologyViolation`] encountered, physical or
/// simulated.
pub fn audit_simulation_topology<Q, F>(
    trace: &Trace<Q, F>,
    topology: &Topology,
) -> Result<SimulationTopologyReport, SimulationTopologyViolation>
where
    Q: State + SimulatorState,
{
    let mut tally = ArcTally::new(topology);
    let mut commits = 0u64;
    let mut located = 0u64;
    for rec in trace {
        tally
            .hit(topology, rec.index, rec.interaction)
            .map_err(SimulationTopologyViolation::Physical)?;
        let (s, r) = (
            rec.interaction.starter().index(),
            rec.interaction.reactor().index(),
        );
        for (agent, old, new, other) in [
            (s, &rec.old_starter, &rec.new_starter, &rec.new_reactor),
            (r, &rec.old_reactor, &rec.new_reactor, &rec.new_starter),
        ] {
            if new.commit_count() > old.commit_count() {
                commits += 1;
                let commit = new
                    .last_commit()
                    .expect("a positive commit count implies a last commit");
                if let Some(partner) = commit.partner_id {
                    located += 1;
                    // Handshake partners name the agent physically met in
                    // this record (already proven on-graph above); vertex
                    // partners must be graph-adjacent.
                    let is_handshake_partner = other.protocol_id() == Some(partner);
                    if !is_handshake_partner && !topology.contains_arc(agent, partner as usize) {
                        return Err(SimulationTopologyViolation::Simulated {
                            index: rec.index,
                            agent,
                            partner,
                        });
                    }
                }
            }
        }
    }
    Ok(SimulationTopologyReport {
        physical: tally.report(),
        commits,
        located_commits: located,
    })
}

/// Per-arc hit counts of a stream of interactions over a topology: the
/// one physical check every audit here shares.
struct ArcTally {
    hits: Vec<u64>,
    draws: u64,
}

impl ArcTally {
    fn new(topology: &Topology) -> Self {
        ArcTally {
            hits: vec![0; topology.arc_count()],
            draws: 0,
        }
    }

    /// Counts `interaction` (step `index`) against its arc.
    ///
    /// # Errors
    ///
    /// [`TopologyViolation`] if `interaction` is not a graph arc.
    fn hit(
        &mut self,
        topology: &Topology,
        index: u64,
        interaction: Interaction,
    ) -> Result<(), TopologyViolation> {
        let arc = topology
            .arc_index(interaction.starter().index(), interaction.reactor().index())
            .ok_or(TopologyViolation { index, interaction })?;
        self.hits[arc] += 1;
        self.draws += 1;
        Ok(())
    }

    fn report(&self) -> CoverageReport {
        let hits = &self.hits;
        CoverageReport {
            arcs: hits.len(),
            covered: hits.iter().filter(|&&h| h > 0).count(),
            draws: self.draws,
            min_hits: hits.iter().copied().min().unwrap_or(0),
            max_hits: hits.iter().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_engine::{
        Batched, FullTrace, OneWayModel, OneWayProgram, OneWayRunner, Stop, UniformScheduler,
    };
    use ppfts_population::Configuration;

    struct Or;
    impl OneWayProgram for Or {
        type State = bool;
        fn on_receive(&self, s: &bool, r: &bool) -> bool {
            *s || *r
        }
    }

    #[test]
    fn scheduler_covers_every_arc_roughly_uniformly() {
        for t in [
            Topology::ring(12).unwrap(),
            Topology::grid2d(3, 4).unwrap(),
            Topology::random_regular(12, 3, 1).unwrap(),
            Topology::complete(8).unwrap(),
        ] {
            let draws = (t.arc_count() as u64) * 500;
            let report = audit_scheduler_coverage(&t, draws, 42);
            assert!(report.is_full(), "{t}: cold arcs {report:?}");
            assert!(
                report.max_deviation() < 0.35,
                "{t}: deviation {} too large ({report:?})",
                report.max_deviation()
            );
        }
    }

    #[test]
    fn deviation_shrinks_with_more_draws() {
        let t = Topology::ring(10).unwrap();
        let short = audit_scheduler_coverage(&t, 2_000, 7);
        let long = audit_scheduler_coverage(&t, 200_000, 7);
        assert!(long.max_deviation() < short.max_deviation());
        assert!(long.max_deviation() < 0.1);
    }

    #[test]
    fn traced_topology_run_passes_the_audit() {
        let ring = Topology::ring(6).unwrap();
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Or)
            .config(Configuration::new(vec![
                true, false, false, false, false, false,
            ]))
            .topology(ring.clone())
            .trace_sink(FullTrace::new())
            .seed(4)
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(4_000)).unwrap();
        let report = audit_trace_topology(runner.trace().unwrap(), &ring).unwrap();
        assert_eq!(report.draws, 4_000);
        assert!(report.is_full(), "4k draws over 12 arcs: {report:?}");
    }

    #[test]
    fn uniform_run_violates_a_ring_audit() {
        // The complete-graph uniform scheduler deals chords the ring
        // does not have; the audit names the first one.
        let ring = Topology::ring(8).unwrap();
        let mut runner = OneWayRunner::builder(OneWayModel::Io, Or)
            .config(Configuration::new(vec![false; 8]))
            .scheduler(UniformScheduler::new())
            .trace_sink(FullTrace::new())
            .seed(2)
            .build()
            .unwrap();
        runner.run(Batched(1), Stop::steps(200)).unwrap();
        let err = audit_trace_topology(runner.trace().unwrap(), &ring).unwrap_err();
        let (s, r) = (
            err.interaction.starter().index(),
            err.interaction.reactor().index(),
        );
        assert!(!ring.contains_arc(s, r));
        assert!(err.to_string().contains("not an edge"));
    }

    #[test]
    fn graphical_sid_trace_passes_the_simulation_audit() {
        use ppfts_core::Sid;
        use ppfts_population::TableProtocol;

        let ring = Topology::ring(6).unwrap();
        let pairing = TableProtocol::builder(vec!['s', 'c', 'p', '_'])
            .rule(('c', 'p'), ('s', '_'))
            .rule(('p', 'c'), ('_', 's'))
            .build();
        let sims = ['c', 'p', 'c', 'p', 'c', 'p'];
        let mut runner = OneWayRunner::builder(
            OneWayModel::Io,
            Sid::graphical(pairing.clone(), ring.clone()),
        )
        .config(Sid::<TableProtocol<char>>::initial(&sims))
        .topology(ring.clone())
        .trace_sink(FullTrace::new())
        .seed(9)
        .build()
        .unwrap();
        runner.run(Batched(1), Stop::steps(6_000)).unwrap();
        let report = audit_simulation_topology(runner.trace().unwrap(), &ring).unwrap();
        assert_eq!(report.physical.draws, 6_000);
        assert!(report.commits > 0, "the simulation must make progress");
        // SID commits always carry the partner's ID (= vertex): every
        // commit is locatable and was adjacency-checked.
        assert_eq!(report.commits, report.located_commits);
    }

    #[test]
    fn graphical_skno_trace_passes_the_simulation_audit() {
        use ppfts_core::Skno;
        use ppfts_protocols::Epidemic;

        let ring = Topology::ring(8).unwrap();
        let sims: Vec<bool> = (0..8).map(|v| v == 0).collect();
        let mut runner =
            OneWayRunner::builder(OneWayModel::I3, Skno::graphical(Epidemic, 1, ring.clone()))
                .config(Skno::<Epidemic>::initial(&sims))
                .topology(ring.clone())
                .trace_sink(FullTrace::new())
                .seed(4)
                .build()
                .unwrap();
        runner.run(Batched(1), Stop::steps(30_000)).unwrap();
        let report = audit_simulation_topology(runner.trace().unwrap(), &ring).unwrap();
        assert!(report.commits > 0, "the simulation must make progress");
        // Graphical SKnO fills partner_id with the consumed run's origin
        // vertex, so its commits are locatable too.
        assert_eq!(report.commits, report.located_commits);
    }

    #[test]
    fn named_sid_handshake_partners_are_not_misread_as_vertices() {
        use ppfts_core::{NamedState, Sid, SidState, SimulatorState};
        use ppfts_engine::{OneWayFault, StepRecord};
        use ppfts_population::TableProtocol;

        // NamedSid commits name partners by *acquired name* (a
        // permutation of 1..=n), not by vertex. The audit must recognize
        // a commit whose partner_id equals the physically-met endpoint's
        // protocol ID as a handshake partner — the meeting itself is the
        // on-graph evidence — instead of misreading the name as a vertex
        // (name 5 is not a ring neighbor of vertex 1, yet the commit
        // below is entirely legitimate).
        let ring = Topology::ring(6).unwrap();
        let pairing = TableProtocol::builder(vec!['s', 'c', 'p', '_'])
            .rule(('c', 'p'), ('s', '_'))
            .rule(('p', 'c'), ('_', 's'))
            .build();
        // Vertex 0 acquired name 5, vertex 1 acquired name 2; name 5 is
        // mid-pairing with name 2, and name 2 locks — committing against
        // partner *name* 5.
        let sid = Sid::new(pairing);
        let mut starter_sid = SidState::new(5, 'c');
        let reactor_old_sid = SidState::new(2, 'p');
        starter_sid = sid.on_receive(&reactor_old_sid, &starter_sid);
        let reactor_new_sid = sid.on_receive(&starter_sid, &reactor_old_sid);
        assert_eq!(reactor_new_sid.last_commit().unwrap().partner_id, Some(5));
        let wrap = |sid: SidState<char>| NamedState::Simulating { sid };
        let mut trace: Trace<NamedState<char>, OneWayFault> = Trace::new();
        trace.push(StepRecord {
            index: 0,
            interaction: Interaction::new(0, 1).unwrap(),
            fault: OneWayFault::None,
            old_starter: wrap(starter_sid.clone()),
            old_reactor: wrap(reactor_old_sid),
            new_starter: wrap(starter_sid),
            new_reactor: wrap(reactor_new_sid),
        });
        let report = audit_simulation_topology(&trace, &ring).unwrap();
        assert_eq!(report.commits, 1);
        assert_eq!(report.located_commits, 1);
    }

    #[test]
    fn off_graph_injection_is_rejected_and_commits_nothing() {
        use ppfts_core::{Sid, SimulatorState};
        use ppfts_engine::Planned;
        use ppfts_population::TableProtocol;

        let ring = Topology::ring(6).unwrap();
        let pairing = TableProtocol::builder(vec!['s', 'c', 'p', '_'])
            .rule(('c', 'p'), ('s', '_'))
            .rule(('p', 'c'), ('_', 's'))
            .build();
        let sims = ['c', 'p', 'c', 'p', 'c', 'p'];
        let mut runner =
            OneWayRunner::builder(OneWayModel::Io, Sid::graphical(pairing, ring.clone()))
                .config(Sid::<TableProtocol<char>>::initial(&sims))
                .topology(ring.clone())
                .trace_sink(FullTrace::new())
                .build()
                .unwrap();
        // `apply_planned` bypasses the scheduler: deal the chord (0, 3),
        // which the ring does not have, three times — the full handshake
        // length, were it legal.
        let chord = Interaction::new(0, 3).unwrap();
        runner
            .apply_planned([
                Planned::ok(chord),
                Planned::ok(Interaction::new(3, 0).unwrap()),
                Planned::ok(chord),
            ])
            .unwrap();
        // The graphical guard refused the handshake: nobody paired,
        // locked or committed off-graph.
        for q in runner.config().as_slice() {
            assert_eq!(q.commit_count(), 0);
            assert_eq!(q.phase(), ppfts_core::SidPhase::Available);
        }
        // And the audit rejects the trace, naming the chord.
        let err = audit_simulation_topology(runner.trace().unwrap(), &ring).unwrap_err();
        match err {
            SimulationTopologyViolation::Physical(v) => {
                assert_eq!(v.index, 0);
                assert_eq!(v.interaction, chord);
            }
            other => panic!("expected a physical violation, got {other:?}"),
        }
    }

    #[test]
    fn off_graph_commit_is_rejected_by_the_simulation_audit() {
        use ppfts_core::{Sid, SidState};
        use ppfts_engine::{OneWayFault, StepRecord};
        use ppfts_population::TableProtocol;

        let ring = Topology::ring(8).unwrap();
        let pairing = TableProtocol::builder(vec!['s', 'c', 'p', '_'])
            .rule(('c', 'p'), ('s', '_'))
            .rule(('p', 'c'), ('_', 's'))
            .build();
        // Forge a commit whose partner vertex (5) is not a ring neighbor
        // of the committing agent (1): run the *anonymous* Sid handshake
        // between IDs 5 and 1, then wrap the resulting states in a
        // record whose physical interaction is a legal ring arc (0, 1).
        let sid = Sid::new(pairing);
        let mut starter = SidState::new(5, 'c');
        let reactor_old = SidState::new(1, 'p');
        // 5 pairs with 1, then 1 locks onto 5 — committing against
        // partner_id Some(5).
        starter = sid.on_receive(&reactor_old, &starter); // 5 pairs with 1
        let reactor_new = sid.on_receive(&starter, &reactor_old); // 1 locks, commits
        assert_eq!(reactor_new.partner_id(), Some(5));
        let mut trace: Trace<SidState<char>, OneWayFault> = Trace::new();
        trace.push(StepRecord {
            index: 0,
            interaction: Interaction::new(0, 1).unwrap(),
            fault: OneWayFault::None,
            old_starter: SidState::new(0, 'c'),
            old_reactor: reactor_old,
            new_starter: SidState::new(0, 'c'),
            new_reactor: reactor_new,
        });
        let err = audit_simulation_topology(&trace, &ring).unwrap_err();
        assert_eq!(
            err,
            SimulationTopologyViolation::Simulated {
                index: 0,
                agent: 1,
                partner: 5
            }
        );
        assert!(err.to_string().contains("not a graph neighbor"));
    }

    #[test]
    fn empty_trace_reports_zero_coverage() {
        let ring = Topology::ring(4).unwrap();
        let trace: Trace<bool, ppfts_engine::OneWayFault> = Trace::new();
        let report = audit_trace_topology(&trace, &ring).unwrap();
        assert_eq!(report.covered, 0);
        assert_eq!(report.draws, 0);
        assert!(!report.is_full());
        assert_eq!(report.max_deviation(), 0.0);
    }
}
