//! Exhaustive budgeted model checking of small populations.
//!
//! A globally-fair (GF) execution eventually visits exactly the
//! configurations of one **terminal strongly-connected component** of the
//! reachability graph, so a population stably computes a property iff
//! every terminal SCC it can reach satisfies it. The paper's tolerance
//! claims quantify, in addition, over an **adversary** that may lose up
//! to `o` transmissions anywhere in the run. A node of the search space is
//! therefore a pair *(configuration, omissions spent)*: fault-free edges
//! stay on their level, and omission edges descend one budget level until
//! the `o` budget is exhausted.
//!
//! The verdict is exact, not sampled. An execution with at most `o`
//! omissions performs them at finitely many points; after the last one it
//! is an ordinary globally-fair fault-free execution from wherever the
//! adversary left the system. So the protocol *converges from every
//! reachable configuration* iff for **every** configuration reachable
//! under the budget, every terminal SCC of the **fault-free** transition
//! graph reachable from it satisfies the target predicate. Stall-freedom
//! is subsumed: a reachable deadlock is a singleton terminal SCC that
//! fails the predicate.
//!
//! One explorer, [`check`], serves one-way and two-way programs: the
//! model's [`Family`] supplies the faults and [`Program`] the successor
//! function. Local states are interned to `u32` ids and a configuration
//! is an id array, one entry per agent. A program bound to no interaction
//! graph (`required_topology()` is `None`) treats its agents
//! symmetrically, so its arrays are kept sorted and permutations of agents
//! collapse into one node. A graphical program addresses agents by vertex,
//! so its arrays keep the per-agent order and interactions range over the
//! graph's arcs. Edges are stored in CSR form, each labelled with the
//! interacting pair and the fault.
//!
//! Counterexamples are BFS-shortest traces, realized as per-agent
//! `Planned` steps that [`Trace::replay`] runs through the engine.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

use ppfts_engine::{EngineError, Family, Planned, Program, Runner};
use ppfts_population::{Configuration, Interaction, Multiset, State, Topology};

/// Exploration failed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExploreError {
    /// The budgeted search space exceeded the node cap.
    TooManyNodes {
        /// The cap that was hit.
        limit: usize,
    },
    /// A graphical program was given an initial configuration that does
    /// not span exactly its interaction graph's vertices.
    TopologySizeMismatch {
        /// Vertices of the program's topology.
        topology: usize,
        /// Agents in the initial configuration.
        population: usize,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::TooManyNodes { limit } => {
                write!(f, "budgeted search space exceeded {limit} nodes")
            }
            ExploreError::TopologySizeMismatch {
                topology,
                population,
            } => write!(
                f,
                "program topology has {topology} vertices but the configuration has \
                 {population} agents"
            ),
        }
    }
}

impl Error for ExploreError {}

/// Outcome of an exhaustive check: either a proof (the predicate holds in
/// every terminal SCC reachable from every budget-reachable
/// configuration) or a concrete counterexample trace.
#[derive(Clone, Debug)]
pub enum Verdict<T> {
    /// The property holds from every reachable configuration.
    Proved,
    /// A reachable configuration from which some fair fault-free
    /// execution stabilizes without the predicate — with the trace that
    /// reaches it.
    Counterexample(T),
}

impl<T> Verdict<T> {
    /// Whether the check proved the property.
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved)
    }

    /// The counterexample, if one was found.
    pub fn counterexample(&self) -> Option<&T> {
        match self {
            Verdict::Proved => None,
            Verdict::Counterexample(t) => Some(t),
        }
    }
}

/// A counterexample: a BFS-shortest budgeted trace from the initial
/// configuration to a configuration inside a terminal SCC that violates
/// the predicate.
#[derive(Clone, Debug)]
pub struct Trace<Q, F> {
    /// The steps, in execution order, over the agent indices of the
    /// initial configuration — replayable via [`Trace::replay`].
    pub steps: Vec<Planned<F>>,
    /// The violating per-agent configuration the trace ends in.
    pub witness: Vec<Q>,
}

impl<Q: State, F: Copy> Trace<Q, F> {
    /// Applies the steps from `initial` in a runner built from `model`,
    /// `program` and the program's interaction graph (the complete graph
    /// for a program bound to none), and returns the configuration the
    /// runner ends in: the [`witness`](Trace::witness), for a trace that
    /// the engine confirms.
    ///
    /// # Errors
    ///
    /// The [`EngineError`] that building the runner or applying a step
    /// raised.
    pub fn replay<M, P>(&self, model: M, program: P, initial: &[Q]) -> Result<Vec<Q>, EngineError>
    where
        M: Family<Fault = F>,
        P: Program<M, State = Q>,
    {
        let len = initial.len();
        let topology = match program.required_topology() {
            Some(graph) => graph.clone(),
            None => Topology::complete(len).map_err(|_| EngineError::InvalidPopulation { len })?,
        };
        let mut runner = Runner::builder(model, program)
            .topology(topology)
            .config(Configuration::new(initial.to_vec()))
            .build()?;
        runner.apply_planned(self.steps.iter().copied())?;
        Ok(runner.config().as_slice().to_vec())
    }
}

/// A configuration whose unanimous output can still flip: the config, its
/// current unanimous output, and a different unanimous output reachable
/// from it.
#[derive(Clone, Debug)]
pub struct OutputFlip<Q: State, Y> {
    /// The configuration with premature unanimity.
    pub config: Multiset<Q>,
    /// Its unanimous output.
    pub output: Y,
    /// A different unanimous output still reachable from it.
    pub flips_to: Y,
}

/// Local states by id; the table and the list share one copy of each.
#[derive(Clone, Debug)]
struct Interner<Q: State> {
    table: FxMap<Arc<Q>, u32>,
    states: Vec<Arc<Q>>,
}

impl<Q: State> Interner<Q> {
    fn intern(&mut self, q: Q) -> u32 {
        if let Some(&id) = self.table.get(&q) {
            return id;
        }
        let id = id(self.states.len());
        let q = Arc::new(q);
        self.table.insert(Arc::clone(&q), id);
        self.states.push(q);
        id
    }

    fn state(&self, id: u32) -> &Q {
        &self.states[id as usize]
    }
}

/// Rustc's Fx hash. The explorer hashes only its own states and id
/// arrays, never outside input, so it needs speed, not collision
/// resistance; interning is most of its work.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

fn id(index: usize) -> u32 {
    u32::try_from(index).expect("explored spaces have fewer than 2^32 states, nodes and edges")
}

/// The budgeted state space of a small population, explored exhaustively,
/// with the verdict on the checked property.
#[derive(Clone, Debug)]
pub struct Exploration<Q: State, F> {
    /// Budgeted search nodes explored ((configuration, spent) pairs).
    pub nodes: usize,
    /// Distinct configurations reachable under the budget.
    pub configs: usize,
    /// The verdict.
    pub verdict: Verdict<Trace<Q, F>>,
    interner: Interner<Q>,
    /// Agents per configuration: configuration `c` is
    /// `arena[c * n..(c + 1) * n]`.
    n: usize,
    arena: Vec<u32>,
    config_of: Vec<u32>,
    /// CSR: the edges of node `u` are `offsets[u]..offsets[u + 1]`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    /// Per edge: the index of the interacting pair, and the fault.
    labels: Vec<(u32, F)>,
}

impl<Q: State, F: Copy + Default + PartialEq> Exploration<Q, F> {
    fn ids(&self, config: usize) -> &[u32] {
        &self.arena[config * self.n..(config + 1) * self.n]
    }

    fn config(&self, config: usize) -> Vec<Q> {
        self.ids(config)
            .iter()
            .map(|&q| self.interner.state(q).clone())
            .collect()
    }

    fn edges(&self, node: usize) -> Range<usize> {
        self.offsets[node]..self.offsets[node + 1]
    }

    /// Every distinct configuration reachable under the budget: sorted by
    /// interned id for an agent-symmetric program, per agent for a
    /// graphical one.
    pub fn reachable(&self) -> impl Iterator<Item = Vec<Q>> + '_ {
        (0..self.configs).map(|c| self.config(c))
    }

    /// Whether `pred` holds in every reachable configuration (a global
    /// invariant, e.g. Pairing safety).
    ///
    /// # Example
    ///
    /// ```
    /// use ppfts_analyze::check;
    /// use ppfts_engine::TwoWayModel;
    /// use ppfts_protocols::{Pairing, PairingState};
    ///
    /// let paired = |c: &[PairingState]| c.iter().filter(|q| **q == PairingState::Paired).count();
    /// let initial = Pairing::initial(2, 1);
    /// let check = check(TwoWayModel::Tw, &Pairing, initial.as_slice(), 0, 10_000, |c| {
    ///     paired(c) == 1
    /// })?;
    /// // Pairing liveness, *proved* for n = 3: every GF execution stabilizes
    /// // with exactly min(2, 1) = 1 paired consumer.
    /// assert!(check.verdict.is_proved());
    /// // And safety is a global invariant.
    /// assert!(check.invariant(|c| paired(c) <= 1));
    /// # Ok::<(), ppfts_analyze::ExploreError>(())
    /// ```
    pub fn invariant(&self, mut pred: impl FnMut(&[Q]) -> bool) -> bool {
        self.reachable().all(|c| pred(&c))
    }

    /// Whether some reachable configuration has exactly the multiset of
    /// states `config` — the soundness contract the proptest harness
    /// checks against observed simulation states.
    pub fn is_reachable(&self, config: &Multiset<Q>) -> bool {
        self.reachable()
            .any(|c| config.same_as(&c.into_iter().collect()))
    }

    /// Reachable configurations whose unanimous output is not yet stable:
    /// some continuation reaches unanimity on a *different* value. This
    /// powers the output-instability lint.
    pub fn output_flips<Y: Clone + PartialEq>(
        &self,
        mut output: impl FnMut(&Q) -> Y,
    ) -> Vec<OutputFlip<Q, Y>> {
        let unanimity: Vec<Option<Y>> = (0..self.configs)
            .map(|c| {
                let mut it = self.ids(c).iter().map(|&q| output(self.interner.state(q)));
                let first = it.next()?;
                it.all(|y| y == first).then_some(first)
            })
            .collect();
        let mut outputs: Vec<Y> = Vec::new();
        for y in unanimity.iter().flatten() {
            if !outputs.contains(y) {
                outputs.push(y.clone());
            }
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); self.nodes];
        for u in 0..self.nodes {
            for e in self.edges(u) {
                preds[self.targets[e] as usize].push(u);
            }
        }
        let unanimous = |u: usize| unanimity[self.config_of[u] as usize].as_ref();

        // can_reach[k][u]: node u can reach unanimity on outputs[k].
        let can_reach: Vec<Vec<bool>> = outputs
            .iter()
            .map(|y| {
                let mut seen: Vec<bool> =
                    (0..self.nodes).map(|u| unanimous(u) == Some(y)).collect();
                let mut queue: Vec<usize> = (0..self.nodes).filter(|&u| seen[u]).collect();
                while let Some(v) = queue.pop() {
                    for &u in &preds[v] {
                        if !seen[u] {
                            seen[u] = true;
                            queue.push(u);
                        }
                    }
                }
                seen
            })
            .collect();

        let mut flagged = vec![false; self.configs];
        let mut flips = Vec::new();
        for (u, &c) in self.config_of.iter().enumerate() {
            let c = c as usize;
            let Some(y) = &unanimity[c] else { continue };
            if flagged[c] {
                continue;
            }
            if let Some(k) = (0..outputs.len()).find(|&k| outputs[k] != *y && can_reach[k][u]) {
                flagged[c] = true;
                flips.push(OutputFlip {
                    config: self.config(c).into_iter().collect(),
                    output: y.clone(),
                    flips_to: outputs[k].clone(),
                });
            }
        }
        flips
    }

    /// Marks the nodes that lie in a terminal SCC of the fault-free graph:
    /// the configurations a fair fault-free execution can settle in.
    /// Iterative Tarjan, since the spaces run to hundreds of thousands of
    /// nodes.
    fn terminal_nodes(&self) -> Vec<bool> {
        const UNSEEN: usize = usize::MAX;
        let fault_free = |e: usize| self.labels[e].1 == F::default();
        let n = self.nodes;
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0; n];
        // A visited node is on Tarjan's stack until its component is set.
        let mut comp = vec![UNSEEN; n];
        let mut comps = 0;
        let mut next = 0;
        let mut stack: Vec<usize> = Vec::new();
        // Explicit DFS stack: (node, next edge).
        let mut call: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index[root] != UNSEEN {
                continue;
            }
            index[root] = next;
            low[root] = next;
            next += 1;
            stack.push(root);
            call.push((root, self.offsets[root]));
            while let Some(&mut (u, ref mut e)) = call.last_mut() {
                if *e < self.offsets[u + 1] {
                    let edge = *e;
                    *e += 1;
                    if !fault_free(edge) {
                        continue;
                    }
                    let v = self.targets[edge] as usize;
                    if index[v] == UNSEEN {
                        index[v] = next;
                        low[v] = next;
                        next += 1;
                        stack.push(v);
                        call.push((v, self.offsets[v]));
                    } else if comp[v] == UNSEEN {
                        low[u] = low[u].min(index[v]);
                    }
                } else {
                    call.pop();
                    if let Some(&(p, _)) = call.last() {
                        low[p] = low[p].min(low[u]);
                    }
                    if low[u] == index[u] {
                        loop {
                            let w = stack.pop().expect("tarjan stack holds the component");
                            comp[w] = comps;
                            if w == u {
                                break;
                            }
                        }
                        comps += 1;
                    }
                }
            }
        }
        // A component is terminal iff no fault-free edge leaves it.
        let mut leaves = vec![false; comps];
        for u in 0..n {
            for e in self.edges(u) {
                if fault_free(e) && comp[self.targets[e] as usize] != comp[u] {
                    leaves[comp[u]] = true;
                }
            }
        }
        comp.iter().map(|&c| !leaves[c]).collect()
    }
}

/// Exhaustively checks `program` under the `(budget, model)` omission
/// adversary, in either interaction family.
///
/// Proves that from **every** configuration reachable with at most
/// `budget` omissions, every globally-fair fault-free continuation
/// stabilizes into configurations satisfying `pred` — or extracts a
/// shortest counterexample trace. Interactions range over every ordered
/// pair of agents, or over the arcs of the program's required topology
/// for a graphical program. `pred` sees a configuration in id order for
/// an agent-symmetric program and per agent for a graphical one.
///
/// # Errors
///
/// [`ExploreError::TooManyNodes`] if the budgeted space exceeds
/// `max_nodes`; [`ExploreError::TopologySizeMismatch`] if a graphical
/// program's graph does not have exactly `initial.len()` vertices.
///
/// # Example
///
/// ```
/// use ppfts_analyze::check;
/// use ppfts_engine::TwoWayModel;
/// use ppfts_protocols::Epidemic;
///
/// let mut initial = vec![false; 10];
/// initial[0] = true;
/// let check = check(TwoWayModel::T1, &Epidemic, &initial, 1, 100_000, |c| {
///     c.iter().all(|&b| b)
/// })?;
/// // Epidemic still floods at n = 10 under one adversarial omission.
/// assert!(check.verdict.is_proved());
/// # Ok::<(), ppfts_analyze::ExploreError>(())
/// ```
pub fn check<M, P>(
    model: M,
    program: &P,
    initial: &[P::State],
    budget: u32,
    max_nodes: usize,
    mut pred: impl FnMut(&[P::State]) -> bool,
) -> Result<Exploration<P::State, M::Fault>, ExploreError>
where
    M: Family,
    P: Program<M>,
{
    // One BFS over `(configuration, spent)` nodes; the fault-free
    // decoration is `M::Fault::default()`.
    let (topology, faults) = (program.required_topology(), model.permitted_faults());
    let step = |s: &P::State, r: &P::State, fault| {
        program
            .outcome(model, s, r, fault)
            .expect("fault is permitted by the model")
    };
    let n = initial.len();
    let pairs: Vec<(usize, usize)> = match topology {
        Some(t) if t.len() != n => {
            return Err(ExploreError::TopologySizeMismatch {
                topology: t.len(),
                population: n,
            })
        }
        Some(t) => (0..t.arc_count())
            .map(|a| (t.arc(a).starter().index(), t.arc(a).reactor().index()))
            .collect(),
        None => (0..n)
            .flat_map(|s| (0..n).filter(move |&r| r != s).map(move |r| (s, r)))
            .collect(),
    };
    // Agents of a program bound to no graph are interchangeable, so a
    // configuration is canonical once its ids are sorted.
    let symmetric = topology.is_none();
    let canonical = |ids: &mut [u32]| {
        if symmetric {
            ids.sort_unstable();
        }
    };

    let mut interner = Interner {
        table: FxMap::default(),
        states: Vec::new(),
    };
    let agents: Vec<u32> = initial.iter().map(|q| interner.intern(q.clone())).collect();
    let mut root = agents.clone();
    canonical(&mut root);
    let mut config_ids: FxMap<Box<[u32]>, u32> = FxMap::default();
    config_ids.insert(root.clone().into(), 0);
    let mut node_ids: FxMap<(u32, u32), u32> = FxMap::default();
    node_ids.insert((0, 0), 0);
    let mut spent = vec![0u32];
    // BFS tree: (parent node, edge) per node; the root's entry is unused.
    let mut parent = vec![(0u32, 0u32)];
    let mut x = Exploration {
        nodes: 1,
        configs: 1,
        verdict: Verdict::Proved,
        interner,
        n,
        arena: root,
        config_of: vec![0],
        offsets: vec![0],
        targets: Vec::new(),
        labels: Vec::new(),
    };

    // Nodes are numbered in discovery order, so visiting them by index is
    // the BFS, and each node's edges are appended contiguously.
    let mut succ = vec![0u32; n];
    let mut u = 0;
    while u < x.config_of.len() {
        let (cfg, used) = (x.config_of[u] as usize, spent[u]);
        for (p, &(s, r)) in pairs.iter().enumerate() {
            for &fault in faults {
                let omissive = M::is_omissive(fault);
                if omissive && used >= budget {
                    continue;
                }
                let base = &x.arena[cfg * n..(cfg + 1) * n];
                succ.copy_from_slice(base);
                let (s2, r2) = step(x.interner.state(base[s]), x.interner.state(base[r]), fault);
                succ[s] = x.interner.intern(s2);
                succ[r] = x.interner.intern(r2);
                canonical(&mut succ);
                let c = match config_ids.get(&succ[..]) {
                    Some(&c) => c,
                    None => {
                        let c = id(config_ids.len());
                        config_ids.insert(succ.clone().into(), c);
                        x.arena.extend_from_slice(&succ);
                        c
                    }
                };
                let key = (c, used + u32::from(omissive));
                let v = match node_ids.get(&key) {
                    Some(&v) => v,
                    None => {
                        if x.config_of.len() >= max_nodes {
                            return Err(ExploreError::TooManyNodes { limit: max_nodes });
                        }
                        let v = id(x.config_of.len());
                        node_ids.insert(key, v);
                        x.config_of.push(c);
                        spent.push(key.1);
                        parent.push((id(u), id(x.targets.len())));
                        v
                    }
                };
                x.targets.push(v);
                x.labels.push((id(p), fault));
            }
        }
        x.offsets.push(x.targets.len());
        u += 1;
    }
    x.nodes = x.config_of.len();
    x.configs = config_ids.len();

    let terminal = x.terminal_nodes();
    let Some(bad) =
        (0..x.nodes).find(|&v| terminal[v] && !pred(&x.config(x.config_of[v] as usize)))
    else {
        return Ok(x);
    };
    let mut path = Vec::new();
    let mut at = bad;
    while at != 0 {
        let (prev, edge) = parent[at];
        path.push(edge as usize);
        at = prev as usize;
    }
    // Replay the BFS path on the initial configuration's own agents. A
    // label names positions in its source node's canonical array; in a
    // sorted array, position k holds the k-th agent in id order.
    let mut agents = agents;
    let mut order: Vec<usize> = (0..n).collect();
    let mut steps = Vec::with_capacity(path.len());
    for &edge in path.iter().rev() {
        let (p, fault) = x.labels[edge];
        if symmetric {
            order.sort_by_key(|&a| agents[a]);
        }
        let (s, r) = pairs[p as usize];
        let (a, b) = (order[s], order[r]);
        let (s2, r2) = step(
            x.interner.state(agents[a]),
            x.interner.state(agents[b]),
            fault,
        );
        agents[a] = x.interner.intern(s2);
        agents[b] = x.interner.intern(r2);
        steps.push(Planned::new(
            Interaction::new(a, b).expect("pairs join distinct agents"),
            fault,
        ));
    }
    let witness = agents
        .iter()
        .map(|&q| x.interner.state(q).clone())
        .collect();
    x.verdict = Verdict::Counterexample(Trace { steps, witness });
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_core::{SimulatorState, Skno};
    use ppfts_engine::{OneWayFault, OneWayModel, TwoWayModel};
    use ppfts_population::Semantics;
    use ppfts_protocols::majority_states::{SX, SY};
    use ppfts_protocols::{Epidemic, ExactMajority, MajorityOpinion, Remainder};

    fn epidemic(infected: usize, clean: usize) -> Vec<bool> {
        [vec![true; infected], vec![false; clean]].concat()
    }

    #[test]
    fn epidemic_proved_at_n10_under_one_omission() {
        for o in [0, 1] {
            let check = check(
                TwoWayModel::T1,
                &Epidemic,
                &epidemic(1, 9),
                o,
                100_000,
                |c| c.iter().all(|&b| b),
            )
            .unwrap();
            assert!(check.verdict.is_proved(), "o = {o}");
            // n = 10 with 2 states: at most 11 configurations per level.
            assert!(check.configs <= 11);
        }
    }

    #[test]
    fn exact_majority_margin_2_survives_one_omission() {
        let initial = [vec![SX; 6], vec![SY; 4]].concat();
        for o in [0, 1] {
            let check = check(
                TwoWayModel::T1,
                &ExactMajority,
                &initial,
                o,
                1_000_000,
                |c| {
                    c.iter()
                        .all(|q| ExactMajority.output(q) == MajorityOpinion::X)
                },
            )
            .unwrap();
            assert!(check.verdict.is_proved(), "o = {o}");
        }
    }

    #[test]
    fn remainder_counterexample_under_omission_replays() {
        // Parity of four 1-inputs is even; a starter-side omission in an
        // active/active merge loses a unit and flips the stable answer.
        let parity = Remainder::new(2, 0);
        let initial = parity.initial_configuration(&[1, 1, 1, 1]);
        let check = check(
            TwoWayModel::T1,
            &parity,
            initial.as_slice(),
            1,
            200_000,
            |c| c.iter().all(|q| q.opinion),
        )
        .unwrap();
        let trace = check
            .verdict
            .counterexample()
            .expect("omissions break the remainder sum")
            .clone();
        assert!(trace.steps.iter().any(|s| s.fault.is_omissive()));

        // The extracted trace replays through the dense runner and lands
        // exactly on the witness configuration.
        let end = trace.replay(TwoWayModel::T1, parity, initial.as_slice());
        assert_eq!(end.unwrap(), trace.witness);
    }

    /// One-way epidemic: the reactor absorbs the starter's infection bit.
    struct Gossip;

    impl ppfts_engine::OneWayProgram for Gossip {
        type State = bool;

        fn on_receive(&self, s: &bool, r: &bool) -> bool {
            *s || *r
        }
    }

    #[test]
    fn dense_checker_proves_one_way_epidemic() {
        let check = check(
            OneWayModel::Io,
            &Gossip,
            &[true, false, false],
            0,
            100_000,
            |states| states.iter().all(|b| *b),
        )
        .unwrap();
        assert!(check.verdict.is_proved());
    }

    #[test]
    fn dense_counterexample_replays_through_the_runner() {
        // An impossible target (all agents false from a seeded infection)
        // makes every terminal SCC a violation; the extracted trace must
        // replay through the engine to the checker's exact witness. The
        // second case seeds an agent that is not first in id order, so
        // the replay must map sorted positions back to agents.
        for initial in [vec![true, false], vec![false, false, true, false]] {
            let check = check(OneWayModel::Io, &Gossip, &initial, 0, 10_000, |states| {
                states.iter().all(|b| !*b)
            })
            .unwrap();
            let trace = check.verdict.counterexample().unwrap().clone();
            assert!(!trace.steps.is_empty());
            let end = trace.replay(OneWayModel::Io, Gossip, &initial);
            assert_eq!(end.unwrap(), trace.witness);
        }
    }

    #[test]
    fn node_cap_is_enforced() {
        let initial = [vec![SX; 4], vec![SY; 3]].concat();
        let err = check(TwoWayModel::T1, &ExactMajority, &initial, 2, 3, |_| true).unwrap_err();
        assert_eq!(err, ExploreError::TooManyNodes { limit: 3 });
    }

    #[test]
    fn larger_topology_than_population_is_rejected() {
        let ring = Topology::ring(4).unwrap();
        let skno = Skno::graphical(Epidemic, 0, ring);
        let initial = Skno::<Epidemic>::initial(&[true, false, false]);
        let err = check(OneWayModel::I3, &skno, initial.as_slice(), 0, 1_000, |_| {
            true
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExploreError::TopologySizeMismatch {
                topology: 4,
                population: 3
            }
        );
    }

    #[test]
    fn smaller_topology_than_population_is_rejected() {
        let path = Topology::from_edges(2, [(0, 1)]).unwrap();
        let skno = Skno::graphical(Epidemic, 0, path);
        let initial = Skno::<Epidemic>::initial(&[true, false, false]);
        let err = check(OneWayModel::I3, &skno, initial.as_slice(), 0, 1_000, |_| {
            true
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExploreError::TopologySizeMismatch {
                topology: 2,
                population: 3
            }
        );
    }

    /// Explores anonymous SKnO (sorted arrays) and its bit-identical
    /// complete-graph instance (per-agent arrays) from the same start.
    fn skno_both_ways(
        sims: &[bool],
        budget: u32,
    ) -> [Exploration<ppfts_core::SknoState<bool>, OneWayFault>; 2] {
        let initial = Skno::<Epidemic>::initial(sims);
        let n = sims.len();
        let flooded = |c: &[ppfts_core::SknoState<bool>]| c.iter().all(|q| *q.simulated());
        let sorted = check(
            OneWayModel::I3,
            &Skno::new(Epidemic, 1),
            initial.as_slice(),
            budget,
            1_000_000,
            flooded,
        )
        .unwrap();
        let complete = Skno::graphical(Epidemic, 1, Topology::complete(n).unwrap());
        let unsorted = check(
            OneWayModel::I3,
            &complete,
            initial.as_slice(),
            budget,
            1_000_000,
            flooded,
        )
        .unwrap();
        [sorted, unsorted]
    }

    #[test]
    fn symmetry_reduction_loses_nothing() {
        let [sorted, unsorted] = skno_both_ways(&[true, false], 1);
        assert!(sorted.verdict.is_proved() && unsorted.verdict.is_proved());
        let canonical = |x: &Exploration<_, _>| -> std::collections::HashSet<Multiset<_>> {
            x.reachable().map(|c| c.into_iter().collect()).collect()
        };
        assert_eq!(canonical(&sorted), canonical(&unsorted));
        assert_eq!(sorted.configs, canonical(&sorted).len());
    }

    /// The SKnO probe of EXPERIMENTS.md E14: anonymous `SKnO(o = 1)` over
    /// the epidemic at n = 3, fault-free under I3. Release-only (run with
    /// `cargo test --release -p ppfts-analyze -- --ignored`).
    #[test]
    #[ignore = "136,778 nodes: release builds only"]
    fn skno_probe_is_proved_at_n3() {
        let [sorted, unsorted] = skno_both_ways(&[true, false, false], 0);
        assert!(sorted.verdict.is_proved() && unsorted.verdict.is_proved());
        assert_eq!(sorted.nodes, 136_778);
        assert_eq!(unsorted.nodes, 136_778);
    }

    #[test]
    fn flock_premature_unanimity_is_flagged() {
        use ppfts_protocols::FlockOfBirds;
        let flock = FlockOfBirds::new(2);
        let initial = flock.initial_configuration(&[true, true, false]);
        // Initially every agent outputs false, yet the threshold 2 is
        // met: unanimity on false flips to unanimity on true.
        let flips = check(
            TwoWayModel::Tw,
            &flock,
            initial.as_slice(),
            0,
            100_000,
            |_| true,
        )
        .unwrap()
        .output_flips(|q| q.detected);
        assert!(flips
            .iter()
            .any(|f| !f.output && f.flips_to && f.config.same_as(&initial.counts())));
    }

    #[test]
    fn exact_majority_has_no_fault_free_output_flips() {
        let initial = [vec![SX; 3], vec![SY; 2]].concat();
        let flips = check(
            TwoWayModel::Tw,
            &ExactMajority,
            &initial,
            0,
            100_000,
            |_| true,
        )
        .unwrap()
        .output_flips(|q| ExactMajority.output(q));
        assert!(flips.is_empty(), "{flips:?}");
    }
}
