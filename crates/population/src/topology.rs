//! Interaction topologies: which pairs of agents may meet.
//!
//! Classic population protocols assume *any* pair can interact — the
//! complete interaction graph — and that assumption used to be hard-wired
//! into the scheduling layer. A [`Topology`] makes the interaction graph a
//! first-class value instead: an undirected, connected graph over the
//! agent indices whose edges are the meetings the scheduler may deal.
//! Restricted topologies are the setting of the *graphical* population
//! protocol literature (Angluin et al.'s original model already allowed
//! them; Alistarh–Gelashvili–Rybicki, *Fast Graphical Population
//! Protocols*, studies their convergence), and simulating on rings, grids
//! and expanders is what the workspace's E12 experiment measures.
//!
//! The graph is stored CSR-style — a flat neighbor array plus per-vertex
//! offsets — with one extra parallel array of arc tails so that drawing a
//! uniformly random *arc* (directed edge; both orientations of every
//! undirected edge) costs a single range draw and two array reads. The
//! complete graph is represented implicitly (no O(n²) materialization),
//! with arc draws consuming the RNG exactly like the classic uniform
//! ordered-pair scheduler, which is what makes complete-topology runs
//! bit-identical to historical uniform runs.
//!
//! Every constructor checks *connectivity*: on a disconnected graph no
//! scheduler is globally fair (opinions can never cross between
//! components), so such topologies are rejected with
//! [`TopologyError::Disconnected`] at construction rather than silently
//! failing to converge at run time.
//!
//! # Example
//!
//! ```
//! use ppfts_population::Topology;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let ring = Topology::ring(6)?;
//! assert_eq!(ring.len(), 6);
//! assert_eq!(ring.edge_count(), 6);
//! assert_eq!(ring.degree(0), 2);
//! assert!(ring.contains_arc(0, 5) && ring.contains_arc(5, 0));
//! assert!(!ring.contains_arc(0, 3));
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let i = ring.sample_arc(&mut rng);
//! assert!(ring.contains_arc(i.starter().index(), i.reactor().index()));
//! # Ok::<(), ppfts_population::TopologyError>(())
//! ```

use std::cell::RefCell;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Weak};

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::Interaction;

/// Maximum re-draws of the stub pairing before
/// [`Topology::random_regular`] gives up with
/// [`TopologyError::PairingFailed`]. The loop is hard-bounded so that
/// infeasible `(n, d)` parameterizations (a 1-regular graph on more than
/// two vertices can never be connected) terminate with a typed error.
const RANDOM_REGULAR_ATTEMPTS: usize = 400;

/// Largest vertex count for which [`Topology::conductance`] enumerates
/// every cut exactly; larger graphs get the spectral sweep-cut estimate.
const EXACT_CONDUCTANCE_LIMIT: usize = 16;

/// Power-iteration budget of the sweep-cut conductance estimate.
const SWEEP_POWER_ITERS: usize = 600;

/// Mixing-rate figures of a topology's lazy random walk, produced by
/// [`Topology::spectral_profile`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpectralProfile {
    /// Estimated second-largest eigenvalue of `½(I + D⁻¹A)`.
    pub lambda2: f64,
    /// `1 − λ₂`: the spectral gap governing the walk's mixing time.
    pub spectral_gap: f64,
    /// Power iterations actually performed before convergence (or the
    /// budget, whichever came first).
    pub iterations: usize,
}

/// Errors raised while constructing an interaction topology.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum TopologyError {
    /// The requested family needs more vertices than were supplied.
    TooSmall {
        /// Number of vertices supplied.
        len: usize,
        /// Minimum the family requires.
        min: usize,
    },
    /// The generated or supplied graph is not connected, so no scheduler
    /// over it can be globally fair.
    Disconnected {
        /// Vertices reachable from vertex 0.
        reachable: usize,
        /// Total vertices.
        len: usize,
    },
    /// An edge named a vertex outside `0..len`.
    VertexOutOfBounds {
        /// The offending vertex.
        vertex: usize,
        /// Number of vertices.
        len: usize,
    },
    /// An edge connected a vertex to itself.
    SelfLoop {
        /// The looping vertex.
        vertex: usize,
    },
    /// The same undirected edge was supplied twice.
    DuplicateEdge {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// A `d`-regular graph on `n` vertices needs `0 < d < n` and `n·d`
    /// even.
    InvalidDegree {
        /// Number of vertices.
        len: usize,
        /// Requested degree.
        degree: usize,
    },
    /// The Erdős–Rényi probability must lie in `(0, 1]`.
    InvalidProbability {
        /// The rejected value.
        p: f64,
    },
    /// The configuration-model stub pairing of
    /// [`Topology::random_regular`] exhausted its bounded retry budget
    /// without producing a simple *connected* draw. Raised for
    /// parameterizations where such draws are rare (very dense `d`) or
    /// impossible (`d = 1` on `n > 2` vertices is a perfect matching,
    /// never connected) — the retry loop is hard-bounded, so infeasible
    /// inputs terminate with this error instead of spinning.
    PairingFailed {
        /// Attempts made before giving up.
        attempts: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::TooSmall { len, min } => {
                write!(f, "topology needs at least {min} vertices, got {len}")
            }
            TopologyError::Disconnected { reachable, len } => {
                write!(
                    f,
                    "topology is disconnected: only {reachable} of {len} vertices reachable from vertex 0"
                )
            }
            TopologyError::VertexOutOfBounds { vertex, len } => {
                write!(f, "edge endpoint {vertex} out of bounds for {len} vertices")
            }
            TopologyError::SelfLoop { vertex } => {
                write!(f, "vertex {vertex} cannot neighbor itself")
            }
            TopologyError::DuplicateEdge { a, b } => {
                write!(f, "undirected edge ({a}, {b}) supplied more than once")
            }
            TopologyError::InvalidDegree { len, degree } => {
                write!(
                    f,
                    "no simple {degree}-regular graph on {len} vertices (need 0 < d < n and n·d even)"
                )
            }
            TopologyError::InvalidProbability { p } => {
                write!(f, "edge probability {p} outside (0, 1]")
            }
            TopologyError::PairingFailed { attempts } => {
                write!(
                    f,
                    "stub pairing produced no simple connected draw in {attempts} attempts \
                     (the requested (n, d) may admit none)"
                )
            }
        }
    }
}

impl Error for TopologyError {}

/// The family a [`Topology`] was constructed from, with its parameters —
/// used for labeling experiments and reports; the structure itself lives
/// in the adjacency.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum TopologyClass {
    /// Every pair of agents may meet (the classic PP assumption).
    Complete,
    /// A single cycle through all agents.
    Ring,
    /// One hub adjacent to every leaf.
    Star,
    /// A rows × cols 4-neighbor grid.
    Grid2d {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// A uniformly random simple `d`-regular graph.
    RandomRegular {
        /// Vertex degree.
        degree: usize,
        /// Generation seed.
        seed: u64,
    },
    /// An Erdős–Rényi `G(n, p)` draw, conditioned on connectivity.
    ErdosRenyi {
        /// Edge probability.
        p: f64,
        /// Generation seed.
        seed: u64,
    },
    /// Built from an explicit edge list.
    Custom,
}

impl fmt::Display for TopologyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyClass::Complete => write!(f, "complete"),
            TopologyClass::Ring => write!(f, "ring"),
            TopologyClass::Star => write!(f, "star"),
            TopologyClass::Grid2d { rows, cols } => write!(f, "grid{rows}x{cols}"),
            TopologyClass::RandomRegular { degree, .. } => write!(f, "rr{degree}"),
            TopologyClass::ErdosRenyi { p, .. } => write!(f, "er{p}"),
            TopologyClass::Custom => write!(f, "custom"),
        }
    }
}

/// Adjacency storage: the complete graph stays implicit (O(1) memory, and
/// arc draws that are bit-compatible with the classic uniform scheduler);
/// everything else is CSR.
#[derive(Clone, Debug, PartialEq)]
enum Repr {
    Complete {
        n: usize,
    },
    Csr {
        /// `offsets[v]..offsets[v + 1]` indexes `heads`/`tails` for `v`.
        offsets: Vec<usize>,
        /// Arc heads, sorted within each vertex's range.
        heads: Vec<u32>,
        /// Arc tails: `tails[a]` is the vertex whose range contains `a`.
        tails: Vec<u32>,
    },
}

/// An undirected, connected interaction graph over agent indices
/// `0..len`, stored so that uniform random *arc* (ordered-edge) draws are
/// O(1).
///
/// See the module docs for the role topologies play in the
/// scheduling layer and the example below for the query surface.
///
/// # Example
///
/// ```
/// use ppfts_population::Topology;
///
/// let grid = Topology::grid2d(2, 3)?;
/// assert_eq!(grid.len(), 6);
/// assert_eq!(grid.edge_count(), 7);
/// assert_eq!(grid.arc_count(), 14);
/// // Vertex 4 (row 1, col 1) touches its 3 grid neighbors.
/// let mut nbrs: Vec<usize> = grid.neighbors(4).collect();
/// nbrs.sort_unstable();
/// assert_eq!(nbrs, vec![1, 3, 5]);
/// # Ok::<(), ppfts_population::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct Topology {
    class: TopologyClass,
    repr: Arc<Repr>,
}

impl Clone for Topology {
    /// This thread's copy of the graph: the first clone on a thread copies
    /// the adjacency, and later clones there of the same graph share that
    /// copy. Two cores drawing from one L2-sized graph ran ≈ 20% slower
    /// than with a copy each (EXPERIMENTS.md E17).
    fn clone(&self) -> Self {
        thread_local! {
            static COPY: RefCell<Option<(Weak<Repr>, Arc<Repr>)>> = const { RefCell::new(None) };
        }
        let repr = COPY.with_borrow_mut(|slot| match slot {
            Some((of, copy))
                if of.as_ptr() == Arc::as_ptr(&self.repr) || Arc::ptr_eq(copy, &self.repr) =>
            {
                Arc::clone(copy)
            }
            _ => {
                let copy = Arc::new(Repr::clone(&self.repr));
                Arc::clone(&slot.insert((Arc::downgrade(&self.repr), copy)).1)
            }
        });
        let class = self.class.clone();
        Topology { class, repr }
    }
}

impl PartialEq for Topology {
    /// Same class and adjacency; shared adjacency skips the comparison.
    fn eq(&self, other: &Self) -> bool {
        self.class == other.class
            && (Arc::ptr_eq(&self.repr, &other.repr) || self.repr == other.repr)
    }
}

impl Topology {
    /// The complete graph on `n` agents — the interaction law every model
    /// of the reproduced paper assumes. Stored implicitly; never
    /// materializes O(n²) adjacency.
    ///
    /// # Errors
    ///
    /// [`TopologyError::TooSmall`] for `n < 2`.
    pub fn complete(n: usize) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::TooSmall { len: n, min: 2 });
        }
        Ok(Topology {
            class: TopologyClass::Complete,
            repr: Arc::new(Repr::Complete { n }),
        })
    }

    /// The cycle `0 — 1 — … — n−1 — 0`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::TooSmall`] for `n < 3` (a 2-cycle would be a
    /// duplicate edge).
    pub fn ring(n: usize) -> Result<Self, TopologyError> {
        if n < 3 {
            return Err(TopologyError::TooSmall { len: n, min: 3 });
        }
        let edges = (0..n).map(|v| (v, (v + 1) % n));
        Self::from_edges_classified(n, edges, TopologyClass::Ring)
    }

    /// The star with hub `0` and leaves `1..n`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::TooSmall`] for `n < 2`.
    pub fn star(n: usize) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::TooSmall { len: n, min: 2 });
        }
        let edges = (1..n).map(|v| (0, v));
        Self::from_edges_classified(n, edges, TopologyClass::Star)
    }

    /// The `rows × cols` 4-neighbor grid, vertices numbered row-major.
    ///
    /// # Errors
    ///
    /// [`TopologyError::TooSmall`] when the grid has fewer than 2 cells.
    pub fn grid2d(rows: usize, cols: usize) -> Result<Self, TopologyError> {
        let n = rows.checked_mul(cols).unwrap_or(0);
        if n < 2 {
            return Err(TopologyError::TooSmall { len: n, min: 2 });
        }
        let mut edges = Vec::with_capacity(2 * n);
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols));
                }
            }
        }
        Self::from_edges_classified(n, edges, TopologyClass::Grid2d { rows, cols })
    }

    /// A uniformly random simple connected `d`-regular graph on `n`
    /// vertices, generated by the configuration (stub-pairing) model with
    /// rejection of self-loops, duplicate edges and disconnected draws.
    /// Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::InvalidDegree`] unless `0 < d < n` and `n·d` is
    /// even; [`TopologyError::PairingFailed`] when the hard-bounded retry
    /// loop (400 draws) finds no simple connected graph — which covers
    /// both unlucky dense parameterizations and genuinely infeasible ones
    /// like `d = 1` on `n > 2` vertices (every 1-regular graph is a
    /// perfect matching, hence disconnected), so the constructor always
    /// terminates with a typed error instead of looping.
    pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::TooSmall { len: n, min: 2 });
        }
        if d == 0 || d >= n || !(n * d).is_multiple_of(2) {
            return Err(TopologyError::InvalidDegree { len: n, degree: d });
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let class = TopologyClass::RandomRegular { degree: d, seed };
        for _ in 0..RANDOM_REGULAR_ATTEMPTS {
            let mut stubs: Vec<u32> = (0..n as u32)
                .flat_map(|v| std::iter::repeat_n(v, d))
                .collect();
            // Fisher–Yates over the stub multiset.
            for i in (1..stubs.len()).rev() {
                let j = rng.gen_range(0..=i);
                stubs.swap(i, j);
            }
            let mut seen = HashSet::with_capacity(n * d / 2);
            let mut edges = Vec::with_capacity(n * d / 2);
            let simple = stubs.chunks_exact(2).all(|pair| {
                let (a, b) = (pair[0] as usize, pair[1] as usize);
                a != b && seen.insert((a.min(b), a.max(b))) && {
                    edges.push((a, b));
                    true
                }
            });
            if !simple {
                continue;
            }
            match Self::from_edges_classified(n, edges, class.clone()) {
                Ok(t) => return Ok(t),
                Err(TopologyError::Disconnected { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(TopologyError::PairingFailed {
            attempts: RANDOM_REGULAR_ATTEMPTS,
        })
    }

    /// An Erdős–Rényi `G(n, p)` draw, rejected (not resampled) if
    /// disconnected. Deterministic in `seed`; edge enumeration uses
    /// geometric skip-sampling (Batagelj–Brandes), so generation costs
    /// O(n + m), not O(n²) Bernoulli trials.
    ///
    /// # Errors
    ///
    /// [`TopologyError::InvalidProbability`] unless `0 < p ≤ 1`;
    /// [`TopologyError::Disconnected`] when the draw is disconnected
    /// (retry with another seed or a larger `p`; connectivity needs
    /// roughly `p > ln n / n`).
    pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::TooSmall { len: n, min: 2 });
        }
        if !(p > 0.0 && p <= 1.0) {
            return Err(TopologyError::InvalidProbability { p });
        }
        let class = TopologyClass::ErdosRenyi { p, seed };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        if p >= 1.0 {
            for a in 0..n {
                for b in (a + 1)..n {
                    edges.push((a, b));
                }
            }
        } else {
            // Walk the lexicographic edge list in geometric jumps: the
            // gap to the next present edge is Geometric(p).
            let total = n * (n - 1) / 2;
            let log1p = (1.0 - p).ln();
            let mut pos: usize = 0;
            while pos < total {
                let u = unit_f64(&mut rng);
                let skip = if u <= 0.0 {
                    total // ln(0) guard: jump past the end
                } else {
                    (u.ln() / log1p) as usize
                };
                pos = pos.saturating_add(skip);
                if pos >= total {
                    break;
                }
                edges.push(edge_at(n, pos));
                pos += 1;
            }
        }
        Self::from_edges_classified(n, edges, class)
    }

    /// Builds a topology from an explicit undirected edge list over
    /// vertices `0..n`.
    ///
    /// # Errors
    ///
    /// Rejects out-of-bounds endpoints, self-loops, duplicate edges
    /// (either orientation), and disconnected graphs; see
    /// [`TopologyError`].
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, TopologyError> {
        Self::from_edges_classified(n, edges, TopologyClass::Custom)
    }

    fn from_edges_classified(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
        class: TopologyClass,
    ) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::TooSmall { len: n, min: 2 });
        }
        let mut degree = vec![0usize; n];
        let mut undirected = Vec::new();
        let mut seen = HashSet::new();
        for (a, b) in edges {
            for v in [a, b] {
                if v >= n {
                    return Err(TopologyError::VertexOutOfBounds { vertex: v, len: n });
                }
            }
            if a == b {
                return Err(TopologyError::SelfLoop { vertex: a });
            }
            if !seen.insert((a.min(b), a.max(b))) {
                return Err(TopologyError::DuplicateEdge { a, b });
            }
            degree[a] += 1;
            degree[b] += 1;
            undirected.push((a, b));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let arcs = acc;
        let mut heads = vec![0u32; arcs];
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        for &(a, b) in &undirected {
            heads[cursor[a]] = b as u32;
            cursor[a] += 1;
            heads[cursor[b]] = a as u32;
            cursor[b] += 1;
        }
        let mut tails = vec![0u32; arcs];
        for v in 0..n {
            heads[offsets[v]..offsets[v + 1]].sort_unstable();
            tails[offsets[v]..offsets[v + 1]].fill(v as u32);
        }
        let topology = Topology {
            class,
            repr: Arc::new(Repr::Csr {
                offsets,
                heads,
                tails,
            }),
        };
        let reachable = topology.reachable_from_zero();
        if reachable != n {
            return Err(TopologyError::Disconnected { reachable, len: n });
        }
        Ok(topology)
    }

    /// Number of agents (vertices).
    pub fn len(&self) -> usize {
        match &*self.repr {
            Repr::Complete { n } => *n,
            Repr::Csr { offsets, .. } => offsets.len() - 1,
        }
    }

    /// Always `false`: every constructor requires at least two vertices.
    /// Present for `len`/`is_empty` API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The family this topology was constructed from.
    pub fn class(&self) -> &TopologyClass {
        &self.class
    }

    /// Whether this is the (implicit) complete graph — the only topology
    /// whose interaction law a count-based population backend can realize
    /// from state multiplicities alone.
    pub fn is_complete(&self) -> bool {
        matches!(*self.repr, Repr::Complete { .. })
    }

    /// Number of undirected edges `m`.
    pub fn edge_count(&self) -> usize {
        self.arc_count() / 2
    }

    /// Number of arcs (ordered edges): `2m`.
    pub fn arc_count(&self) -> usize {
        match &*self.repr {
            Repr::Complete { n } => n * (n - 1),
            Repr::Csr { heads, .. } => heads.len(),
        }
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn degree(&self, v: usize) -> usize {
        match &*self.repr {
            Repr::Complete { n } => {
                assert!(v < *n, "vertex {v} out of bounds for {n}");
                n - 1
            }
            Repr::Csr { offsets, .. } => offsets[v + 1] - offsets[v],
        }
    }

    /// Iterates over the neighbors of `v` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        match &*self.repr {
            Repr::Complete { n } => {
                assert!(v < *n, "vertex {v} out of bounds for {n}");
                Neighbors::Complete { v, next: 0, n: *n }
            }
            Repr::Csr { offsets, heads, .. } => Neighbors::Csr {
                heads: &heads[offsets[v]..offsets[v + 1]],
            },
        }
    }

    /// Whether the arc `(u, v)` exists, i.e. agents `u` and `v` are
    /// adjacent (arcs come in both orientations, so this is symmetric).
    pub fn contains_arc(&self, u: usize, v: usize) -> bool {
        let n = self.len();
        if u >= n || v >= n || u == v {
            return false;
        }
        match &*self.repr {
            Repr::Complete { .. } => true,
            Repr::Csr { offsets, heads, .. } => heads[offsets[u]..offsets[u + 1]]
                .binary_search(&(v as u32))
                .is_ok(),
        }
    }

    /// The canonical index of arc `(u, v)` in `0..arc_count()`, or `None`
    /// if the arc does not exist. Inverse of [`arc`](Topology::arc); used
    /// by the coverage audits to tally per-arc hit counts.
    pub fn arc_index(&self, u: usize, v: usize) -> Option<usize> {
        let n = self.len();
        if u >= n || v >= n || u == v {
            return None;
        }
        match &*self.repr {
            Repr::Complete { .. } => Some(u * (n - 1) + v - usize::from(v > u)),
            Repr::Csr { offsets, heads, .. } => heads[offsets[u]..offsets[u + 1]]
                .binary_search(&(v as u32))
                .ok()
                .map(|k| offsets[u] + k),
        }
    }

    /// The arc with canonical index `a`, as an [`Interaction`] (tail =
    /// starter, head = reactor).
    ///
    /// # Panics
    ///
    /// Panics if `a >= arc_count()`.
    pub fn arc(&self, a: usize) -> Interaction {
        match &*self.repr {
            Repr::Complete { n } => {
                assert!(a < n * (n - 1), "arc index {a} out of bounds");
                let s = a / (n - 1);
                let mut r = a % (n - 1);
                if r >= s {
                    r += 1;
                }
                Interaction::new(s, r).expect("distinct by construction")
            }
            Repr::Csr { heads, tails, .. } => {
                Interaction::new(tails[a] as usize, heads[a] as usize)
                    .expect("no self-loops by construction")
            }
        }
    }

    /// Draws a uniformly random arc — the graph-aware generalization of
    /// the uniform ordered-pair law (to which it specializes, RNG-stream
    /// compatibly, on the complete topology).
    ///
    /// On the complete graph this is [`Interaction::sample`], the uniform
    /// scheduler's draw, so complete-topology runs are bit-identical to
    /// uniform-scheduler runs; on CSR topologies it consumes one range
    /// draw over the arc array.
    ///
    /// Generic over the RNG, so a concrete RNG (the engine's `SmallRng`,
    /// sweep jobs, fuzzers) inlines the range draws; `&mut dyn RngCore`
    /// is accepted too.
    pub fn sample_arc<R: RngCore + ?Sized>(&self, rng: &mut R) -> Interaction {
        match &*self.repr {
            Repr::Complete { n } => Interaction::sample(*n, rng),
            Repr::Csr { heads, tails, .. } => {
                let a = rng.gen_range(0..heads.len());
                Interaction::new(tails[a] as usize, heads[a] as usize)
                    .expect("no self-loops by construction")
            }
        }
    }

    /// Draws `k` arcs into `out` (appending), consuming the RNG stream
    /// exactly as `k` successive [`sample_arc`](Topology::sample_arc)
    /// calls would — bit-identical by construction, certified by the
    /// `step_eq_batched_restricted` and `uniform_eq_complete_*` rows of
    /// the root `tests/differential.rs`.
    ///
    /// The repr match is hoisted out of the loop and the draws are
    /// monomorphized, which is where the batching win comes from. An
    /// alias-table draw over arc tails would be asymptotically no better
    /// here (the draw is already O(1)) and would *change the RNG
    /// stream*, breaking the bit-identity contract — so this stays a
    /// straight replication of the per-draw sequence.
    pub fn sample_arcs_into<R: RngCore + ?Sized>(
        &self,
        out: &mut Vec<Interaction>,
        k: usize,
        rng: &mut R,
    ) {
        out.reserve(k);
        match &*self.repr {
            Repr::Complete { n } => {
                for _ in 0..k {
                    out.push(Interaction::sample(*n, rng));
                }
            }
            Repr::Csr { heads, tails, .. } => {
                let m = heads.len();
                for _ in 0..k {
                    let a = rng.gen_range(0..m);
                    out.push(
                        Interaction::new(tails[a] as usize, heads[a] as usize)
                            .expect("no self-loops by construction"),
                    );
                }
            }
        }
    }

    /// Iterates over the undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.len();
        (0..n).flat_map(move |v| {
            self.neighbors(v)
                .filter(move |&w| v < w)
                .map(move |w| (v, w))
        })
    }

    /// Conductance `Φ(G) = min_S cut(S, S̄) / min(vol S, vol S̄)` by
    /// exhaustive cut enumeration — exact, but O(2ⁿ·(n + m)), so only
    /// offered up to 16 vertices. Returns `None` above the limit;
    /// [`conductance`](Topology::conductance) falls back to the spectral
    /// sweep-cut estimate there.
    pub fn conductance_exact(&self) -> Option<f64> {
        let n = self.len();
        if n > EXACT_CONDUCTANCE_LIMIT {
            return None;
        }
        let edges: Vec<(usize, usize)> = self.edges().collect();
        let deg: Vec<usize> = (0..n).map(|v| self.degree(v)).collect();
        let total_vol = self.arc_count();
        let mut best = f64::INFINITY;
        // Every unordered bipartition exactly once: vertex 0 is pinned to
        // the complement, the mask enumerates subsets of 1..n.
        for bits in 1u32..(1u32 << (n - 1)) {
            let mask = bits << 1;
            let mut vol = 0usize;
            for (v, d) in deg.iter().enumerate().skip(1) {
                if mask >> v & 1 == 1 {
                    vol += d;
                }
            }
            let mut cut = 0usize;
            for &(a, b) in &edges {
                if (mask >> a ^ mask >> b) & 1 == 1 {
                    cut += 1;
                }
            }
            // Connected graph: every vertex has degree ≥ 1, so both sides
            // of a nontrivial bipartition have positive volume.
            let phi = cut as f64 / vol.min(total_vol - vol) as f64;
            best = best.min(phi);
        }
        Some(best)
    }

    /// Spectral profile of the **lazy random walk** `M = ½(I + D⁻¹A)`:
    /// its second-largest eigenvalue `λ₂` and the spectral gap `1 − λ₂`,
    /// estimated by power iteration on the symmetrized form
    /// `½(I + D^{-½} A D^{-½})` with the known top eigenvector
    /// (`φ₁ ∝ √deg`, eigenvalue 1) deflated each step. Deterministic:
    /// the start vector is a fixed hash of the vertex indices.
    ///
    /// The gap is the mixing-rate figure that Cheeger's inequality ties
    /// to conductance — `gap/2 ≤ Φ ≤ √(2·gap)` — and the quantity the
    /// E13 experiment charts omission tolerance against.
    ///
    /// `max_iters` bounds the work; iteration stops early once the
    /// eigenvalue estimate moves less than 1e-12 between steps. A few
    /// hundred iterations suffice for well-separated spectra; low-gap
    /// graphs (large rings) may report a slight overestimate of the gap
    /// if stopped early, which only makes the Cheeger bracket looser.
    pub fn spectral_profile(&self, max_iters: usize) -> SpectralProfile {
        self.spectral_inner(max_iters).0
    }

    /// Power iteration with deflation; returns the profile and the final
    /// iterate (an estimate of the second eigenvector of the symmetrized
    /// lazy walk), which the sweep cut orders vertices by.
    fn spectral_inner(&self, max_iters: usize) -> (SpectralProfile, Vec<f64>) {
        let n = self.len();
        let sqrt_deg: Vec<f64> = (0..n).map(|v| (self.degree(v) as f64).sqrt()).collect();
        let vol = self.arc_count() as f64; // ‖√deg‖² = Σ deg
                                           // Deterministic quasi-random start vector (splitmix-style hash).
        let mut v: Vec<f64> = (0..n as u64)
            .map(|i| {
                let mut h = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
                h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect();
        let deflate = |v: &mut [f64]| {
            let coeff: f64 = v.iter().zip(&sqrt_deg).map(|(a, b)| a * b).sum::<f64>() / vol;
            for (x, s) in v.iter_mut().zip(&sqrt_deg) {
                *x -= coeff * s;
            }
        };
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let mut w = vec![0.0; n];
        let mut lambda = 0.0f64;
        let mut iterations = 0usize;
        for it in 0..max_iters {
            deflate(&mut v);
            let len = norm(&v);
            if len < 1e-300 {
                // Start vector was (numerically) parallel to φ₁: reseed
                // with an alternating pattern and deflate again.
                for (i, x) in v.iter_mut().enumerate() {
                    *x = if i % 2 == 0 { 1.0 } else { -1.0 };
                }
                deflate(&mut v);
            } else {
                for x in &mut v {
                    *x /= len;
                }
            }
            self.lazy_step(&v, &mut w, &sqrt_deg);
            let rayleigh: f64 = v.iter().zip(&w).map(|(a, b)| a * b).sum();
            iterations = it + 1;
            let delta = (rayleigh - lambda).abs();
            lambda = rayleigh;
            std::mem::swap(&mut v, &mut w);
            if it > 0 && delta < 1e-12 {
                break;
            }
        }
        let lambda2 = lambda.clamp(0.0, 1.0);
        (
            SpectralProfile {
                lambda2,
                spectral_gap: 1.0 - lambda2,
                iterations,
            },
            v,
        )
    }

    /// One multiply by `½(I + D^{-½} A D^{-½})`, writing into `w`.
    fn lazy_step(&self, v: &[f64], w: &mut [f64], sqrt_deg: &[f64]) {
        match &*self.repr {
            Repr::Complete { n } => {
                // All degrees are n−1: (Av)_i = Σ_{j≠i} v_j = S − v_i.
                let s: f64 = v.iter().sum();
                let d = (*n - 1) as f64;
                for (i, out) in w.iter_mut().enumerate() {
                    *out = 0.5 * (v[i] + (s - v[i]) / d);
                }
            }
            Repr::Csr { heads, tails, .. } => {
                for (i, out) in w.iter_mut().enumerate() {
                    *out = 0.5 * v[i];
                }
                for (a, &head) in heads.iter().enumerate() {
                    let (t, h) = (tails[a] as usize, head as usize);
                    w[t] += 0.5 * v[h] / (sqrt_deg[t] * sqrt_deg[h]);
                }
            }
        }
    }

    /// Conductance `Φ(G)`: **exact** (exhaustive cuts) up to 16 vertices,
    /// the closed form for the implicit complete graph, and otherwise a
    /// **sweep-cut estimate** from the power-iteration eigenvector — an
    /// upper bound on the true conductance that Cheeger's inequality
    /// guarantees is within `√(2·gap)` of it. On graphs whose sparsest cut is an eigenvector
    /// level set (rings, grids) the sweep recovers the exact value.
    ///
    /// # Example
    ///
    /// ```
    /// use ppfts_population::Topology;
    ///
    /// let ring = Topology::ring(12)?;
    /// // Halving the ring cuts 2 of its 24 half-edges per side: Φ = 2/12.
    /// assert!((ring.conductance() - 2.0 / 12.0).abs() < 1e-9);
    /// let profile = ring.spectral_profile(400);
    /// // Cheeger: gap/2 ≤ Φ ≤ √(2·gap).
    /// assert!(profile.spectral_gap / 2.0 <= ring.conductance() + 1e-9);
    /// # Ok::<(), ppfts_population::TopologyError>(())
    /// ```
    pub fn conductance(&self) -> f64 {
        if let Some(exact) = self.conductance_exact() {
            return exact;
        }
        if let Repr::Complete { n } = &*self.repr {
            // Φ(K_n, |S| = k ≤ n/2) = k(n−k)/(k(n−1)) = (n−k)/(n−1),
            // minimized at the balanced cut.
            return (*n - *n / 2) as f64 / (*n - 1) as f64;
        }
        self.sweep_conductance()
    }

    /// Sweep cut over the spectral embedding `x_v = φ₂(v)/√deg(v)`:
    /// orders vertices by `x`, evaluates every prefix cut incrementally,
    /// and returns the best conductance found.
    fn sweep_conductance(&self) -> f64 {
        self.sweep_cut().0
    }

    /// The smaller-volume side of the best sweep cut, as a sorted vertex
    /// list.
    ///
    /// These are the vertices a conductance-seeking adversary should
    /// isolate: the sweep cut is the (approximate) sparsest cut behind
    /// [`Topology::conductance`]'s estimate, so omitting interactions
    /// that cross it starves the bottleneck the E13 experiments showed
    /// limits SKnO's fault tolerance. Returns an empty vector for the
    /// implicit complete graph (every balanced cut is equally good, so
    /// no vertex is special) and for graphs with fewer than two
    /// vertices.
    ///
    /// # Example
    ///
    /// ```
    /// use ppfts_population::Topology;
    ///
    /// let ring = Topology::ring(32)?;
    /// let side = ring.sweep_cut_vertices();
    /// // The sparsest ring cut is (close to) a half-ring arc.
    /// assert!(!side.is_empty() && side.len() <= 16);
    /// assert!(Topology::complete(32)?.sweep_cut_vertices().is_empty());
    /// # Ok::<(), ppfts_population::TopologyError>(())
    /// ```
    pub fn sweep_cut_vertices(&self) -> Vec<usize> {
        if matches!(*self.repr, Repr::Complete { .. }) || self.len() < 2 {
            return Vec::new();
        }
        self.sweep_cut().1
    }

    /// Shared sweep-cut engine: best prefix conductance plus the
    /// smaller-volume side of the argmin prefix (sorted).
    fn sweep_cut(&self) -> (f64, Vec<usize>) {
        let n = self.len();
        let (_, eigvec) = self.spectral_inner(SWEEP_POWER_ITERS);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| {
            let xa = eigvec[a] / (self.degree(a) as f64).sqrt();
            let xb = eigvec[b] / (self.degree(b) as f64).sqrt();
            xa.partial_cmp(&xb).unwrap_or(std::cmp::Ordering::Equal)
        });
        let total_vol = self.arc_count();
        let mut in_s = vec![false; n];
        let mut cut = 0isize;
        let mut vol = 0usize;
        let mut best = f64::INFINITY;
        let mut best_len = 0usize;
        let mut best_prefix_is_smaller = true;
        for (i, &u) in order.iter().take(n - 1).enumerate() {
            let d = self.degree(u);
            let into_s = self.neighbors(u).filter(|&w| in_s[w]).count();
            cut += d as isize - 2 * into_s as isize;
            vol += d;
            in_s[u] = true;
            let denom = vol.min(total_vol - vol);
            if denom > 0 {
                let phi = cut as f64 / denom as f64;
                if phi < best {
                    best = phi;
                    best_len = i + 1;
                    best_prefix_is_smaller = vol <= total_vol - vol;
                }
            }
        }
        let mut side: Vec<usize> = if best_prefix_is_smaller {
            order[..best_len].to_vec()
        } else {
            order[best_len..].to_vec()
        };
        side.sort_unstable();
        (best, side)
    }

    /// Vertices reachable from vertex 0 (BFS over the CSR arrays; the
    /// complete graph is trivially connected).
    fn reachable_from_zero(&self) -> usize {
        match &*self.repr {
            Repr::Complete { n } => *n,
            Repr::Csr { offsets, heads, .. } => {
                let n = offsets.len() - 1;
                let mut seen = vec![false; n];
                let mut queue = vec![0usize];
                seen[0] = true;
                let mut count = 1;
                while let Some(v) = queue.pop() {
                    for &w in &heads[offsets[v]..offsets[v + 1]] {
                        let w = w as usize;
                        if !seen[w] {
                            seen[w] = true;
                            count += 1;
                            queue.push(w);
                        }
                    }
                }
                count
            }
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(n={})", self.class, self.len())
    }
}

/// Iterator behind [`Topology::neighbors`].
enum Neighbors<'a> {
    Complete { v: usize, next: usize, n: usize },
    Csr { heads: &'a [u32] },
}

impl Iterator for Neighbors<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Neighbors::Complete { v, next, n } => {
                if *next == *v {
                    *next += 1;
                }
                if *next >= *n {
                    return None;
                }
                let out = *next;
                *next += 1;
                Some(out)
            }
            Neighbors::Csr { heads } => {
                let (&first, rest) = heads.split_first()?;
                *heads = rest;
                Some(first as usize)
            }
        }
    }
}

/// The `pos`-th edge of the lexicographic enumeration `(0,1), (0,2), …,
/// (n−2, n−1)`.
fn edge_at(n: usize, pos: usize) -> (usize, usize) {
    // Row a holds (n - 1 - a) edges; walk rows until pos falls inside.
    let mut a = 0usize;
    let mut remaining = pos;
    loop {
        let row = n - 1 - a;
        if remaining < row {
            return (a, a + 1 + remaining);
        }
        remaining -= row;
        a += 1;
    }
}

/// Uniform `f64` in `[0, 1)` from 53 random bits.
fn unit_f64(rng: &mut dyn RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_is_implicit_and_fully_adjacent() {
        let t = Topology::complete(5).unwrap();
        assert!(t.is_complete());
        assert_eq!(t.len(), 5);
        assert_eq!(t.edge_count(), 10);
        assert_eq!(t.arc_count(), 20);
        for v in 0..5 {
            assert_eq!(t.degree(v), 4);
            let nbrs: Vec<usize> = t.neighbors(v).collect();
            assert_eq!(nbrs.len(), 4);
            assert!(!nbrs.contains(&v));
        }
        assert!(t.contains_arc(0, 4));
        assert!(!t.contains_arc(2, 2));
        assert_eq!(
            Topology::complete(1),
            Err(TopologyError::TooSmall { len: 1, min: 2 })
        );
    }

    #[test]
    fn complete_arc_indexing_round_trips() {
        let t = Topology::complete(6).unwrap();
        for a in 0..t.arc_count() {
            let i = t.arc(a);
            assert_eq!(
                t.arc_index(i.starter().index(), i.reactor().index()),
                Some(a)
            );
        }
    }

    #[test]
    fn csr_arc_indexing_round_trips() {
        let t = Topology::grid2d(3, 3).unwrap();
        for a in 0..t.arc_count() {
            let i = t.arc(a);
            assert_eq!(
                t.arc_index(i.starter().index(), i.reactor().index()),
                Some(a)
            );
        }
        assert_eq!(t.arc_index(0, 8), None);
    }

    #[test]
    fn ring_structure() {
        let t = Topology::ring(5).unwrap();
        assert_eq!(t.edge_count(), 5);
        for v in 0..5 {
            assert_eq!(t.degree(v), 2);
            assert!(t.contains_arc(v, (v + 1) % 5));
            assert!(t.contains_arc((v + 1) % 5, v));
        }
        assert!(!t.contains_arc(0, 2));
        assert!(Topology::ring(2).is_err());
    }

    #[test]
    fn star_structure() {
        let t = Topology::star(6).unwrap();
        assert_eq!(t.degree(0), 5);
        for leaf in 1..6 {
            assert_eq!(t.degree(leaf), 1);
            assert!(t.contains_arc(0, leaf));
        }
        assert!(!t.contains_arc(1, 2));
    }

    #[test]
    fn grid_structure() {
        let t = Topology::grid2d(2, 3).unwrap();
        // Corner, edge and middle degrees of a 2×3 grid.
        assert_eq!(t.degree(0), 2);
        assert_eq!(t.degree(1), 3);
        assert_eq!(t.edge_count(), 7);
        assert!(t.contains_arc(0, 3));
        assert!(!t.contains_arc(0, 4));
        assert!(Topology::grid2d(1, 1).is_err());
        assert!(Topology::grid2d(1, 2).is_ok(), "1×2 grid is a single edge");
    }

    #[test]
    fn random_regular_is_simple_regular_connected() {
        for seed in 0..5 {
            let t = Topology::random_regular(20, 3, seed).unwrap();
            assert_eq!(t.len(), 20);
            assert_eq!(t.edge_count(), 30);
            for v in 0..20 {
                assert_eq!(t.degree(v), 3);
                assert!(!t.contains_arc(v, v));
            }
        }
    }

    #[test]
    fn random_regular_rejects_impossible_degrees() {
        assert!(matches!(
            Topology::random_regular(5, 3, 0), // n·d odd
            Err(TopologyError::InvalidDegree { .. })
        ));
        assert!(matches!(
            Topology::random_regular(4, 4, 0), // d ≥ n
            Err(TopologyError::InvalidDegree { .. })
        ));
        assert!(matches!(
            Topology::random_regular(4, 0, 0),
            Err(TopologyError::InvalidDegree { .. })
        ));
    }

    #[test]
    fn random_regular_pairing_failure_is_bounded_and_typed() {
        // 1-regular graphs on n > 2 vertices are perfect matchings —
        // never connected — so every attempt is rejected and the bounded
        // loop must terminate with the typed error, for any seed.
        for seed in 0..8 {
            assert_eq!(
                Topology::random_regular(4, 1, seed),
                Err(TopologyError::PairingFailed {
                    attempts: RANDOM_REGULAR_ATTEMPTS
                }),
                "seed {seed}"
            );
        }
        // The single feasible 1-regular case (n = 2) still constructs.
        assert!(Topology::random_regular(2, 1, 0).is_ok());
    }

    #[test]
    fn random_regular_is_deterministic_per_seed() {
        let a = Topology::random_regular(16, 4, 9).unwrap();
        let b = Topology::random_regular(16, 4, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn clones_share_one_copy_per_thread() {
        let t = Topology::random_regular(16, 4, 9).unwrap();
        let ring = Topology::ring(16).unwrap();
        let on_thread = || {
            let (a, b) = (t.clone(), t.clone());
            assert!(!Arc::ptr_eq(&t.repr, &a.repr), "the first clone copies");
            assert!(Arc::ptr_eq(&a.repr, &b.repr) && Arc::ptr_eq(&a.repr, &a.clone().repr));
            assert_eq!((&a, &b), (&t, &t));
            // Another graph takes the slot; the first is copied again.
            assert_eq!(ring.clone(), ring);
            let again = t.clone();
            assert!(!Arc::ptr_eq(&a.repr, &again.repr));
            again
        };
        let here = on_thread();
        let there = std::thread::scope(|scope| scope.spawn(on_thread).join().unwrap());
        assert!(
            !Arc::ptr_eq(&here.repr, &there.repr),
            "each thread has its own"
        );
    }

    #[test]
    fn equality_is_structural_not_by_identity() {
        // Separately built equal graphs share nothing yet compare equal.
        let (a, b) = (
            Topology::random_regular(16, 4, 9).unwrap(),
            Topology::random_regular(16, 4, 9).unwrap(),
        );
        assert!(!Arc::ptr_eq(&a.repr, &b.repr));
        assert_eq!(a, b);
        // Same class, size and degrees, different edges: unequal.
        let square = Topology::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let crossed = Topology::from_edges(4, [(0, 1), (1, 3), (3, 2), (2, 0)]).unwrap();
        assert_eq!(square.class(), crossed.class());
        assert_ne!(square, crossed);
        assert_ne!(a, Topology::random_regular(16, 4, 10).unwrap());
        assert_ne!(
            Topology::ring(4).unwrap(),
            square,
            "same edges, other class"
        );
    }

    #[test]
    fn erdos_renyi_connected_draws_are_valid() {
        let t = Topology::erdos_renyi(30, 0.3, 4).unwrap();
        assert_eq!(t.len(), 30);
        for v in 0..30 {
            for w in t.neighbors(v) {
                assert_ne!(v, w);
                assert!(t.contains_arc(w, v), "adjacency must be symmetric");
            }
        }
    }

    #[test]
    fn erdos_renyi_p_one_is_the_complete_adjacency() {
        let t = Topology::erdos_renyi(6, 1.0, 0).unwrap();
        assert_eq!(t.edge_count(), 15);
        assert!(
            !t.is_complete(),
            "CSR-stored, even if structurally complete"
        );
        for v in 0..6 {
            assert_eq!(t.degree(v), 5);
        }
    }

    #[test]
    fn erdos_renyi_sparse_draws_are_rejected_as_disconnected() {
        // p far below the ln n / n connectivity threshold: overwhelmingly
        // disconnected. Every seed must either fail Disconnected or
        // produce a genuinely connected graph — never a silent bad graph.
        let mut rejected = 0;
        for seed in 0..10 {
            match Topology::erdos_renyi(40, 0.01, seed) {
                Err(TopologyError::Disconnected { .. }) => rejected += 1,
                Ok(t) => assert_eq!(t.len(), 40),
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(rejected > 0, "0.01 ≪ ln(40)/40 should reject some seeds");
    }

    #[test]
    fn erdos_renyi_rejects_bad_probabilities() {
        assert!(matches!(
            Topology::erdos_renyi(5, 0.0, 0),
            Err(TopologyError::InvalidProbability { .. })
        ));
        assert!(matches!(
            Topology::erdos_renyi(5, 1.5, 0),
            Err(TopologyError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn from_edges_validates() {
        assert!(matches!(
            Topology::from_edges(3, [(0, 1), (1, 2), (0, 3)]),
            Err(TopologyError::VertexOutOfBounds { vertex: 3, .. })
        ));
        assert!(matches!(
            Topology::from_edges(3, [(0, 0)]),
            Err(TopologyError::SelfLoop { vertex: 0 })
        ));
        assert!(matches!(
            Topology::from_edges(3, [(0, 1), (1, 0), (1, 2)]),
            Err(TopologyError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            Topology::from_edges(4, [(0, 1), (2, 3)]),
            Err(TopologyError::Disconnected {
                reachable: 2,
                len: 4
            })
        ));
        let path = Topology::from_edges(3, [(2, 1), (0, 1)]).unwrap();
        assert_eq!(path.class(), &TopologyClass::Custom);
        assert_eq!(path.degree(1), 2);
    }

    #[test]
    fn sample_arc_stays_on_the_graph() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let t = Topology::ring(7).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..2_000 {
            let i = t.sample_arc(&mut rng);
            assert!(t.contains_arc(i.starter().index(), i.reactor().index()));
        }
    }

    #[test]
    fn complete_sample_matches_uniform_pair_stream() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let t = Topology::complete(9).unwrap();
        let mut a = SmallRng::seed_from_u64(17);
        let mut b = SmallRng::seed_from_u64(17);
        for _ in 0..500 {
            let i = t.sample_arc(&mut a);
            // The classic uniform ordered-pair draw, verbatim.
            let s = b.gen_range(0..9usize);
            let mut r = b.gen_range(0..8usize);
            if r >= s {
                r += 1;
            }
            assert_eq!(i, Interaction::new(s, r).unwrap());
        }
    }

    #[test]
    fn edges_enumerate_each_undirected_edge_once() {
        for t in [
            Topology::complete(5).unwrap(),
            Topology::ring(6).unwrap(),
            Topology::grid2d(3, 3).unwrap(),
        ] {
            let edges: Vec<(usize, usize)> = t.edges().collect();
            assert_eq!(edges.len(), t.edge_count(), "{t}");
            for (a, b) in edges {
                assert!(a < b, "{t}: unnormalized edge ({a}, {b})");
                assert!(t.contains_arc(a, b));
            }
        }
    }

    #[test]
    fn exact_conductance_matches_known_values() {
        // Ring: the balanced cut severs 2 edges, each side has volume n.
        let ring = Topology::ring(12).unwrap();
        assert!((ring.conductance_exact().unwrap() - 2.0 / 12.0).abs() < 1e-12);
        // Star: every cut not containing the hub is all-boundary, Φ = 1.
        let star = Topology::star(8).unwrap();
        assert!((star.conductance_exact().unwrap() - 1.0).abs() < 1e-12);
        // Complete: Φ = ⌈n/2⌉/(n−1) at the balanced cut.
        let complete = Topology::complete(8).unwrap();
        assert!((complete.conductance_exact().unwrap() - 4.0 / 7.0).abs() < 1e-12);
        // Above the limit, exact is refused…
        assert!(Topology::ring(17).unwrap().conductance_exact().is_none());
        // …but the closed form for big complete graphs still applies.
        assert!((Topology::complete(1000).unwrap().conductance() - 500.0 / 999.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_conductance_recovers_the_ring_cut() {
        // n = 64 is beyond the exact limit: conductance() runs the
        // spectral sweep, whose level sets on a ring are contiguous arcs
        // — so it finds the true 2/n cut.
        let ring = Topology::ring(64).unwrap();
        let phi = ring.conductance();
        assert!(
            (phi - 2.0 / 64.0).abs() < 5e-3,
            "sweep found {phi}, expected ~{}",
            2.0 / 64.0
        );
    }

    #[test]
    fn conductance_orders_families_by_expansion() {
        let n = 64;
        let families = [
            Topology::ring(n).unwrap(),
            Topology::grid2d(8, 8).unwrap(),
            Topology::random_regular(n, 4, 5).unwrap(),
            Topology::complete(n).unwrap(),
        ];
        let [ring, grid, rr4, complete] = families.each_ref().map(Topology::conductance);
        assert!(
            ring < grid && grid < rr4 && rr4 < complete,
            "ring {ring} < grid {grid} < rr4 {rr4} < complete {complete}"
        );
        // Cheeger's inequality brackets the estimated values too.
        for t in &families {
            let (phi, gap) = (t.conductance(), t.spectral_profile(20_000).spectral_gap);
            assert!(
                gap / 2.0 <= phi + 1e-9 && phi <= (2.0 * gap).sqrt() + 1e-9,
                "{t}: Cheeger violated — gap {gap}, Φ {phi}"
            );
        }
    }

    #[test]
    fn spectral_gap_matches_analytic_values() {
        // Lazy walk on K_n: λ₂ = ½(1 − 1/(n−1)) → gap ≈ ½.
        let complete = Topology::complete(32).unwrap().spectral_profile(500);
        assert!(
            (complete.spectral_gap - 0.5 * (1.0 + 1.0 / 31.0)).abs() < 1e-6,
            "complete gap {}",
            complete.spectral_gap
        );
        // Lazy walk on C_n: λ₂ = ½(1 + cos(2π/n)).
        let ring = Topology::ring(32).unwrap().spectral_profile(20_000);
        let expect = 0.5 * (1.0 - (2.0 * std::f64::consts::PI / 32.0).cos());
        assert!(
            (ring.spectral_gap - expect).abs() < 1e-4,
            "ring gap {} vs analytic {expect}",
            ring.spectral_gap
        );
        assert!(ring.lambda2 > 0.0 && ring.lambda2 < 1.0);
        assert!(ring.iterations > 0);
    }

    #[test]
    fn cheeger_inequality_brackets_exact_conductance() {
        for t in [
            Topology::ring(12).unwrap(),
            Topology::star(10).unwrap(),
            Topology::grid2d(3, 4).unwrap(),
            Topology::random_regular(14, 3, 2).unwrap(),
            Topology::complete(10).unwrap(),
        ] {
            let phi = t.conductance_exact().unwrap();
            assert_eq!(phi, t.conductance(), "{t}: small graphs are exact");
            let gap = t.spectral_profile(20_000).spectral_gap;
            assert!(
                gap / 2.0 <= phi + 1e-9 && phi <= (2.0 * gap).sqrt() + 1e-9,
                "{t}: Cheeger violated — gap {gap}, Φ {phi}"
            );
        }
    }

    #[test]
    fn sweep_cut_vertices_recovers_ring_arc() {
        let n = 64;
        let ring = Topology::ring(n).unwrap();
        let side = ring.sweep_cut_vertices();
        // A sparsest ring cut is a contiguous arc of about half the ring.
        assert!(!side.is_empty() && side.len() <= n / 2, "{side:?}");
        // Contiguity modulo n: crossing edges out of the arc number 2.
        let in_side: Vec<bool> = {
            let mut v = vec![false; n];
            for &u in &side {
                v[u] = true;
            }
            v
        };
        let crossing = (0..n)
            .filter(|&u| in_side[u])
            .map(|u| ring.neighbors(u).filter(|&w| !in_side[w]).count())
            .sum::<usize>();
        assert_eq!(crossing, 2, "sweep side is not a contiguous arc: {side:?}");
    }

    #[test]
    fn sweep_cut_vertices_empty_for_complete_and_matches_conductance() {
        assert!(Topology::complete(20)
            .unwrap()
            .sweep_cut_vertices()
            .is_empty());
        // The public conductance estimate and the exposed cut agree: the
        // returned side realizes the reported sweep conductance.
        let t = Topology::random_regular(48, 4, 3).unwrap();
        let side = t.sweep_cut_vertices();
        assert!(!side.is_empty());
        let in_side: Vec<bool> = {
            let mut v = vec![false; t.len()];
            for &u in &side {
                v[u] = true;
            }
            v
        };
        let cut: usize = (0..t.len())
            .filter(|&u| in_side[u])
            .map(|u| t.neighbors(u).filter(|&w| !in_side[w]).count())
            .sum();
        let vol: usize = side.iter().map(|&u| t.degree(u)).sum();
        let denom = vol.min(t.arc_count() - vol);
        let phi_side = cut as f64 / denom as f64;
        assert!((phi_side - t.conductance()).abs() < 1e-9);
    }

    #[test]
    fn display_labels_families() {
        assert_eq!(Topology::complete(4).unwrap().to_string(), "complete(n=4)");
        assert_eq!(Topology::ring(5).unwrap().to_string(), "ring(n=5)");
        assert_eq!(Topology::grid2d(2, 3).unwrap().to_string(), "grid2x3(n=6)");
        assert_eq!(
            Topology::random_regular(8, 2, 0).unwrap().to_string(),
            "rr2(n=8)"
        );
    }

    #[test]
    fn errors_display_lowercase() {
        let msgs = [
            TopologyError::TooSmall { len: 1, min: 2 }.to_string(),
            TopologyError::Disconnected {
                reachable: 2,
                len: 5,
            }
            .to_string(),
            TopologyError::InvalidDegree { len: 5, degree: 3 }.to_string(),
            TopologyError::PairingFailed { attempts: 7 }.to_string(),
        ];
        for m in msgs {
            assert!(m.chars().next().unwrap().is_lowercase());
            assert!(!m.ends_with('.'));
        }
    }
}
