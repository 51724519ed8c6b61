//! Scenario manifests: a declarative grid description — protocol
//! family × topology × n × omission bound × seed range — that expands
//! into a flat, deduplicated job list with stable job ids.
//!
//! A manifest is one JSON object:
//!
//! ```json
//! {
//!   "name": "e13-grid",
//!   "seeds": 5,
//!   "budget": 2000000,
//!   "grids": [
//!     {"family": "skno", "topology": ["ring", "rr4"], "n": [256], "o": [0, 1]},
//!     {"family": "sid",  "topology": ["rr4"], "n": [256], "budget": 500000}
//!   ]
//! }
//! ```
//!
//! Each grid block is a cartesian product over its list-valued axes
//! (`topology`, `n`, `o`) crossed with seeds `0..seeds`; scalar knobs
//! (`budget`, `seeds`) default from the manifest top level; SKnO jobs
//! run their bounded adversary at [`DEFAULT_RATE`]. A key the format
//! does not define (a typo such as `budjet`, or the retired `rate`) is
//! an error, at top level and per grid. Families that take no omission
//! bound reject an `o` axis instead of silently ignoring it, SKnO
//! families reject `o` above [`MAX_OMISSION_BOUND`] (127), and two
//! blocks that expand to the same job id are a manifest error, not a
//! silent overwrite — the id is the checkpoint ledger key, so uniqueness
//! is what makes resume sound.
//!
//! Job ids are stable across releases by construction:
//! `family/topology/n{n}/o{o}/s{seed}` with absent axes omitted, e.g.
//! `skno/rr4/n256/o1/s3` or `sid_pairing/n64/s0`.

use std::collections::BTreeSet;
use std::fmt;

use ppfts_core::MAX_OMISSION_BOUND;
use ppfts_population::Topology;

use crate::json::{self, Value};
use crate::workloads::{E13_RR_DEGREE, E13_TOPOLOGY_SEED};

/// Omission rate of the bounded adversary in every SKnO job.
pub const DEFAULT_RATE: f64 = 0.02;

/// The protocol families a manifest can sweep. Graphical families run
/// on an explicit interaction topology; the others run on the complete
/// interaction graph: pairing families on the classic Pairing workload,
/// count families on the count backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Graphical SKnO simulating the epidemic on a topology (E13).
    Skno,
    /// Graphical SID simulating the epidemic on a topology (E13).
    Sid,
    /// Plain (unsimulated) epidemic on a topology (E12).
    Epidemic,
    /// Classic SKnO on the Pairing workload (E5).
    SknoPairing,
    /// Classic SID on the Pairing workload (E7).
    SidPairing,
    /// The naming-composed simulator on the Pairing workload (E8).
    NamedPairing,
    /// The naming phase alone on the Pairing workload (E8).
    Naming,
    /// Epidemic on the count backend, interleaved batches (E11).
    EpidemicCount,
    /// Epidemic on the count backend, batch epochs (E15).
    EpidemicEpoch,
}

impl Family {
    /// The manifest spelling (also the id prefix).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Skno => "skno",
            Family::Sid => "sid",
            Family::Epidemic => "epidemic",
            Family::SknoPairing => "skno_pairing",
            Family::SidPairing => "sid_pairing",
            Family::NamedPairing => "named_pairing",
            Family::Naming => "naming",
            Family::EpidemicCount => "epidemic_count",
            Family::EpidemicEpoch => "epidemic_epoch",
        }
    }

    fn from_name(name: &str) -> Option<Family> {
        Some(match name {
            "skno" => Family::Skno,
            "sid" => Family::Sid,
            "epidemic" => Family::Epidemic,
            "skno_pairing" => Family::SknoPairing,
            "sid_pairing" => Family::SidPairing,
            "named_pairing" => Family::NamedPairing,
            "naming" => Family::Naming,
            "epidemic_count" => Family::EpidemicCount,
            "epidemic_epoch" => Family::EpidemicEpoch,
            _ => return None,
        })
    }

    /// Whether jobs of this family run on an explicit topology.
    #[must_use]
    pub fn graphical(self) -> bool {
        matches!(self, Family::Skno | Family::Sid | Family::Epidemic)
    }

    /// Whether jobs of this family run the Pairing workload, which needs
    /// an even `n`.
    #[must_use]
    pub fn pairing(self) -> bool {
        matches!(
            self,
            Family::SknoPairing | Family::SidPairing | Family::NamedPairing | Family::Naming
        )
    }

    /// Whether this family takes an omission bound `o`.
    #[must_use]
    fn takes_o(self) -> bool {
        matches!(self, Family::Skno | Family::SknoPairing)
    }
}

/// One fully instantiated unit of work: a single seeded run.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Stable ledger key, e.g. `skno/rr4/n256/o1/s3`.
    pub id: String,
    /// Protocol family.
    pub family: Family,
    /// Topology name for graphical families (`None` otherwise).
    pub topology: Option<TopologyKind>,
    /// Population / graph size.
    pub n: usize,
    /// Omission bound (0 for families that don't take one).
    pub o: u32,
    /// Scheduler seed.
    pub seed: u64,
    /// Interaction budget.
    pub budget: u64,
}

/// The topology families jobs can run on, mirroring the E13 set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Cycle.
    Ring,
    /// √n×√n grid (requires a perfect-square `n`).
    Grid,
    /// Random 4-regular graph (the E13 family, fixed generation seed).
    Rr4,
    /// Star.
    Star,
    /// Complete graph.
    Complete,
}

impl TopologyKind {
    /// The manifest spelling (also the id segment).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Ring => "ring",
            TopologyKind::Grid => "grid",
            TopologyKind::Rr4 => "rr4",
            TopologyKind::Star => "star",
            TopologyKind::Complete => "complete",
        }
    }

    fn from_name(name: &str) -> Option<TopologyKind> {
        Some(match name {
            "ring" => TopologyKind::Ring,
            "grid" => TopologyKind::Grid,
            "rr4" => TopologyKind::Rr4,
            "star" => TopologyKind::Star,
            "complete" => TopologyKind::Complete,
            _ => return None,
        })
    }

    /// Materializes the graph at size `n`. Deterministic: random
    /// families use the fixed E13 generation seed, so every job (and
    /// every resume) sees the same graph.
    ///
    /// # Errors
    ///
    /// Returns the population layer's `TopologyError` when `n` doesn't
    /// fit the family; [`expand`] pre-validates sizes so orchestrated
    /// jobs never hit this.
    pub fn build(self, n: usize) -> Result<Topology, ppfts_population::TopologyError> {
        match self {
            TopologyKind::Ring => Topology::ring(n),
            TopologyKind::Grid => {
                let side = (n as f64).sqrt() as usize;
                Topology::grid2d(side, side)
            }
            TopologyKind::Rr4 => Topology::random_regular(n, E13_RR_DEGREE, E13_TOPOLOGY_SEED),
            TopologyKind::Star => Topology::star(n),
            TopologyKind::Complete => Topology::complete(n),
        }
    }

    /// Whether size `n` is constructible for this family (the eager
    /// check [`expand`] runs so sweeps fail at parse time, not mid-run).
    #[must_use]
    pub fn admits(self, n: usize) -> bool {
        match self {
            TopologyKind::Grid => {
                let side = (n as f64).sqrt() as usize;
                side >= 2 && side * side == n
            }
            TopologyKind::Rr4 => n > E13_RR_DEGREE && (n * E13_RR_DEGREE).is_multiple_of(2),
            TopologyKind::Ring => n >= 3,
            TopologyKind::Star | TopologyKind::Complete => n >= 2,
        }
    }
}

/// A parsed, validated manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Human-readable sweep name.
    pub name: String,
    /// The expanded, deduplicated job list, in manifest order.
    pub jobs: Vec<Job>,
}

/// What's wrong with a manifest.
#[derive(Clone, Debug, PartialEq)]
pub enum ManifestError {
    /// The document isn't JSON.
    Json(json::ParseError),
    /// A required field is missing or has the wrong type.
    Field {
        /// Which field.
        field: &'static str,
        /// What it must be.
        expected: &'static str,
    },
    /// An unknown protocol family name.
    UnknownFamily(String),
    /// An unknown topology name.
    UnknownTopology(String),
    /// A key the manifest format does not define.
    UnknownKey(String),
    /// A family that takes no omission bound was given an `o` axis.
    OAxisUnsupported(&'static str),
    /// An omission bound above [`MAX_OMISSION_BOUND`].
    OmissionBoundTooLarge(u64),
    /// A graphical family without a topology axis, or a pairing family
    /// with one.
    TopologyAxisMismatch(&'static str),
    /// A size that doesn't fit a requested topology family.
    SizeUnsupported {
        /// The topology family.
        topology: &'static str,
        /// The offending size.
        n: usize,
    },
    /// A pairing-workload size that isn't even and at least 2 (the
    /// workload is n/2 consumers and n/2 producers).
    OddPairingSize(usize),
    /// A count-backend size below 2 agents.
    PopulationTooSmall(usize),
    /// Two grid blocks expanded to the same job id.
    DuplicateJob(String),
    /// The expansion produced no jobs at all.
    Empty,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Json(e) => write!(f, "manifest is not JSON: {e}"),
            ManifestError::Field { field, expected } => {
                write!(f, "manifest field `{field}` must be {expected}")
            }
            ManifestError::UnknownFamily(name) => write!(
                f,
                "unknown family `{name}` (expected skno, sid, epidemic, skno_pairing, \
                 sid_pairing, named_pairing, naming, epidemic_count or epidemic_epoch)"
            ),
            ManifestError::UnknownTopology(name) => write!(
                f,
                "unknown topology `{name}` (expected ring, grid, rr4, star or complete)"
            ),
            ManifestError::UnknownKey(key) => write!(f, "unknown manifest key `{key}`"),
            ManifestError::OmissionBoundTooLarge(o) => write!(
                f,
                "omission bound o = {o} exceeds the SKnO limit {MAX_OMISSION_BOUND}"
            ),
            ManifestError::OAxisUnsupported(family) => {
                write!(
                    f,
                    "family `{family}` takes no omission bound: drop the `o` axis"
                )
            }
            ManifestError::TopologyAxisMismatch(family) => write!(
                f,
                "family `{family}` and the `topology` axis don't fit: graphical families \
                 require it, pairing families reject it"
            ),
            ManifestError::SizeUnsupported { topology, n } => {
                write!(f, "topology `{topology}` is not constructible at n = {n}")
            }
            ManifestError::OddPairingSize(n) => write!(
                f,
                "pairing workloads need an even n >= 2 (n/2 consumers, n/2 producers), got {n}"
            ),
            ManifestError::PopulationTooSmall(n) => {
                write!(f, "count-backend workloads need n >= 2, got {n}")
            }
            ManifestError::DuplicateJob(id) => write!(
                f,
                "job `{id}` is produced by more than one grid block; ids must be unique \
                 (they key the checkpoint ledger)"
            ),
            ManifestError::Empty => write!(f, "manifest expands to zero jobs"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<json::ParseError> for ManifestError {
    fn from(e: json::ParseError) -> Self {
        ManifestError::Json(e)
    }
}

/// Parses and expands a manifest document into its job list.
///
/// # Errors
///
/// Every way a manifest can be malformed maps to a [`ManifestError`]
/// variant; see the enum. Validation is eager and total: a returned
/// `Manifest` is fully runnable.
pub fn expand(document: &str) -> Result<Manifest, ManifestError> {
    let doc = json::parse(document)?;
    check_keys(&doc, &["name", "seeds", "budget", "grids"])?;
    let name = doc
        .get("name")
        .and_then(Value::as_str)
        .ok_or(ManifestError::Field {
            field: "name",
            expected: "a string",
        })?
        .to_string();
    let default_seeds = get_u64_opt(&doc, "seeds")?;
    let default_budget = get_u64_opt(&doc, "budget")?;
    let grids = doc
        .get("grids")
        .and_then(Value::as_arr)
        .ok_or(ManifestError::Field {
            field: "grids",
            expected: "an array of grid blocks",
        })?;

    let mut jobs = Vec::new();
    let mut seen = BTreeSet::new();
    for grid in grids {
        check_keys(grid, &["family", "topology", "n", "o", "seeds", "budget"])?;
        let family_name =
            grid.get("family")
                .and_then(Value::as_str)
                .ok_or(ManifestError::Field {
                    field: "family",
                    expected: "a string",
                })?;
        let family = Family::from_name(family_name)
            .ok_or_else(|| ManifestError::UnknownFamily(family_name.to_string()))?;

        let ns = axis_u64(grid, "n")?.ok_or(ManifestError::Field {
            field: "n",
            expected: "a number or array of numbers",
        })?;

        let topologies: Vec<Option<TopologyKind>> = match (family.graphical(), grid.get("topology"))
        {
            (true, Some(_)) => axis_str(grid, "topology")?
                .unwrap()
                .iter()
                .map(|name| {
                    TopologyKind::from_name(name)
                        .map(Some)
                        .ok_or_else(|| ManifestError::UnknownTopology(name.clone()))
                })
                .collect::<Result<_, _>>()?,
            (false, None) => vec![None],
            _ => return Err(ManifestError::TopologyAxisMismatch(family.name())),
        };

        let os: Vec<u64> = match (family.takes_o(), grid.get("o")) {
            (true, Some(_)) => {
                let os = axis_u64(grid, "o")?.unwrap();
                if let Some(&o) = os.iter().find(|&&o| o > u64::from(MAX_OMISSION_BOUND)) {
                    return Err(ManifestError::OmissionBoundTooLarge(o));
                }
                os
            }
            (true, None) => vec![0],
            (false, None) => vec![0],
            (false, Some(_)) => return Err(ManifestError::OAxisUnsupported(family.name())),
        };

        let seeds = get_u64_opt(grid, "seeds")?
            .or(default_seeds)
            .ok_or(ManifestError::Field {
                field: "seeds",
                expected: "a number (top level or per grid)",
            })?;
        let budget =
            get_u64_opt(grid, "budget")?
                .or(default_budget)
                .ok_or(ManifestError::Field {
                    field: "budget",
                    expected: "a number (top level or per grid)",
                })?;

        for &topology in &topologies {
            for &n in &ns {
                let n = n as usize;
                if let Some(kind) = topology {
                    if !kind.admits(n) {
                        return Err(ManifestError::SizeUnsupported {
                            topology: kind.name(),
                            n,
                        });
                    }
                } else if family.pairing() {
                    if n < 2 || !n.is_multiple_of(2) {
                        return Err(ManifestError::OddPairingSize(n));
                    }
                } else if n < 2 {
                    return Err(ManifestError::PopulationTooSmall(n));
                }
                for &o in &os {
                    for seed in 0..seeds {
                        let mut id = family.name().to_string();
                        if let Some(kind) = topology {
                            id.push('/');
                            id.push_str(kind.name());
                        }
                        id.push_str(&format!("/n{n}"));
                        if family.takes_o() {
                            id.push_str(&format!("/o{o}"));
                        }
                        id.push_str(&format!("/s{seed}"));
                        if !seen.insert(id.clone()) {
                            return Err(ManifestError::DuplicateJob(id));
                        }
                        jobs.push(Job {
                            id,
                            family,
                            topology,
                            n,
                            o: o as u32,
                            seed,
                            budget,
                        });
                    }
                }
            }
        }
    }
    if jobs.is_empty() {
        return Err(ManifestError::Empty);
    }
    Ok(Manifest { name, jobs })
}

/// The group key of a job id: the id with its trailing `/s{seed}`
/// segment removed — what result summaries aggregate over.
#[must_use]
pub fn group_of(id: &str) -> &str {
    id.rfind("/s").map_or(id, |cut| &id[..cut])
}

fn get_u64_opt(doc: &Value, field: &'static str) -> Result<Option<u64>, ManifestError> {
    match doc.get(field) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(ManifestError::Field {
            field,
            expected: "a non-negative integer",
        }),
    }
}

/// Rejects any key of the object `doc` outside `known`.
fn check_keys(doc: &Value, known: &[&str]) -> Result<(), ManifestError> {
    let Value::Obj(members) = doc else {
        return Ok(()); // the typed field reads report a non-object
    };
    match members
        .iter()
        .find(|(key, _)| !known.contains(&key.as_str()))
    {
        Some((key, _)) => Err(ManifestError::UnknownKey(key.clone())),
        None => Ok(()),
    }
}

/// Reads `field` as a scalar-or-array axis of non-negative integers.
fn axis_u64(doc: &Value, field: &'static str) -> Result<Option<Vec<u64>>, ManifestError> {
    let wrong = ManifestError::Field {
        field,
        expected: "a non-negative integer or array thereof",
    };
    match doc.get(field) {
        None => Ok(None),
        Some(Value::Arr(items)) => items
            .iter()
            .map(|v| v.as_u64().ok_or(wrong.clone()))
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(v) => v.as_u64().map(|n| Some(vec![n])).ok_or(wrong),
    }
}

/// Reads `field` as a scalar-or-array axis of strings.
fn axis_str(doc: &Value, field: &'static str) -> Result<Option<Vec<String>>, ManifestError> {
    let wrong = ManifestError::Field {
        field,
        expected: "a string or array of strings",
    };
    match doc.get(field) {
        None => Ok(None),
        Some(Value::Arr(items)) => items
            .iter()
            .map(|v| v.as_str().map(String::from).ok_or(wrong.clone()))
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(v) => v.as_str().map(|s| Some(vec![s.to_string()])).ok_or(wrong),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = r#"{
        "name": "t",
        "seeds": 2,
        "budget": 1000,
        "grids": [
            {"family": "skno", "topology": ["ring", "rr4"], "n": [16], "o": [0, 1]},
            {"family": "sid_pairing", "n": [8, 16], "seeds": 3}
        ]
    }"#;

    #[test]
    fn expands_the_full_cartesian_product() {
        let m = expand(SMALL).unwrap();
        assert_eq!(m.name, "t");
        // skno: 2 topologies × 1 n × 2 o × 2 seeds = 8; sid_pairing:
        // 2 n × 3 seeds = 6.
        assert_eq!(m.jobs.len(), 14);
        assert!(m.jobs.iter().any(|j| j.id == "skno/rr4/n16/o1/s1"));
        assert!(m.jobs.iter().any(|j| j.id == "sid_pairing/n8/s2"));
        let pairing_budget = m
            .jobs
            .iter()
            .find(|j| j.family == Family::SidPairing)
            .unwrap();
        assert_eq!(pairing_budget.budget, 1000);
        assert_eq!(pairing_budget.seed, 0);
    }

    #[test]
    fn job_ids_are_unique_and_stable() {
        let m = expand(SMALL).unwrap();
        let ids: BTreeSet<&str> = m.jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids.len(), m.jobs.len());
        assert_eq!(group_of("skno/rr4/n16/o1/s1"), "skno/rr4/n16/o1");
        assert_eq!(group_of("sid_pairing/n8/s2"), "sid_pairing/n8");
    }

    #[test]
    fn duplicate_blocks_are_rejected() {
        let doc = r#"{"name": "d", "seeds": 1, "budget": 10, "grids": [
            {"family": "sid_pairing", "n": 8},
            {"family": "sid_pairing", "n": [8, 16]}
        ]}"#;
        assert_eq!(
            expand(doc).unwrap_err(),
            ManifestError::DuplicateJob("sid_pairing/n8/s0".into())
        );
    }

    #[test]
    fn o_axis_on_sid_is_rejected_not_ignored() {
        let doc = r#"{"name": "o", "seeds": 1, "budget": 10, "grids": [
            {"family": "sid", "topology": "ring", "n": 8, "o": [0, 1]}
        ]}"#;
        assert_eq!(
            expand(doc).unwrap_err(),
            ManifestError::OAxisUnsupported("sid")
        );
    }

    #[test]
    fn topology_axis_mismatches_are_rejected_both_ways() {
        let graphical_without = r#"{"name": "x", "seeds": 1, "budget": 10, "grids": [
            {"family": "skno", "n": 8}
        ]}"#;
        assert_eq!(
            expand(graphical_without).unwrap_err(),
            ManifestError::TopologyAxisMismatch("skno")
        );
        let pairing_with = r#"{"name": "x", "seeds": 1, "budget": 10, "grids": [
            {"family": "sid_pairing", "topology": "ring", "n": 8}
        ]}"#;
        assert_eq!(
            expand(pairing_with).unwrap_err(),
            ManifestError::TopologyAxisMismatch("sid_pairing")
        );
    }

    #[test]
    fn infeasible_sizes_fail_at_expansion_not_mid_sweep() {
        let doc = r#"{"name": "g", "seeds": 1, "budget": 10, "grids": [
            {"family": "epidemic", "topology": "grid", "n": 12}
        ]}"#;
        assert_eq!(
            expand(doc).unwrap_err(),
            ManifestError::SizeUnsupported {
                topology: "grid",
                n: 12
            }
        );
        let doc = r#"{"name": "c", "seeds": 1, "budget": 10, "grids": [
            {"family": "epidemic_epoch", "n": 1}
        ]}"#;
        assert_eq!(
            expand(doc).unwrap_err(),
            ManifestError::PopulationTooSmall(1)
        );
    }

    #[test]
    fn every_topology_kind_builds_what_it_admits() {
        for kind in [
            TopologyKind::Ring,
            TopologyKind::Grid,
            TopologyKind::Rr4,
            TopologyKind::Star,
            TopologyKind::Complete,
        ] {
            for n in [2usize, 3, 9, 12, 16, 25] {
                if kind.admits(n) {
                    let t = kind.build(n).unwrap();
                    assert_eq!(t.len(), n, "{} at n = {n}", kind.name());
                }
            }
        }
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let f =
            r#"{"name": "u", "seeds": 1, "budget": 10, "grids": [{"family": "sknoo", "n": 8}]}"#;
        assert!(matches!(
            expand(f).unwrap_err(),
            ManifestError::UnknownFamily(_)
        ));
        let t = r#"{"name": "u", "seeds": 1, "budget": 10, "grids": [
            {"family": "skno", "topology": "torus", "n": 8}
        ]}"#;
        assert!(matches!(
            expand(t).unwrap_err(),
            ManifestError::UnknownTopology(_)
        ));
        // Unknown keys, at top level (the retired `rate`) and per grid.
        let k = r#"{"name": "u", "seeds": 1, "budget": 10, "rate": 0.02, "grids": [
            {"family": "sid_pairing", "n": 8, "budjet": 20}
        ]}"#;
        assert_eq!(
            expand(k).unwrap_err(),
            ManifestError::UnknownKey("rate".into())
        );
        let k = k.replace(r#" "rate": 0.02,"#, "");
        assert_eq!(
            expand(&k).unwrap_err(),
            ManifestError::UnknownKey("budjet".into())
        );
    }

    #[test]
    fn omission_bounds_past_the_skno_limit_are_rejected() {
        let doc = r#"{"name": "o", "seeds": 1, "budget": 10, "grids": [
            {"family": "skno_pairing", "n": 8, "o": [1, 127, 128]}
        ]}"#;
        assert_eq!(
            expand(doc).unwrap_err(),
            ManifestError::OmissionBoundTooLarge(128)
        );
        assert_eq!(expand(&doc.replace(", 128", "")).unwrap().jobs.len(), 2);
    }

    #[test]
    fn empty_expansion_is_an_error() {
        let doc = r#"{"name": "e", "seeds": 0, "budget": 10, "grids": [
            {"family": "sid_pairing", "n": 8}
        ]}"#;
        assert_eq!(expand(doc).unwrap_err(), ManifestError::Empty);
    }
}
