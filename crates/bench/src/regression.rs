//! Bench-regression gate: compares a freshly measured `BENCH_JSON` file
//! against the committed `BENCH_RESULTS.json` baseline.
//!
//! The criterion shim writes flat JSON — bench id → `{"mean_ns",
//! "min_ns", "iters"}` — and this module parses exactly that shape (no
//! external JSON dependency in the offline build environment), compares
//! the means of every bench present in **both** files, and renders a
//! markdown delta table. A bench *regresses* when its current mean
//! exceeds `tolerance ×` its baseline mean; the generous default
//! tolerance (2.5×) is meant to catch algorithmic regressions on noisy
//! shared CI runners, not percent-level drift.
//!
//! The `bench_gate` binary is the CI entry point:
//!
//! ```text
//! BENCH_JSON=bench_current.json cargo bench -p ppfts-bench --bench schedulers …
//! cargo run -p ppfts-bench --bin bench_gate -- \
//!     --baseline BENCH_RESULTS.json --current bench_current.json --tolerance 2.5
//! ```
//!
//! It prints the table to stdout (append it to `$GITHUB_STEP_SUMMARY`)
//! and exits nonzero iff any compared bench regressed.

use std::collections::BTreeMap;
use std::fmt;

/// One bench entry of a criterion-shim JSON report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchEntry {
    /// Mean wall-clock per iteration, nanoseconds.
    pub mean_ns: u128,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u128,
    /// Iterations measured.
    pub iters: u64,
}

/// A parse failure, with byte offset context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What was expected.
    pub expected: &'static str,
    /// Byte offset in the input where parsing stopped.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses the criterion shim's flat report: `{"id": {"mean_ns": N,
/// "min_ns": N, "iters": N}, …}`. Unknown numeric fields are accepted
/// and ignored; anything structurally different is rejected.
pub fn parse_report(input: &str) -> Result<BTreeMap<String, BenchEntry>, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let mut out = BTreeMap::new();
    p.skip_ws();
    p.expect(b'{', "'{'")?;
    p.skip_ws();
    if p.peek() == Some(b'}') {
        return Ok(out);
    }
    loop {
        p.skip_ws();
        let id = p.string()?;
        p.skip_ws();
        p.expect(b':', "':'")?;
        p.skip_ws();
        p.expect(b'{', "'{'")?;
        let mut entry = BenchEntry {
            mean_ns: 0,
            min_ns: 0,
            iters: 0,
        };
        loop {
            p.skip_ws();
            let field = p.string()?;
            p.skip_ws();
            p.expect(b':', "':'")?;
            p.skip_ws();
            let value = p.number()?;
            match field.as_str() {
                "mean_ns" => entry.mean_ns = value,
                "min_ns" => entry.min_ns = value,
                "iters" => entry.iters = value as u64,
                _ => {}
            }
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => {
                    return Err(ParseError {
                        expected: "',' or '}'",
                        at: p.pos,
                    })
                }
            }
        }
        out.insert(id, entry);
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => break,
            _ => {
                return Err(ParseError {
                    expected: "',' or '}'",
                    at: p.pos,
                })
            }
        }
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError {
                expected: what,
                at: self.pos,
            })
        }
    }

    /// A JSON string without escapes — bench ids are plain identifiers.
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "'\"'")?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("slicing a str at byte boundaries")
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(ParseError {
            expected: "closing '\"'",
            at: self.pos,
        })
    }

    fn number(&mut self) -> Result<u128, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(ParseError {
                expected: "a number",
                at: self.pos,
            });
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ASCII")
            .parse()
            .map_err(|_| ParseError {
                expected: "a u128 number",
                at: start,
            })
    }
}

/// Verdict of one compared bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance.
    Ok,
    /// Current mean faster than baseline / tolerance (a candidate for
    /// re-recording the baseline; never fails the gate).
    Improved,
    /// Current mean exceeds tolerance × baseline: fails the gate.
    Regressed,
}

/// One row of the delta table.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// Bench id.
    pub id: String,
    /// Baseline mean, nanoseconds.
    pub baseline_ns: u128,
    /// Current mean, nanoseconds.
    pub current_ns: u128,
    /// `current / baseline`.
    pub ratio: f64,
    /// Classification under the tolerance.
    pub verdict: Verdict,
}

/// Result of comparing a current report against the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// Per-bench rows, ordered by id (only ids present in both files).
    pub deltas: Vec<Delta>,
    /// Bench ids only present in the current report (new benches).
    pub only_current: Vec<String>,
    /// The tolerance applied.
    pub tolerance: f64,
}

impl Comparison {
    /// Ids that regressed.
    fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regressed)
    }

    /// Whether the gate passes (no regressions). An empty intersection
    /// fails the gate too: comparing nothing certifies nothing.
    pub fn passes(&self) -> bool {
        !self.deltas.is_empty() && self.regressions().next().is_none()
    }

    /// Renders the markdown delta table (baseline vs current, one row
    /// per compared bench, plus a verdict line).
    pub fn markdown(&self) -> String {
        let mut out = String::from("## Bench regression gate\n\n");
        out.push_str(&format!(
            "Tolerance: fail when current mean > {:.2}× baseline mean.\n\n",
            self.tolerance
        ));
        out.push_str("| bench | baseline | current | ratio | verdict |\n");
        out.push_str("|---|---:|---:|---:|---|\n");
        for d in &self.deltas {
            let verdict = match d.verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "improved",
                Verdict::Regressed => "**REGRESSED**",
            };
            out.push_str(&format!(
                "| `{}` | {} | {} | {:.2}× | {} |\n",
                d.id,
                format_ns(d.baseline_ns),
                format_ns(d.current_ns),
                d.ratio,
                verdict
            ));
        }
        if !self.only_current.is_empty() {
            out.push_str(&format!(
                "\nNot in baseline (add by re-recording `BENCH_RESULTS.json`): {}\n",
                self.only_current
                    .iter()
                    .map(|s| format!("`{s}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let n_reg = self.regressions().count();
        out.push_str(&format!(
            "\n**{}** — {} compared, {} regressed.\n",
            if self.passes() { "PASS" } else { "FAIL" },
            self.deltas.len(),
            n_reg
        ));
        out
    }
}

fn format_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Compares `current` means against `baseline` means under `tolerance`.
/// Only ids present in both reports are compared; baseline-only ids are
/// ignored (CI measures a subset), current-only ids are listed for
/// visibility.
pub fn compare(
    baseline: &BTreeMap<String, BenchEntry>,
    current: &BTreeMap<String, BenchEntry>,
    tolerance: f64,
) -> Comparison {
    assert!(tolerance >= 1.0, "a tolerance below 1× fails every bench");
    let mut deltas = Vec::new();
    let mut only_current = Vec::new();
    for (id, cur) in current {
        match baseline.get(id) {
            None => only_current.push(id.clone()),
            Some(base) => {
                let ratio = if base.mean_ns == 0 {
                    f64::INFINITY
                } else {
                    cur.mean_ns as f64 / base.mean_ns as f64
                };
                let verdict = if ratio > tolerance {
                    Verdict::Regressed
                } else if ratio < 1.0 / tolerance {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                deltas.push(Delta {
                    id: id.clone(),
                    baseline_ns: base.mean_ns,
                    current_ns: cur.mean_ns,
                    ratio,
                    verdict,
                });
            }
        }
    }
    Comparison {
        deltas,
        only_current,
        tolerance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(mean: u128) -> BenchEntry {
        BenchEntry {
            mean_ns: mean,
            min_ns: mean / 2,
            iters: 3,
        }
    }

    #[test]
    fn parses_the_shim_report_shape() {
        let json = r#"{
  "a/b": {"mean_ns": 120, "min_ns": 100, "iters": 3},
  "c": {"mean_ns": 5, "min_ns": 4, "iters": 10}
}"#;
        let report = parse_report(json).unwrap();
        assert_eq!(report.len(), 2);
        assert_eq!(report["a/b"], entry_exact(120, 100, 3));
        assert_eq!(report["c"], entry_exact(5, 4, 10));
        assert_eq!(parse_report("{}").unwrap().len(), 0);
    }

    fn entry_exact(mean_ns: u128, min_ns: u128, iters: u64) -> BenchEntry {
        BenchEntry {
            mean_ns,
            min_ns,
            iters,
        }
    }

    #[test]
    fn parse_round_trips_the_committed_baseline() {
        let committed = include_str!("../../../BENCH_RESULTS.json");
        let report = parse_report(committed).unwrap();
        assert!(
            report.len() > 50,
            "the committed baseline has many entries, parsed {}",
            report.len()
        );
        assert!(report.values().all(|e| e.mean_ns > 0 && e.iters > 0));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "[]", "{\"a\": 1}", "{\"a\": {\"mean_ns\": }}"] {
            assert!(parse_report(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn gate_passes_an_unchanged_tree() {
        let base: BTreeMap<String, BenchEntry> =
            [("x".to_string(), entry(100)), ("y".to_string(), entry(50))].into();
        let cmp = compare(&base, &base, 2.5);
        assert!(cmp.passes());
        assert!(cmp.deltas.iter().all(|d| d.verdict == Verdict::Ok));
        assert!(cmp.markdown().contains("PASS"));
    }

    #[test]
    fn gate_fails_on_an_inflated_mean() {
        let base: BTreeMap<String, BenchEntry> =
            [("x".to_string(), entry(100)), ("y".to_string(), entry(50))].into();
        let mut cur = base.clone();
        cur.insert("x".to_string(), entry(260)); // 2.6× > 2.5×
        let cmp = compare(&base, &cur, 2.5);
        assert!(!cmp.passes());
        let regs: Vec<_> = cmp.regressions().collect();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].id, "x");
        assert!(cmp.markdown().contains("REGRESSED"));
        assert!(cmp.markdown().contains("FAIL"));
    }

    #[test]
    fn tolerance_is_generous_in_both_directions() {
        let base: BTreeMap<String, BenchEntry> = [("x".to_string(), entry(100))].into();
        // 2.4× slower: noisy, but passes at 2.5×.
        let slower: BTreeMap<String, BenchEntry> = [("x".to_string(), entry(240))].into();
        assert!(compare(&base, &slower, 2.5).passes());
        // 3× faster: flagged as improved, still passes.
        let faster: BTreeMap<String, BenchEntry> = [("x".to_string(), entry(33))].into();
        let cmp = compare(&base, &faster, 2.5);
        assert!(cmp.passes());
        assert_eq!(cmp.deltas[0].verdict, Verdict::Improved);
    }

    #[test]
    fn subset_runs_compare_only_the_intersection() {
        let base: BTreeMap<String, BenchEntry> =
            [("x".to_string(), entry(100)), ("y".to_string(), entry(50))].into();
        let cur: BTreeMap<String, BenchEntry> =
            [("x".to_string(), entry(110)), ("z".to_string(), entry(9))].into();
        let cmp = compare(&base, &cur, 2.5);
        assert_eq!(cmp.deltas.len(), 1);
        assert_eq!(cmp.only_current, vec!["z".to_string()]);
        assert!(cmp.passes());
        assert!(cmp.markdown().contains("Not in baseline"));
    }

    #[test]
    fn empty_intersection_fails_the_gate() {
        let base: BTreeMap<String, BenchEntry> = [("x".to_string(), entry(100))].into();
        let cur: BTreeMap<String, BenchEntry> = [("z".to_string(), entry(9))].into();
        assert!(!compare(&base, &cur, 2.5).passes());
    }
}
