//! In-memory spans recorded by the benchmark around each call into a
//! layer's public functions, and the per-layer summaries built from them.
//!
//! Spans stay in memory while the load runs and are written out once it
//! has finished ([`write_tsv`]). A span's self time is its duration minus
//! the durations of its direct children.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The call a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// One seed, from the start of set-up to the end of the run (root).
    Seed,
    /// `*RunnerBuilder::build`.
    Build,
    /// One `run_batched(BATCH, BATCH)` call.
    RunBatched,
    /// One `run_epochs(EPOCH_CHUNK)` call.
    RunEpochs,
    /// One evaluation of the stop predicate.
    Predicate,
    /// One `ppfts_core::sim_pressure` call.
    SimPressure,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Seed,
        Layer::Build,
        Layer::RunBatched,
        Layer::RunEpochs,
        Layer::Predicate,
        Layer::SimPressure,
    ];

    /// The span's name: `<crate>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Seed => "seed",
            Layer::Build => "engine.build",
            Layer::RunBatched => "engine.run_batched",
            Layer::RunEpochs => "engine.run_epochs",
            Layer::Predicate => "engine.predicate",
            Layer::SimPressure => "core.sim_pressure",
        }
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The call.
    pub layer: Layer,
    /// Index of the enclosing span within the same seed, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the round began.
    pub start_ns: u64,
    /// End, in nanoseconds since the round began.
    pub end_ns: u64,
    /// Interactions the call executed (0 for calls that execute none).
    pub work: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans of one seed.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, layer: Layer, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent: parent.map(|p| u32::try_from(p).expect("span index fits u32")),
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `index`, recording `work` interactions; returns its
    /// duration in seconds.
    pub fn close(&mut self, index: usize, work: u64) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.work = work;
        span.dur_ns() as f64 * 1e-9
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span of one seed: its duration minus its direct
/// children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Totals of one layer across a round.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Interactions executed inside the spans.
    pub work: u64,
}

/// Per-layer totals over the spans of many seeds.
pub fn layer_totals<'a>(seeds: impl IntoIterator<Item = &'a [Span]>) -> Vec<(Layer, LayerTotals)> {
    let mut totals: Vec<(Layer, LayerTotals)> = Layer::ALL
        .iter()
        .map(|&l| (l, LayerTotals::default()))
        .collect();
    for spans in seeds {
        for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            let t = &mut totals
                .iter_mut()
                .find(|(l, _)| *l == s.layer)
                .expect("every layer has a slot")
                .1;
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
            t.work += s.work;
        }
    }
    totals
}

/// Writes every span as one tab-separated line:
/// `seed  index  parent  name  start_ns  end_ns  self_ns  work`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_tsv<'a>(
    path: &Path,
    seeds: impl IntoIterator<Item = (u64, &'a [Span])>,
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "seed\tindex\tparent\tname\tstart_ns\tend_ns\tself_ns\twork"
    )?;
    for (seed, spans) in seeds {
        for (i, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{seed}\t{i}\t{parent}\t{}\t{}\t{}\t{self_ns}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.work
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |layer, parent, start_ns, end_ns| Span {
            layer,
            parent,
            start_ns,
            end_ns,
            work: 0,
        };
        let spans = [
            span(Layer::Seed, None, 0, 100),
            span(Layer::Build, Some(0), 0, 10),
            span(Layer::RunBatched, Some(0), 10, 70),
            span(Layer::Predicate, Some(0), 70, 75),
        ];
        assert_eq!(self_times_ns(&spans), vec![25, 10, 60, 5]);
    }
}
