//! Result reporting: the provenance header, process memory, and the
//! one-line JSON result.

/// Where and how a result was measured.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// The CPU's model name.
    pub cpu: String,
    /// Source revision (`unknown` outside a git checkout).
    pub revision: String,
    /// Cargo profile of the build.
    pub profile: &'static str,
    /// Worker threads of the load.
    pub workers: usize,
}

impl Provenance {
    /// Collects the header for a load on `workers` threads.
    pub fn collect(workers: usize) -> Provenance {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            nproc: available_cpus(),
            cpu,
            revision: std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            workers,
        }
    }

    /// The header as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"rustc\": {}, \"nproc\": {}, \"cpu\": {}, \"revision\": {}, \"profile\": {}, \"workers\": {}}}",
            json_str(&self.rustc),
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.revision),
            json_str(self.profile),
            self.workers
        )
    }
}

/// Logical CPUs available to the process (1 if unknown).
pub fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", ppfts_verify::json::escape(s))
}

/// A JSON number: the value with all its digits (non-finite values,
/// which no metric should produce, become 0).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Human-readable note printed next to the value (sample counts).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// The same metric with a note.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfts_verify::json;

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let metrics = [
            Metric::new("setup_s", 0.000_001_569, "s"),
            Metric::new("sim_steps_p50", 1_969_892_744.0, "interactions"),
        ];
        let line = result_json(true, 24, 0, &metrics);
        let value = json::parse(&line).expect("the result line is JSON");
        assert_eq!(
            value.get("correct").and_then(json::Value::as_bool),
            Some(true)
        );
        assert_eq!(
            value.get("attempted").and_then(json::Value::as_u64),
            Some(24)
        );
        assert_eq!(value.get("failed").and_then(json::Value::as_u64), Some(0));
        let setup = value
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric present");
        assert_eq!(
            setup.get("value").and_then(json::Value::as_f64),
            Some(0.000_001_569)
        );
        assert_eq!(setup.get("unit").and_then(json::Value::as_str), Some("s"));
        let json::Value::Obj(keys) = value else {
            panic!("the result is an object");
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
    }
}
