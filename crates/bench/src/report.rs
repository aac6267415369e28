//! The one bench-report format every gated campaign writes.
//!
//! A campaign reduces its run to a [`BenchReport`]: the benchmark's
//! name, a key that is the `Debug` form of the whole campaign config
//! that ran (so no field can be left out), and named metrics of two
//! [`Kind`]s:
//!
//! * [`Kind::Model`] — an output of the simulated hardware (simulated
//!   throughput, a tail latency, a count). The simulator is
//!   deterministic, so a model metric must equal its baseline exactly,
//!   as written.
//! * [`Kind::Host`] — a speed of the simulator on the host (plans or
//!   snapshots per host-second). Host time is noisy, so a host metric
//!   need only stay at or above [`HOST_FLOOR`] × its baseline.
//!
//! A baseline gates a report only when both name the same benchmark
//! and carry the same key. Anything else — another benchmark, another
//! key, an older format, a truncated or unreadable file — gates
//! nothing. [`gate_and_write`] replaces the baseline only when the run
//! passed, so re-running a failed gate cannot turn a regression into
//! the new baseline.
//!
//! The JSON has one metric per line, so reading a baseline back is a
//! strict line match (no external dependencies):
//!
//! ```text
//! {
//!   "benchmark": "chaos",
//!   "key": "CampaignConfig { seeds: [1, 2], plans_per_seed: 2, requests: 72, intensity: 4 }",
//!   "metrics": [
//!     {"name": "plans_per_sec", "kind": "host", "value": 3.41}
//!   ]
//! }
//! ```

use std::fmt::Debug;

/// A host metric fails its gate below this fraction of its baseline.
pub const HOST_FLOOR: f64 = 0.8;

/// What follows the last metric line.
const TRAILER: &str = "\n  ]\n}\n";

/// How a metric is gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Simulated-time output: must equal the baseline exactly.
    Model,
    /// Host-time speed: must be at least [`HOST_FLOOR`] × the baseline.
    Host,
}

/// One campaign's gated numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Benchmark name; a baseline of another benchmark gates nothing.
    pub benchmark: &'static str,
    /// The config that ran, in `Debug` form; a baseline with any other
    /// key gates nothing.
    pub key: String,
    /// `(name, value, kind)` for every gated number.
    pub metrics: Vec<(String, f64, Kind)>,
}

impl BenchReport {
    /// An empty report for `benchmark`, keyed on `config`.
    pub fn new(benchmark: &'static str, config: impl Debug) -> Self {
        BenchReport {
            benchmark,
            key: format!("{config:?}"),
            metrics: Vec::new(),
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, kind: Kind) {
        self.metrics.push((name.into(), value, kind));
    }

    /// Everything before the first metric line: equal headers mean the
    /// same format, benchmark and key.
    fn header(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"{}\",\n  \"key\": {:?},\n  \"metrics\": [\n",
            self.benchmark, self.key
        )
    }

    /// Serializes the report. Values are written in Rust's shortest
    /// round-trip form, the form a model metric is compared in.
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, kind)| format!("{}{value}}}", metric_prefix(name, *kind)))
            .collect();
        format!("{}{}{TRAILER}", self.header(), lines.join(",\n"))
    }

    /// Gate failures of this report against `baseline`, a previous
    /// report's JSON. Only a whole baseline of the same benchmark and
    /// key gates, and only the metrics present in both.
    pub fn regressions(&self, baseline: &str) -> Vec<String> {
        let Some(body) = baseline
            .strip_prefix(&self.header())
            .and_then(|rest| rest.strip_suffix(TRAILER))
        else {
            return Vec::new();
        };
        let bench = self.benchmark;
        self.metrics
            .iter()
            .filter_map(|(name, value, kind)| {
                let prefix = metric_prefix(name, *kind);
                let was = body.lines().find_map(|line| {
                    line.strip_prefix(&prefix)?
                        .trim_end_matches(',')
                        .strip_suffix('}')
                })?;
                match kind {
                    Kind::Model => (value.to_string() != was).then(|| {
                        format!(
                            "{bench}: model metric {name} = {value} differs from baseline {was}"
                        )
                    }),
                    Kind::Host => was
                        .parse()
                        .is_ok_and(|was: f64| *value < HOST_FLOOR * was)
                        .then(|| {
                            format!(
                                "{bench}: host metric {name} = {value} is below \
                                 {HOST_FLOOR}x baseline {was}"
                            )
                        }),
                }
            })
            .collect()
    }
}

/// A metric's line up to its value.
fn metric_prefix(name: &str, kind: Kind) -> String {
    let kind = match kind {
        Kind::Model => "model",
        Kind::Host => "host",
    };
    format!("    {{\"name\": \"{name}\", \"kind\": \"{kind}\", \"value\": ")
}

/// Gates `report` against the baseline at `path` (if any) and writes
/// it there only when the run passed. `violations` are the campaign's
/// own contract breaches. Prints every violation to stderr; returns
/// whether the run passed *and* the report was written. A failed run
/// leaves the old baseline untouched.
pub fn gate_and_write(path: &str, report: &BenchReport, mut violations: Vec<String>) -> bool {
    if let Ok(baseline) = std::fs::read_to_string(path) {
        violations.extend(report.regressions(&baseline));
    }
    for v in &violations {
        eprintln!("violation: {v}");
    }
    if !violations.is_empty() {
        eprintln!(
            "{} campaign FAILED: see violations above ({path} left unchanged)",
            report.benchmark
        );
        return false;
    }
    match std::fs::write(path, report.to_json()) {
        Ok(()) => {
            println!("wrote {path}");
            true
        }
        Err(e) => {
            eprintln!(
                "{} campaign FAILED: cannot write {path}: {e}",
                report.benchmark
            );
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("demo", (vec![1u64, 2], 150u64));
        r.push("steady.requests_per_sec", 1234.5678, Kind::Model);
        r.push("steady.p999_ns", 812.0, Kind::Model);
        r.push("depth1.lines_per_sec", 2823487.8898839722, Kind::Model);
        r.push("plans_per_sec", 10.0, Kind::Host);
        r
    }

    #[test]
    fn baselines_gate_exactly_the_comparable_metrics() {
        let json = sample().to_json();
        // Each case also makes a model metric differ where it must not
        // gate, so a case that gated by mistake would fire.
        let skewed = |from: &str, to: &str| json.replace(from, to).replace("1234.5678", "1");
        let old_pipeline = "{\n  \"benchmark\": \"pipeline\",\n  \"runs\": [\n    \
                            {\"depth\": 1, \"lines_per_sec\": 9.0}\n  ]\n}\n";
        // (case, baseline, the metric that must fire)
        let cases = [
            ("round trip: itself", json.clone(), None),
            (
                "host 10x inflated",
                json.replace("10}", "100}"),
                Some("plans_per_sec"),
            ),
            ("host at exactly 0.8x", json.replace("10}", "12.5}"), None),
            (
                "model, last digit",
                json.replace("5678", "5679"),
                Some("requests_per_sec"),
            ),
            (
                "model, a digit that parses to the same f64",
                json.replace("39722", "39723"),
                Some("depth1.lines_per_sec"),
            ),
            ("another benchmark", skewed("\"demo\"", "\"other\""), None),
            ("one key field differs", skewed("[1, 2]", "[1, 2, 3]"), None),
            ("truncated", skewed("  ]\n}\n", "  ]\n"), None),
            (
                "metric absent",
                skewed("steady.requests", "fault.requests"),
                None,
            ),
            ("old format", old_pipeline.to_string(), None),
            ("garbage", "\u{0}{{\"\n]]".to_string(), None),
            ("empty", String::new(), None),
        ];
        let report = sample();
        for (case, baseline, fires) in cases {
            let got = report.regressions(&baseline);
            match fires {
                None => assert!(got.is_empty(), "{case}: {got:?}"),
                Some(name) => assert!(got.len() == 1 && got[0].contains(name), "{case}: {got:?}"),
            }
        }
    }

    #[test]
    fn gate_and_write_keeps_the_baseline_of_a_failed_run() {
        let dir = std::env::temp_dir().join(format!("contutto-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_demo.json");
        let path = path.to_str().expect("utf-8 temp path");
        let written = || std::fs::read_to_string(path).expect("report exists");
        let report = sample();
        let mut faster = report.clone();
        faster.metrics[3].1 = 99.0;
        let mut slower = report.clone();
        slower.metrics[3].1 = 1.0;

        assert!(gate_and_write(path, &report, Vec::new()));
        assert_eq!(written(), report.to_json());
        // A contract violation or a regression fails the run and keeps
        // the baseline, however often it is re-run.
        assert!(!gate_and_write(path, &faster, vec!["broken".into()]));
        for _ in 0..2 {
            assert!(!gate_and_write(path, &slower, Vec::new()));
        }
        assert_eq!(written(), report.to_json());
        assert!(gate_and_write(path, &faster, Vec::new()));
        assert_eq!(written(), faster.to_json());

        let missing = dir.join("no-such-dir").join("BENCH_demo.json");
        let missing = missing.to_str().expect("utf-8 temp path");
        assert!(!gate_and_write(missing, &report, Vec::new()));
        std::fs::remove_dir_all(&dir).expect("clean up temp dir");
    }
}
