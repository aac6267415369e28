//! Runs the memory-level-parallelism pipeline sweep and writes
//! `BENCH_pipeline.json`.
//!
//! ```text
//! pipeline [--smoke] [--reads N] [--out PATH]
//! ```
//!
//! * `--smoke`  — the quick `scripts/verify.sh` gate (256 reads per
//!   depth instead of 2048);
//! * `--reads N` — override the reads per depth;
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_pipeline.json` in the working directory).
//!
//! Each window depth runs twice and must replay to byte-identical
//! trace fingerprints. Exits nonzero if determinism breaks, if
//! depth-16 throughput is not at least 4x depth-1, if any model metric
//! (lines/sec, achieved MLP, simulated seconds, speedup) differs from
//! the previous report at `--out` for the same config, or if the
//! report cannot be written. A failed run leaves the old report in
//! place (see [`contutto_bench::report`]).

use contutto_bench::pipeline::{run_sweep, PipelineConfig};
use contutto_bench::report::gate_and_write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    let mut cfg = if flag("--smoke") {
        PipelineConfig::smoke()
    } else {
        PipelineConfig::full()
    };
    if let Some(n) = value("--reads").and_then(|v| v.parse().ok()) {
        cfg.reads = std::cmp::max(1u64, n);
    }
    let out = value("--out").unwrap_or_else(|| "BENCH_pipeline.json".into());

    let sweep = run_sweep(&cfg);
    print!("{}", sweep.render_table());
    if !gate_and_write(&out, &sweep.bench_report(), sweep.violations()) {
        std::process::exit(1);
    }
}
