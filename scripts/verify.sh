#!/usr/bin/env bash
# Full verification gate: formatting, lints, and the tier-1 test suite.
# Everything runs offline against the vendored-free workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo build --benches"
cargo build --benches --workspace --quiet

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> golden reports (byte-identical to tests/golden/)"
# The paper tables and figures, the --metrics trace fingerprint and the
# fault campaign fingerprints must not change by a single byte unless a
# change means to change the model; regenerate the goldens only then.
golden_out="$(mktemp -d)"
trap 'rm -rf "$golden_out"' EXIT
cargo run -p contutto-bench --release --bin tables --quiet > "$golden_out/tables.txt"
diff -u tests/golden/tables.txt "$golden_out/tables.txt"

echo "==> fault campaign (smoke)"
cargo run -p contutto-bench --release --bin faults --quiet -- --smoke | tee "$golden_out/faults_smoke.txt"
diff -u tests/golden/faults_smoke.txt "$golden_out/faults_smoke.txt"

echo "==> media-fault campaign (smoke)"
cargo run -p contutto-bench --release --bin faults --quiet -- --media --smoke

echo "==> channel-failover campaign (smoke)"
cargo run -p contutto-bench --release --bin faults --quiet -- --failover --smoke

echo "==> power-fail campaign (smoke)"
cargo run -p contutto-bench --release --bin faults --quiet -- --power --smoke

# The five bench campaigns below each write BENCH_<name>.json in one
# format (crates/bench/src/report.rs) and gate it against the previous
# report of the same config: model metrics (simulated time) must match
# exactly, host metrics (simulator speed) must stay >= 0.8x. A failed
# run keeps the previous report, so re-running cannot launder a
# regression into the baseline.

echo "==> traffic SLO-under-fault campaign (smoke)"
# Fails on fingerprint/histogram divergence between same-seed double
# runs, a fault that never fired, or any change in a scenario's
# requests/sec, p99.9 or SLO violations.
cargo run -p contutto-bench --release --bin faults --quiet -- --traffic --smoke

echo "==> overload metastability campaign (smoke)"
# Fails if the naive row (no defenses) does not stay congested after
# the trigger clears, if the protected row (deadlines + admission +
# retry budget + breakers + hedging + brownout) does not recover to
# within 2x of steady p99, on any duplicate completion or same-seed
# divergence, or on any change in a row's requests/sec, recovery
# ratio, sheds or hedges.
cargo run -p contutto-bench --release --bin faults --quiet -- --overload --smoke

echo "==> chaos campaign (smoke)"
# Fails on any durability-oracle violation (silent corruption,
# resurrection, unreported loss, panic, non-determinism between
# same-seed double runs) or plans/sec (host) below 0.8x the last
# report. Failing plans are shrunk to minimal CHAOS_repro_*.json
# reproducers.
cargo run -p contutto-bench --release --bin faults --quiet -- --chaos --smoke

echo "==> checkpoint/restore campaign (smoke)"
# Fails if a restored system's fingerprint or metrics diverge from its
# source, if the prefix-reused power sweep is not byte-identical to the
# straight sweep, if the structural store skip did not happen, if
# either sweep's store count changes, or if snapshot/restore
# throughput (host) falls below 0.8x the last same-image-size report.
cargo run -p contutto-bench --release --bin faults --quiet -- --checkpoint --smoke

echo "==> mlp pipeline benchmark (smoke)"
# Fails on broken determinism, a depth-16 speedup under 4x, or any
# change in a depth's lines/sec, achieved MLP or simulated time.
cargo run -p contutto-bench --release --bin pipeline --quiet -- --smoke

echo "verify: all gates passed"
echo "workspace Rust lines (crates/ src/ tests/ examples/): $(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"
