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

echo "==> traffic SLO-under-fault campaign (smoke)"
# Writes BENCH_traffic.json; fails on fingerprint/histogram divergence
# between same-seed double runs, a fault that never fired, or a >20%
# requests/sec regression vs the last report.
cargo run -p contutto-bench --release --bin faults --quiet -- --traffic --smoke

echo "==> overload metastability campaign (smoke)"
# Writes BENCH_overload.json; fails if the naive row (no defenses)
# does not stay congested after the trigger clears, if the protected
# row (deadlines + admission + retry budget + breakers + hedging +
# brownout) does not recover to within 2x of steady p99, on any
# duplicate completion or same-seed divergence, or on a >20%
# requests/sec regression vs the last report.
cargo run -p contutto-bench --release --bin faults --quiet -- --overload --smoke

echo "==> chaos campaign (smoke)"
# Writes BENCH_chaos.json; fails on any durability-oracle violation
# (silent corruption, resurrection, unreported loss, panic,
# non-determinism between same-seed double runs) or a >20% plans/sec
# regression vs the last report. Failing plans are shrunk to minimal
# CHAOS_repro_*.json reproducers.
cargo run -p contutto-bench --release --bin faults --quiet -- --chaos --smoke

echo "==> checkpoint/restore campaign (smoke)"
# Writes BENCH_checkpoint.json; fails if a restored system's
# fingerprint or metrics diverge from its source, if the prefix-reused
# power sweep is not byte-identical to the straight sweep, if the
# structural store skip did not happen, or on a >20% snapshot/restore
# throughput regression vs the last same-image-size report.
cargo run -p contutto-bench --release --bin faults --quiet -- --checkpoint --smoke

echo "==> mlp pipeline benchmark (smoke)"
# Writes BENCH_pipeline.json; fails on broken determinism, a depth-16
# speedup under 4x, or a >20% throughput regression vs the last report.
cargo run -p contutto-bench --release --bin pipeline --quiet -- --smoke

echo "verify: all gates passed"
