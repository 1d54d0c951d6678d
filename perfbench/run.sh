#!/usr/bin/env bash
# Builds the system's binaries and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); run reports
# and spans go to perfbench/out/. The last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p mqo-service --bin mqo_serve --bin mqo_router >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --bin-dir "$CARGO_TARGET_DIR/release" \
    --spec perfbench/workloads.json \
    --out perfbench/out
