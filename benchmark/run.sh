#!/usr/bin/env bash
# Build the benchmark and run it. Two forms (see README.md):
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result object
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--traced] [--repeat K]
#       every workload (or W) in a fresh child process each, K times over,
#       with per-metric min/median/max and spread against the bound; --traced
#       adds a traced run of each, and so the per-layer metrics
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr: stdout carries the metrics.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/isrf-benchmark" "$@"
