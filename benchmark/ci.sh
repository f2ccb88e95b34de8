#!/bin/sh
# Build the benchmark, run the whole set twice in --quick mode, and
# compare the two result files: a smoke test of the harness, the
# output checks and `compare`, in well under a minute. Not wired into
# .github/workflows/ci.yml yet; a later change does that.
set -eu
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/score-benchmark"
"$bin" run --quick --seconds 1 --result benchmark/results/ci-a.json
"$bin" run --quick --seconds 1 --result benchmark/results/ci-b.json
"$bin" compare benchmark/results/ci-a.json benchmark/results/ci-b.json
