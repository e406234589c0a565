#!/usr/bin/env bash
# Builds the grading daemon and the benchmark from source, then runs one
# benchmark workload.  Run from the repository root:
#
#   bash benchmark/run.sh --workload table1|classroom|hot-http \
#       --seed N --seconds N --trace 0|1
#
# Build artefacts go to $CARGO_TARGET_DIR (default .bench_build).  The last
# line of standard output is the JSON result.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/service ]]; then
    echo "run.sh: run from the repository root (Cargo.toml and crates/ are missing)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-.bench_build}")"
cargo build --release --quiet --manifest-path Cargo.toml -p afg-service --bin afg-serve >&2
cargo build --release --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/afg-benchmark" --serve "$CARGO_TARGET_DIR/release/afg-serve" "$@"
