#!/usr/bin/env bash
# Builds the experiments binary and the benchmark from source, then runs
# the benchmark with the given arguments. Run it from the repository
# root: `bash perfbench/run.sh --workload paper_full --seed 1 --seconds 10 --trace 0`.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p rendezvous-bench --bin experiments >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin "$CARGO_TARGET_DIR/release/experiments" "$@"
