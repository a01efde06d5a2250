#!/usr/bin/env bash
# Builds the simulator benchmark and the repository's microbench from
# source, then runs one workload:
#
#   bash simbench/run.sh --workload <name> --seed <N> --seconds <S> --trace <0|1>
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path simbench/Cargo.toml >&2
cargo build --release --offline --quiet -p cdp-bench --bin microbench >&2
exec "$CARGO_TARGET_DIR/release/simbench" --microbench "$CARGO_TARGET_DIR/release/microbench" "$@"
