#!/usr/bin/env bash
# The benchmark's one command: build `netperf` (the program under test)
# and the harness from source, then run the harness from the checkout
# root. Arguments go to the harness:
#
#   benchmark/run.sh --workload paper-sat --seed 0 --seconds 15 --trace 0
#
# Without --workload every workload runs in turn. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# One target directory when the caller names one (the driver does);
# cargo's defaults otherwise: target/ for netperf, benchmark/target/ for
# the harness.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    mkdir -p "$CARGO_TARGET_DIR"
    CARGO_TARGET_DIR=$(cd "$CARGO_TARGET_DIR" && pwd)
    export CARGO_TARGET_DIR
fi
cargo build --release --offline --quiet
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/netperf-benchmark" \
    --netperf "${CARGO_TARGET_DIR:-target}/release/netperf" "$@"
