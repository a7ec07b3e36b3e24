#!/usr/bin/env bash
# The benchmark's one command. Builds the package offline (a no-op when
# nothing changed), then hands its arguments to the program.
#
#   benchmark/run.sh <seed> [--smoke | --seconds S]   the full suite: four workloads
#                                                     untraced, then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                     one run (what BENCHMARK.json's
#                                                     command expands to)
#   benchmark/run.sh compare OLD.json NEW.json        apply each metric's bound
#
# Exits non-zero when an output check, the layer-sum check or the build
# fails — in a directory without the crates it measures, at the build.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/rtc-benchmark"

if [[ "${1:-}" =~ ^[0-9]+$ ]]; then
    seed=$1
    shift
    exec "$bin" suite --seed "$seed" "$@"
fi
exec "$bin" "$@"
