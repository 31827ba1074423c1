#!/usr/bin/env bash
# Build epibench and run it from the repository root.
#
#   benchmark/run.sh                      every workload once, tracing off
#   benchmark/run.sh --trace              ... and the separate traced pass
#   benchmark/run.sh --aa                 two interleaved sets, compared with the bounds
#   benchmark/run.sh --quick [--trace]    population / 20, 10 days: seconds, not minutes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; its result is the last line of stdout
#
# Exits non-zero when the build fails (as it does outside the repository)
# or when any run fails a check.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

export EPIBENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export EPIBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/epibench" "$@"
