#!/usr/bin/env bash
# Static checks for the workspace: the simlint determinism wall
# (DESIGN.md §9) plus rustfmt. CI runs exactly this script; run it
# locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== simlint --check (static determinism wall) =="
# v2 runs the whole-workspace call-graph rules (R6 transitive hot-path,
# R7 lock order, R8 unsafe audit) on top of the per-file rules, and
# fails on stale (W1) or malformed (W0) waivers. Exit contract is
# unchanged: 0 clean, 1 unwaived findings, 2 usage/policy error.
# Its summary line carries the waiver count, which
# crates/simlint/tests/corpus.rs holds to a ratchet.
cargo run -p simlint --release --quiet -- --check

echo "== cargo fmt --check =="
cargo fmt --check

# Size is a tracked number: tracked Rust lines outside benchmark/.
echo "rust lines (tracked, outside benchmark/): $(git ls-files '*.rs' | grep -v '^benchmark/' | xargs cat | wc -l)"
echo "lint: OK"
