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

# Size is a tracked number: tracked Rust lines outside benchmark/, and the
# non-test part of them. Non-test lines are those of each file outside any
# tests/, benches/ or fixtures/ directory, up to the `#[cfg(test)]` that
# opens its `mod tests` (the attribute counts; other `#[cfg(test)]` items
# do not end the count). MAX_NON_TEST_LINES is a ratchet: lower it when
# the count falls, and raise it only in a change whose issue names why.
MAX_NON_TEST_LINES=26449
rs_files=$(git ls-files '*.rs' | grep -v '^benchmark/')
total=$(echo "$rs_files" | xargs cat | wc -l)
non_test=$(echo "$rs_files" | grep -Ev '(^|/)(tests|benches|fixtures)/' | xargs awk '
    FNR == 1 { counting = 1; prev = "" }
    counting && prev ~ /^#\[cfg\(test\)\]/ && /^mod tests/ { counting = 0 }
    counting { n++ }
    { prev = $0 }
    END { print n }' | awk '{ s += $1 } END { print s }')
echo "rust lines (tracked, outside benchmark/): $total total, $non_test non-test"
if [ "$non_test" -gt "$MAX_NON_TEST_LINES" ]; then
    echo "lint: $non_test non-test lines exceed MAX_NON_TEST_LINES=$MAX_NON_TEST_LINES" >&2
    exit 1
fi
echo "lint: OK"
