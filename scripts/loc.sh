#!/usr/bin/env sh
# Non-test Go line counts: one "package lines" row per directory holding
# non-test .go files, then the total. cmd/gpbench (the benchmark, its own
# module), .bench_build (its build cache) and testdata fixtures are left
# out. Lines are raw line counts, comments and blank lines included, so two
# commits compare like for like. Run from the repository root, or pass
# another checkout:
#
#   scripts/loc.sh [dir]
set -eu

cd "${1:-$(dirname "$0")/..}"
find . -name '*.go' ! -name '*_test.go' \
    ! -path './cmd/gpbench/*' ! -path './.bench_build/*' ! -path './.git/*' \
    ! -path '*/testdata/*' \
    -exec wc -l {} + |
    awk '$2 != "total" {
        dir = $2
        sub(/\/[^\/]*$/, "", dir)
        sub(/^\.\//, "", dir)
        if (dir == ".") dir = "(root)"
        lines[dir] += $1
        total += $1
    } END {
        for (d in lines) printf "%-24s %6d\n", d, lines[d] | "sort"
        close("sort")
        printf "%-24s %6d\n", "total", total
    }'
