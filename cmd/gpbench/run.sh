#!/usr/bin/env bash
# Builds gpbench from the checkout it is run in and runs it with the given
# arguments. Run from the repository root:
#
#   bash cmd/gpbench/run.sh --workload homology-exact --seed 7 --seconds 25 --trace 0
#
# Every file the build writes (binary, Go build cache, module cache, Go's
# config and temp files) goes under .bench_build/ at the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f cmd/gpbench/go.mod ]]; then
    echo "gpbench: run from the repository root (go.mod, internal/ and cmd/gpbench/ must be here)" >&2
    exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd cmd/gpbench && go build -o "$out/gpbench" .)
exec "$out/gpbench" "$@"
