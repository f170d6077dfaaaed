#!/usr/bin/env sh
# Virtual-clock benchmark trajectory: runs the pGraph verification-backend
# ablation, the auto-tuned-vs-fixed batch-plan ablation, the packed-image
# ablation, and the LSH candidate-filter ablation, assembles them into one
# JSON file, then validates it with scripts/benchcheck. Wall time is
# measured by cmd/gpbench, not here. The BENCH_pr*.json files in the
# repository root are earlier snapshots of this output (their go_bench rows
# came from single testing.B iterations and are no longer written). A
# relative output path is taken from the repository root.
#
# Usage: scripts/bench.sh output.json
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: scripts/bench.sh output.json" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
out="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== pGraph verification-backend ablation (virtual clock)"
go run ./cmd/experiments -exp pgraph -benchjson "$tmp/backends.json"

echo "== auto-tuned vs fixed batch plans (virtual clock)"
go run ./cmd/experiments -exp autotune -benchjson "$tmp/autotune.json"

echo "== packed device images (virtual clock)"
go run ./cmd/experiments -exp packing -benchjson "$tmp/packing.json"

echo "== LSH banding candidate filter (virtual clock)"
go run ./cmd/experiments -exp lsh -benchjson "$tmp/lsh.json"

{
    echo '{'
    printf '  "pgraph_backends": '
    sed -e 's/^/  /' -e '1s/^  //' "$tmp/backends.json" | sed -e '$s/$/,/'
    printf '  "autotune": '
    sed -e 's/^/  /' -e '1s/^  //' "$tmp/autotune.json" | sed -e '$s/$/,/'
    printf '  "packing": '
    sed -e 's/^/  /' -e '1s/^  //' "$tmp/packing.json" | sed -e '$s/$/,/'
    printf '  "lsh": '
    sed -e 's/^/  /' -e '1s/^  //' "$tmp/lsh.json"
    echo '}'
} > "$out"

# Sanity-check the JSON and the acceptance criteria: every pGraph backend
# must accept the same edges, the auto-tuned plan must beat every
# fixed setting with the cost model inside its drift gate, the packed
# image must beat the unpacked one while shipping fewer bytes, and the LSH
# sweep must hold the conservative bit-identity and the default shape's
# recall-with-fewer-candidates operating point.
go run ./scripts/benchcheck "$out"
echo "== bench.sh: wrote $out"
