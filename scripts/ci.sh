#!/usr/bin/env sh
# Tier-1 gate: formatting, vet, the gpclint static-analysis suite, build,
# full test suite, the benchmark module, the invariants-build sweep, the
# Table I, LSH and serve goldens, the virtual-clock benchmark gates, fuzz smoke, and a race
# sweep of the concurrent packages (host-parallel backend, pGraph worker
# pool, device simulator). Run from the repository root; exits non-zero on
# any failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== gpclint"
go run ./cmd/gpclint ./...
go run ./cmd/gpclint -tags invariants ./...

echo "== gpclint -tests (determinism-critical packages, test files included)"
go run ./cmd/gpclint -tests ./internal/core ./internal/faults ./internal/minwise \
    ./internal/obs ./internal/sched ./internal/thrust ./internal/unionfind ./internal/pgraph \
    ./internal/serve
# gpusim runs in its own invocation: loading it as a test root next to
# packages whose tests import it makes the loader mix its test variant with
# the plain one and fail type-checking.
go run ./cmd/gpclint -tests ./internal/gpusim

echo "== gpclint fixture sanity (each positive fixture must fail the gate)"
for fixture in maprange globalrand wallclock atomicmix devmem devmemloop errcheck suppress \
    vclocktaint goroutine configdrift; do
    if go run ./cmd/gpclint "internal/lint/testdata/src/$fixture" >/dev/null 2>&1; then
        echo "gpclint found nothing in positive fixture $fixture" >&2
        exit 1
    fi
done

echo "== go build"
go build ./...

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

echo "== gpclint -json round-trip (artifact validated by lintcheck)"
go run ./cmd/gpclint -json ./... > "$tmp_dir/gpclint.jsonl"
go run ./scripts/lintcheck -clean "$tmp_dir/gpclint.jsonl"
go run ./cmd/gpclint -json internal/lint/testdata/src/devmemloop \
    > "$tmp_dir/gpclint-positive.jsonl" || true
go run ./scripts/lintcheck -nonzero "$tmp_dir/gpclint-positive.jsonl"

echo "== go test (with coverage profile)"
cover_out="$tmp_dir/cover.out"
go test -coverprofile="$cover_out" ./...

# Coverage floor: the seed baseline measured 77.6% total statement
# coverage; fail the gate if a change drops the suite below 75%.
echo "== coverage gate (floor 75%)"
total=$(go tool cover -func="$cover_out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
awk -v t="$total" 'BEGIN {
    if (t + 0 < 75.0) { printf "coverage %.1f%% is below the 75%% floor\n", t; exit 1 }
    printf "coverage %.1f%% (floor 75%%)\n", t
}'

echo "== benchmark module (cmd/gpbench is its own module: vet, tests, gpclint)"
(cd cmd/gpbench && go vet ./... && go test ./... && go run gpclust/cmd/gpclint ./...)

echo "== go test -tags invariants (runtime invariant sweep)"
go test -tags invariants ./internal/core/... ./internal/unionfind/... ./internal/gpusim/...

echo "== pgraph backend equivalence gate (GPU-SW must match host-SW bit for bit)"
go test -run 'TestGoldenPipelineBackends' .
go test -run 'TestGPUMatchesHostEdges|TestGPUSmallDeviceMemoryLimit' ./internal/pgraph/

echo "== lsh filter equivalence gate (device LSH must match host, and so must the graphs it yields)"
go test -run 'TestLSHDeviceMatchesHost|TestLSHFilterGraphsMatchHostGPU' ./internal/pgraph/

echo "== golden sections (-exp table1, lsh and serve must reproduce their experiments_output.txt sections)"
# A section is the committed block that opens with the fresh output's first
# line and runs to the next blank line, "== " heading or ablation title.
for exp in table1 lsh serve; do
    go run ./cmd/experiments -exp "$exp" > "$tmp_dir/$exp.txt"
    awk -v h="$(head -n 1 "$tmp_dir/$exp.txt")" '
        $0 == h { on = 1; print; next }
        on && (/^$/ || /^== / || /^Ablation — /) { exit }
        on' experiments_output.txt > "$tmp_dir/$exp-want.txt"
    test -s "$tmp_dir/$exp-want.txt"
    if ! cmp "$tmp_dir/$exp-want.txt" "$tmp_dir/$exp.txt"; then
        diff "$tmp_dir/$exp-want.txt" "$tmp_dir/$exp.txt" >&2 || true
        exit 1
    fi
done

echo "== virtual-clock gates (bench.sh experiments, benchcheck on fresh output)"
sh scripts/bench.sh "$tmp_dir/bench.json"

echo "== observability smoke (-trace/-metrics on both CLIs, trace JSON validated, host backends agree)"
go run ./cmd/genseq -mode seqs -n 150 -fasta "$tmp_dir/orfs.fa" -truth "$tmp_dir/truth.tsv"
go run ./cmd/pgraph -in "$tmp_dir/orfs.fa" -out "$tmp_dir/graph.txt" -gpu \
    -trace "$tmp_dir/pgraph-trace.json" -metrics "$tmp_dir/pgraph-metrics.txt"
go run ./cmd/gpclust -in "$tmp_dir/graph.txt" -backend gpu -pipeline -c1 30 -c2 15 \
    -faults 'h2d op=2' -trace "$tmp_dir/gpclust-trace.json" \
    -metrics "$tmp_dir/gpclust-metrics.txt" -out "$tmp_dir/clusters.txt"
go run ./cmd/gpclust -in "$tmp_dir/graph.txt" -backend gpu -pipeline -gpuagg -c1 30 -c2 15 \
    -faults 'd2h op=3' -trace "$tmp_dir/gpclust-agg-trace.json" -out "$tmp_dir/clusters-agg.txt"
go run ./scripts/tracecheck -want-cats phases,host-cpu,compute,copy \
    "$tmp_dir/pgraph-trace.json"
go run ./scripts/tracecheck -want-cats phases,host-cpu,lane0,lane1,faults,recovery,compute,copy \
    "$tmp_dir/gpclust-trace.json"
go run ./scripts/tracecheck -want-cats lane0,lane1,faults,recovery,compute,copy \
    "$tmp_dir/gpclust-agg-trace.json"
cmp "$tmp_dir/clusters.txt" "$tmp_dir/clusters-agg.txt"
grep -q '^pgraph_edges_total ' "$tmp_dir/pgraph-metrics.txt"
grep -q '^gpclust_tuples_total ' "$tmp_dir/gpclust-metrics.txt"
grep -q '^gpclust_faults_injected_total ' "$tmp_dir/gpclust-metrics.txt"
grep -q '^# EOF$' "$tmp_dir/gpclust-metrics.txt"
# The host backends share one pipeline: the multi-core run must match the
# serial one in its cluster file and in its virtual-clock line.
go run ./cmd/gpclust -in "$tmp_dir/graph.txt" -backend serial -c1 30 -c2 15 \
    -out "$tmp_dir/clusters-serial.txt" 2> "$tmp_dir/serial.err"
go run ./cmd/gpclust -in "$tmp_dir/graph.txt" -backend parallel -workers 3 -c1 30 -c2 15 \
    -out "$tmp_dir/clusters-parallel.txt" 2> "$tmp_dir/parallel.err"
cmp "$tmp_dir/clusters-serial.txt" "$tmp_dir/clusters-parallel.txt"
grep 'timings (virtual clock)' "$tmp_dir/serial.err" > "$tmp_dir/serial-vt.txt"
grep 'timings (virtual clock)' "$tmp_dir/parallel.err" > "$tmp_dir/parallel-vt.txt"
cmp "$tmp_dir/serial-vt.txt" "$tmp_dir/parallel-vt.txt"
# Host pgraph prices Smith–Waterman by DP cells, not cores: one worker and
# three must write the same graph and the same virtual-clock line once the
# pool size and the wall time are stripped from it.
for w in 1 3; do
    go run ./cmd/pgraph -in "$tmp_dir/orfs.fa" -out "$tmp_dir/graph-w$w.txt" -workers "$w" \
        2> "$tmp_dir/pgraph-w$w.err"
    grep 'CPU filter .* total .* virtual' "$tmp_dir/pgraph-w$w.err" |
        sed -e 's/ ([0-9]* workers)//' -e 's/, wall [0-9]*ms//' > "$tmp_dir/pgraph-w$w-vt.txt"
    test -s "$tmp_dir/pgraph-w$w-vt.txt"
done
cmp "$tmp_dir/graph-w1.txt" "$tmp_dir/graph-w3.txt"
cmp "$tmp_dir/pgraph-w1-vt.txt" "$tmp_dir/pgraph-w3-vt.txt"

echo "== fuzz smoke (10s per target)"
go test -run='^$' -fuzz='^FuzzScoreCodes$' -fuzztime=10s ./internal/align/
go test -run='^$' -fuzz=FuzzScoreCodesTable -fuzztime=10s ./internal/align/
go test -run='^$' -fuzz=FuzzRadixSort -fuzztime=10s ./internal/core/
go test -run='^$' -fuzz=FuzzPlanBatches -fuzztime=10s ./internal/sched/
go test -run='^$' -fuzz=FuzzSegmentedSort -fuzztime=10s ./internal/thrust/
go test -run='^$' -fuzz=FuzzPackResidues -fuzztime=10s ./internal/thrust/
go test -run='^$' -fuzz=FuzzSegmentedMinHash -fuzztime=10s ./internal/thrust/
go test -run='^$' -fuzz=FuzzSortPairs64 -fuzztime=10s ./internal/thrust/
go test -run='^$' -fuzz=FuzzUnionFind -fuzztime=10s ./internal/unionfind/
go test -run='^$' -fuzz=FuzzSWBatch -fuzztime=10s ./internal/pgraph/
go test -run='^$' -fuzz=FuzzLSHCandidates -fuzztime=10s ./internal/pgraph/
go test -run='^$' -fuzz=FuzzSuffixArray -fuzztime=10s ./internal/pgraph/
go test -run='^$' -fuzz=FuzzFaultSchedule -fuzztime=10s ./internal/faults/
go test -run='^$' -fuzz=FuzzWarpTransactions -fuzztime=10s ./internal/gpusim/

echo "== serve SLO smoke (1000 concurrent clients, race detector on)"
go test -race -run TestServeSLO ./internal/serve/

echo "== serve on a one-worker pool (GOMAXPROCS=1: band keys and host SW run inline)"
GOMAXPROCS=1 go test -run 'TestIncrementalEqualsFromScratch|TestServeSLO|TestLSHIndex' ./internal/serve/

echo "== go test -race (concurrent packages)"
go test -race ./internal/core/... ./internal/pgraph/... ./internal/gpusim/... ./internal/faults/... ./internal/sched/... ./internal/obs/... ./internal/unionfind/... ./internal/minwise/... ./internal/serve/...

echo "== ci.sh: all green"
