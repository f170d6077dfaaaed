package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// goldenHostFigures flattens a host run's virtual-clock figures and pass
// statistics in a fixed order: Float64bits of ShingleNs, CPUNs, DiskIONs
// and TotalNs, then for each pass its Lists, SkippedShort, Elements,
// Tuples, Shingles, SharedLists, Batches and SplitLists.
func goldenHostFigures(res *Result) []uint64 {
	t := res.Timings
	out := []uint64{
		math.Float64bits(t.ShingleNs), math.Float64bits(t.CPUNs),
		math.Float64bits(t.DiskIONs), math.Float64bits(t.TotalNs),
	}
	for _, p := range []*PassStats{&res.Pass1, &res.Pass2} {
		out = append(out, uint64(p.Lists), uint64(p.SkippedShort), uint64(p.Elements),
			uint64(p.Tuples), uint64(p.Shingles), uint64(p.SharedLists),
			uint64(p.Batches), uint64(p.SplitLists))
	}
	return out
}

// TestGoldenHostVirtualTime pins the serial backend's virtual clock — the
// "Serial runtime" column of Table I — and pass statistics bit for bit on
// one planted graph, in both report modes, and requires the multi-core
// backend to reproduce them exactly at every worker count and on repeated
// runs: the cost model prices operations, not cores, so the pool size must
// not move a single figure.
func TestGoldenHostVirtualTime(t *testing.T) {
	g, _ := plantedTestGraph(500, 79)
	cases := []struct {
		mode ReportMode
		want []uint64
	}{
		{mode: ReportUnionFind, want: []uint64{
			0x41b3402c80000000, 0x41843f5980000000, 0x4130d0b000000000, 0x41b5d8e860000000,
			0x187, 0x2, 0xb22, 0x3cc8, 0x224a, 0xca6, 0x1, 0x0,
			0xca6, 0x0, 0x2724, 0xfcf8, 0x3cfc, 0x0, 0x1, 0x0,
		}},
		{mode: ReportOverlapping, want: []uint64{
			0x41b3402c80000000, 0x41843e2100000000, 0x4130d0b000000000, 0x41b5d8c150000000,
			0x187, 0x2, 0xb22, 0x3cc8, 0x224a, 0xca6, 0x1, 0x0,
			0xca6, 0x0, 0x2724, 0xfcf8, 0x3cfc, 0x0, 0x1, 0x0,
		}},
	}
	var record []string
	for _, tc := range cases {
		o := testOptions()
		o.Mode = tc.mode
		serial, err := ClusterSerial(g, o)
		if err != nil {
			t.Fatal(err)
		}
		got := goldenHostFigures(serial)
		if !equalUint64s(got, tc.want) {
			t.Errorf("%s: serial figures moved\n got  %v\n want %v", tc.mode, got, tc.want)
		}
		lits := make([]string, len(got))
		for i, v := range got {
			lits[i] = fmt.Sprintf("%#x", v)
		}
		record = append(record, fmt.Sprintf("%s: {%s}", tc.mode, strings.Join(lits, ", ")))

		for _, workers := range []int{0, 1, 2, 3, 8, 33} {
			o.Workers = workers
			for run := 0; run < 2; run++ {
				par, err := ClusterParallel(g, o)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", tc.mode, workers, err)
				}
				if pg := goldenHostFigures(par); !equalUint64s(pg, tc.want) {
					t.Errorf("%s workers=%d run %d: parallel figures differ from serial golden\n got  %v\n want %v",
						tc.mode, workers, run, pg, tc.want)
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("recorded serial figures:\n%s", strings.Join(record, "\n"))
	}
}
