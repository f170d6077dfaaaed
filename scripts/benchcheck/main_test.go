package main

import (
	"strings"
	"testing"

	"gpclust/internal/bench"
)

func goodFile() benchFile {
	return benchFile{
		PR: 3,
		Backends: []bench.PGraphBackendPoint{
			{Backend: "host", VirtualNs: 5e9, Edges: 120},
			{Backend: "gpu sequential", VirtualNs: 2e9, Edges: 120},
			{Backend: "gpu single batch", VirtualNs: 1.5e9, Edges: 120},
		},
		Autotune: []bench.AutoTunePoint{
			{Workload: "gpclust", Setting: "auto", Auto: true,
				VirtualNs: 1e9, SchedNs: 5e8, PredictedNs: 4.5e8, Output: 42},
			{Workload: "gpclust", Setting: "fixed 40K words",
				VirtualNs: 2e9, SchedNs: 1.5e9, PredictedNs: 1.4e9, Output: 42},
			{Workload: "pgraph", Setting: "auto", Auto: true,
				VirtualNs: 1e8, SchedNs: 6e7, PredictedNs: 6e7, Output: 120},
			{Workload: "pgraph", Setting: "fixed 40K words sequential",
				VirtualNs: 2e8, SchedNs: 1.6e8, PredictedNs: 1.5e8, Output: 120},
		},
		LSH: []bench.LSHPoint{
			{Setting: "exact", Filter: "exact", Candidates: 6900, EdgeRecall: 1, FScore: 1,
				Identical: true, VirtualNs: 2e8},
			{Setting: "lsh 256x1 (default)", Filter: "lsh", Bands: 256, Rows: 1, Default: true,
				Candidates: 6600, EdgeRecall: 0.96, FScore: 0.98,
				VirtualNs: 2.2e8, SchedNs: 5e7, PredictedNs: 5.5e7},
		},
		Packing: []bench.PackingPoint{
			{Workload: "gpclust", Setting: "unpacked",
				VirtualNs: 2e9, H2DBytes: 1e8, SchedNs: 1.5e9, PredictedNs: 1.4e9, Output: 42},
			{Workload: "gpclust", Setting: "packed", Packed: true,
				VirtualNs: 1.6e9, H2DBytes: 4e7, SchedNs: 1.2e9, PredictedNs: 1.1e9, Output: 42},
			{Workload: "pgraph", Setting: "unpacked",
				VirtualNs: 2e8, H2DBytes: 5e6, SchedNs: 1.6e8, PredictedNs: 1.5e8, Output: 120},
			{Workload: "pgraph", Setting: "packed", Packed: true,
				VirtualNs: 1.8e8, H2DBytes: 4e6, SchedNs: 1.4e8, PredictedNs: 1.3e8, Output: 120},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validate(goodFile()); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
}

// TestValidateLSHCostGate: the default LSH point passes at the measured
// 1.47× of exact's virtual total and exactly at the 2× cap, and fails just
// above it.
func TestValidateLSHCostGate(t *testing.T) {
	for _, c := range []struct {
		ratio float64
		ok    bool
	}{{1.47, true}, {2, true}, {2.01, false}} {
		f := goodFile()
		f.LSH[1].VirtualNs = c.ratio * f.LSH[0].VirtualNs
		if err := validate(f); (err == nil) != c.ok {
			t.Fatalf("default at %.2f× exact: validate error %v, want ok=%v", c.ratio, err, c.ok)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*benchFile)
		want string
	}{
		{"empty file", func(f *benchFile) { *f = benchFile{} }, "no pgraph backend points"},
		{"nil backends", func(f *benchFile) { f.Backends = nil }, "no pgraph backend points"},
		{"too few backends", func(f *benchFile) { f.Backends = f.Backends[:2] }, "incomplete ablation"},
		{"unnamed backend", func(f *benchFile) { f.Backends[1].Backend = "" }, "no backend name"},
		{"zero virtual total", func(f *benchFile) { f.Backends[2].VirtualNs = 0 }, "non-positive virtual total"},
		{"edge mismatch", func(f *benchFile) { f.Backends[2].Edges = 121 }, "accepted 121 edges"},
		{"missing gpu points", func(f *benchFile) {
			f.Backends[1].Backend = "gpu A"
			f.Backends[2].Backend = "gpu B"
		}, "missing gpu sequential"},
		{"no autotune points", func(f *benchFile) { f.Autotune = nil }, "no autotune points"},
		{"unnamed autotune point", func(f *benchFile) { f.Autotune[0].Setting = "" }, "no workload/setting"},
		{"zero autotune total", func(f *benchFile) { f.Autotune[1].VirtualNs = 0 }, "non-positive virtual total"},
		{"output mismatch", func(f *benchFile) { f.Autotune[1].Output = 43 }, "produced output 43"},
		{"duplicate auto point", func(f *benchFile) { f.Autotune[1].Auto = true }, "two auto points"},
		{"no auto point", func(f *benchFile) { f.Autotune[2].Auto = false }, "has no auto point"},
		{"no fixed points", func(f *benchFile) { f.Autotune = f.Autotune[2:3] }, "no fixed points to beat"},
		{"priced zero window", func(f *benchFile) { f.Autotune[0].SchedNs = 0 }, "zero-length scheduler window"},
		{"excess drift", func(f *benchFile) { f.Autotune[0].PredictedNs = 1e9 }, "cost-model drift"},
		{"auto loses", func(f *benchFile) {
			f.Autotune[0].VirtualNs = 3e9
			f.Autotune[0].SchedNs = 2.5e9
			f.Autotune[0].PredictedNs = 2.5e9
		}, "exceeds fixed"},
		{"no packing points", func(f *benchFile) { f.Packing = nil }, "no packing points"},
		{"unnamed packing point", func(f *benchFile) { f.Packing[0].Setting = "" }, "no workload/setting"},
		{"zero packing total", func(f *benchFile) { f.Packing[1].VirtualNs = 0 }, "non-positive virtual total"},
		{"zero packing bytes", func(f *benchFile) { f.Packing[1].H2DBytes = 0 }, "shipped 0 H2D bytes"},
		{"packing output mismatch", func(f *benchFile) { f.Packing[1].Output = 43 }, "produced output 43"},
		{"missing packed corner", func(f *benchFile) { f.Packing = f.Packing[:3] }, "missing the unpacked or packed point"},
		{"packed not faster", func(f *benchFile) { f.Packing[1].VirtualNs = 3e9 }, "not below unpacked"},
		{"packed not smaller", func(f *benchFile) { f.Packing[1].H2DBytes = 2e8 }, "packed image shipped"},
		{"packed cut too shallow", func(f *benchFile) { f.Packing[1].H2DBytes = 9e7 }, "want at most"},
		{"packed priced zero window", func(f *benchFile) { f.Packing[1].SchedNs = 0 }, "zero-length scheduler window"},
		{"packed excess drift", func(f *benchFile) { f.Packing[1].PredictedNs = 3e9 }, "cost-model drift"},
		{"no lsh points", func(f *benchFile) { f.LSH = nil }, "no lsh points"},
		{"unnamed lsh point", func(f *benchFile) { f.LSH[1].Setting = "" }, "no setting/filter"},
		{"zero lsh total", func(f *benchFile) { f.LSH[1].VirtualNs = 0 }, "non-positive virtual total"},
		{"zero lsh candidates", func(f *benchFile) { f.LSH[1].Candidates = 0 }, "admitted 0 candidates"},
		{"lsh recall out of range", func(f *benchFile) { f.LSH[1].EdgeRecall = 1.2 }, "scores out of range"},
		{"two exact baselines", func(f *benchFile) { f.LSH[1].Filter = "exact" }, "two exact baselines"},
		{"two default points", func(f *benchFile) { f.LSH[0].Default = true }, "two default points"},
		{"lsh priced zero window", func(f *benchFile) { f.LSH[1].SchedNs = 0 }, "zero-length scheduler window"},
		{"lsh excess drift", func(f *benchFile) { f.LSH[1].PredictedNs = 2e8 }, "cost-model drift"},
		{"no exact baseline", func(f *benchFile) { f.LSH = f.LSH[1:] }, "no exact baseline"},
		{"no default point", func(f *benchFile) { f.LSH = f.LSH[:1] }, "no default point"},
		{"default recall below floor", func(f *benchFile) { f.LSH[1].EdgeRecall = 0.90 }, "below the 0.95 floor"},
		{"default not fewer candidates", func(f *benchFile) { f.LSH[1].Candidates = 6900 }, "not below exact's"},
		{"default lsh slower than 2x exact", func(f *benchFile) { f.LSH[1].VirtualNs = 28 * f.LSH[0].VirtualNs }, "exceeds 2× exact's"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := goodFile()
			tc.mut(&f)
			err := validate(f)
			if err == nil {
				t.Fatal("validate accepted a bad file")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
