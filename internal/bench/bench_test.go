package bench

import (
	"bytes"
	"strings"
	"testing"

	"gpclust/internal/core"
	"gpclust/internal/gos"
	"gpclust/internal/graph"
)

// tiny scales keep the harness tests fast; the real experiments run bigger
// through cmd/experiments and the root bench_test.go.
func tinyOptions() core.Options {
	o := core.DefaultOptions()
	o.C1, o.C2 = 25, 12
	return o
}

func TestInputConfigsScale(t *testing.T) {
	c := Paper20KConfig(0.1)
	if c.NumVertices != 2000 {
		t.Fatalf("20K at 0.1 scale = %d vertices", c.NumVertices)
	}
	c = Paper2MConfig(0.001)
	if c.NumVertices != 2000 {
		t.Fatalf("2M at 0.001 scale = %d vertices", c.NumVertices)
	}
	// tiny scales clamp to a floor
	if Paper20KConfig(0).NumVertices < 200 {
		t.Fatal("floor not applied")
	}
	q := QualityConfig(0.01)
	if q.BridgedPairs < 2 || q.BridgeHubs == 0 {
		t.Fatal("quality config lacks the GOS-failure bridges")
	}
}

func TestRunTable1(t *testing.T) {
	// Scales small enough for CI but big enough that the GPU's fixed
	// per-trial overheads don't dominate (a real effect: below a few
	// thousand lists the accelerator loses to the serial code).
	rows, err := RunTable1(0.5, 0.005, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "20K" || rows[1].Name != "2M" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.TotalSpeedup <= 1 {
			t.Errorf("%s: total speedup %.2f ≤ 1", r.Name, r.TotalSpeedup)
		}
		if r.GPUSpeedup <= r.TotalSpeedup {
			t.Errorf("%s: GPU speedup %.2f not above total %.2f (Amdahl shape violated)",
				r.Name, r.GPUSpeedup, r.TotalSpeedup)
		}
	}
	for _, r := range rows {
		if r.Obs == nil || len(r.Timeline.Events) == 0 {
			t.Errorf("%s: row is missing its recorder or device timeline", r.Name)
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Table I") || !strings.Contains(buf.String(), "20K") {
		t.Fatal("render output incomplete")
	}
}

func TestRunTable2(t *testing.T) {
	st := RunTable2(0.002)
	if st.NonSingletons == 0 || st.Edges == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// degree statistics should be in the band of the paper's 73±153
	// (heavy-tailed, mean in the tens) even at small scale
	if st.AvgDegree < 20 || st.AvgDegree > 200 {
		t.Errorf("avg degree %.0f outside plausible band", st.AvgDegree)
	}
	if st.StdDegree < st.AvgDegree*0.5 {
		t.Errorf("degree std %.0f not heavy-tailed relative to mean %.0f", st.StdDegree, st.AvgDegree)
	}
	var buf bytes.Buffer
	RenderTable2(&buf, st, 0.002)
	if !strings.Contains(buf.String(), "Table II") {
		t.Fatal("render output incomplete")
	}
}

func TestRunQualityShape(t *testing.T) {
	q, err := RunQuality(0.005, QualityOptions(), gos.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Table III shape: both methods precise; gpClust more sensitive.
	if q.GPClust.PPV() < 0.95 || q.GOS.PPV() < 0.95 {
		t.Errorf("PPV = %.3f / %.3f, want both ≥ 0.95", q.GPClust.PPV(), q.GOS.PPV())
	}
	if q.GPClust.Sensitivity() <= q.GOS.Sensitivity() {
		t.Errorf("gpClust SE %.3f not above GOS SE %.3f; paper shows the opposite",
			q.GPClust.Sensitivity(), q.GOS.Sensitivity())
	}
	// gpClust recruits more sequences into more clusters (Table IV shape).
	if q.GPClustStats.Sequences <= q.GOSStats.Sequences {
		t.Errorf("gpClust recruited %d seqs, GOS %d; want gpClust more",
			q.GPClustStats.Sequences, q.GOSStats.Sequences)
	}
	if q.GPClustStats.Groups <= q.GOSStats.Groups {
		t.Errorf("gpClust reported %d groups, GOS %d; want gpClust more",
			q.GPClustStats.Groups, q.GOSStats.Groups)
	}
	// Both methods report "core sets" far denser than the loose benchmark
	// families (the paper's density argument).
	if q.BenchDensity >= q.GPClustDensity || q.BenchDensity >= q.GOSDensity {
		t.Errorf("benchmark density %.2f not below gpClust %.2f / GOS %.2f",
			q.BenchDensity, q.GPClustDensity, q.GOSDensity)
	}
	// Histograms must cover the same groups counted in stats.
	sum := 0
	for _, c := range q.GroupHistGPClust {
		sum += c
	}
	if sum != q.GPClustStats.Groups {
		t.Errorf("Fig5a gpClust histogram sums to %d, stats say %d groups", sum, q.GPClustStats.Groups)
	}
	var buf bytes.Buffer
	RenderTable3(&buf, q)
	RenderTable4(&buf, q)
	RenderFig5(&buf, q)
	out := buf.String()
	for _, want := range []string{"Table III", "Table IV", "Figure 5(a)", "Figure 5(b)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q", want)
		}
	}
}

func TestRunLargeScale(t *testing.T) {
	r, err := RunLargeScale(0.0002, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Minutes <= 0 {
		t.Fatal("non-positive simulated minutes")
	}
	var buf bytes.Buffer
	RenderLargeScale(&buf, r)
	if !strings.Contains(buf.String(), "minutes") {
		t.Fatal("render output incomplete")
	}
}

func TestAblations(t *testing.T) {
	o := tinyOptions()

	// The paper's Section V claim, on the surviving executors: overlapping
	// transfers with kernels and host aggregation beats the synchronous loop.
	strategies, err := AblateHostParallel(0.02, o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(strategies) != 3 || strategies[2].Value >= strategies[1].Value {
		t.Fatalf("pipelined total not below sequential: %+v", strategies)
	}

	batches, err := AblateBatchSize(0.02, o, []int{0, 20000, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 {
		t.Fatalf("batch rows = %d", len(batches))
	}

	fullsort, err := AblateFullSort(0.02, o)
	if err != nil {
		t.Fatal(err)
	}
	if fullsort[2].Value <= 0 {
		t.Fatalf("full sort shows no overhead: %+v", fullsort)
	}

	params, err := AblateShingleParams(0.001, o, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 6 {
		t.Fatalf("param rows = %d", len(params))
	}

	modes, err := AblateReportModes(0.02, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 2 {
		t.Fatalf("mode rows = %d", len(modes))
	}

	gosK, err := AblateGOSK(0.001, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(gosK) != 4 {
		t.Fatalf("GOS k rows = %d", len(gosK))
	}

	var buf bytes.Buffer
	RenderAblation(&buf, "strategies", strategies)
	if !strings.Contains(buf.String(), "Ablation") {
		t.Fatal("render output incomplete")
	}
}

func TestAblateGPUAggregation(t *testing.T) {
	rows, err := AblateGPUAggregation(0.1, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
}

func TestRunMemoryScaling(t *testing.T) {
	rows, err := RunMemoryScaling([]float64{0.001, 0.002, 0.004}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.PeakHostBytes <= 0 || r.PeakDevBytes <= 0 {
			t.Fatalf("row %d: non-positive peaks %+v", i, r)
		}
		if i > 0 && r.PeakHostBytes <= rows[i-1].PeakHostBytes {
			t.Errorf("peak host bytes not growing with scale: %d then %d",
				rows[i-1].PeakHostBytes, r.PeakHostBytes)
		}
	}
	// Linearity in max{m+n, |E'|}: the per-unit ratio must stay within a
	// modest band across a 4x scale range.
	lo, hi := rows[0].Ratio, rows[0].Ratio
	for _, r := range rows {
		if r.Ratio < lo {
			lo = r.Ratio
		}
		if r.Ratio > hi {
			hi = r.Ratio
		}
	}
	if hi > 3*lo {
		t.Errorf("peak-memory ratio varies %0.1f–%0.1f across scales; complexity claim violated", lo, hi)
	}
	var buf bytes.Buffer
	RenderMemoryScaling(&buf, rows)
	if !strings.Contains(buf.String(), "Peak memory") {
		t.Fatal("render incomplete")
	}
}

func TestRunQualityScaling(t *testing.T) {
	rows, err := RunQualityScaling([]float64{0.003, 0.005}, QualityOptions(), gos.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.GPClustPPV < 0.95 || r.GOSPPV < 0.95 {
			t.Errorf("scale %v: PPV dipped: gp %.3f gos %.3f", r.Scale, r.GPClustPPV, r.GOSPPV)
		}
		if r.GPClustSE <= r.GOSSE {
			t.Errorf("scale %v: SE ordering flipped: gp %.3f vs gos %.3f", r.Scale, r.GPClustSE, r.GOSSE)
		}
	}
	var buf bytes.Buffer
	RenderQualityScaling(&buf, rows)
	if !strings.Contains(buf.String(), "stability") {
		t.Fatal("render incomplete")
	}
}

func TestCompareMCL(t *testing.T) {
	rows, err := CompareMCL(0.003, QualityOptions(), gos.DefaultOptions(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Value <= 0 {
			t.Errorf("%s: SE = %v", r.Label, r.Value)
		}
	}
}

func TestRunMinwiseTheory(t *testing.T) {
	rows := RunMinwiseTheory(2, 100, 4000, 7)
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if d := r.Measured - r.Predicted; d > 0.03 || d < -0.03 {
			t.Errorf("J=%.2f: measured %.4f vs predicted %.4f (|Δ| > 0.03)",
				r.Jaccard, r.Measured, r.Predicted)
		}
	}
	// Monotone: higher Jaccard, higher match probability.
	for i := 1; i < len(rows); i++ {
		if rows[i].Measured < rows[i-1].Measured-0.02 {
			t.Errorf("match probability not monotone in J: %v then %v",
				rows[i-1].Measured, rows[i].Measured)
		}
	}
	var buf bytes.Buffer
	RenderMinwiseTheory(&buf, 2, rows)
	if !strings.Contains(buf.String(), "theory validation") {
		t.Fatal("render incomplete")
	}
}

// The paper profiles the serial implementation and finds "roughly 80% of
// the runtime is consumed by the hashing and sorting operations in the
// first and second level shingling steps" (Section III-C) — the fact that
// motivates off-loading exactly that part. Verify our serial cost model
// reproduces the share.
func TestSerialShingleShare(t *testing.T) {
	g, _ := graph.Planted(Paper20KConfig(0.5))
	o := core.DefaultOptions()
	o.C1, o.C2 = 100, 50
	res, err := core.ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	share := res.Timings.ShingleNs / res.Timings.TotalNs
	if share < 0.7 || share > 0.95 {
		t.Fatalf("serial shingling share = %.1f%%, want ≈ 80%% (paper Section III-C)", 100*share)
	}
}
