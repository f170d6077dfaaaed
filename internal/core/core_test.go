package core

import (
	"reflect"
	"testing"

	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/sched"
)

// testOptions returns fast settings for unit tests (the paper's c1=200,
// c2=100 are production quality settings, far more trials than small test
// graphs need).
func testOptions() Options {
	o := DefaultOptions()
	o.C1, o.C2 = 40, 20
	return o
}

// plantedTestGraph builds a small graph with known dense families.
func plantedTestGraph(n int, seed int64) (*graph.Graph, *graph.GroundTruth) {
	cfg := graph.DefaultPlantedConfig(n)
	cfg.Seed = seed
	cfg.BridgedPairs = 0
	cfg.NoiseEdges = n / 100
	return graph.Planted(cfg)
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{S1: 0, C1: 1, S2: 1, C2: 1},
		{S1: 1, C1: 0, S2: 1, C2: 1},
		{S1: 1, C1: 1, S2: 0, C2: 1},
		{S1: 1, C1: 1, S2: 1, C2: 0},
		{S1: 65, C1: 1, S2: 1, C2: 1},
		{S1: 1, C1: 1, S2: 1, C2: 1, Plan: sched.Plan{BudgetWords: -5}},
		{S1: 1, C1: 1, S2: 1, C2: 1, Plan: sched.Plan{Lanes: -1}},
		{S1: 1, C1: 1, S2: 1, C2: 1, Plan: sched.Plan{Lanes: 5}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("options %d accepted: %+v", i, o)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("DefaultOptions invalid: %v", err)
	}
	for lanes := 0; lanes <= 4; lanes++ {
		o := DefaultOptions()
		o.Plan.Lanes = lanes
		if err := o.Validate(); err != nil {
			t.Errorf("%d lanes rejected: %v", lanes, err)
		}
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if o.S1 != 2 || o.C1 != 200 || o.S2 != 2 || o.C2 != 100 {
		t.Fatalf("defaults s1=%d c1=%d s2=%d c2=%d; paper Section III-D says 2/200/2/100",
			o.S1, o.C1, o.S2, o.C2)
	}
	if o.Mode != ReportUnionFind {
		t.Fatal("default mode is not the paper's union-find reporting")
	}
}

func TestSerialPartitionInvariants(t *testing.T) {
	g, _ := plantedTestGraph(500, 3)
	res, err := ClusterSerial(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Union-find mode must produce an exact partition of [0, n).
	seen := make([]bool, g.NumVertices())
	for _, cl := range res.Clustering.Clusters {
		if len(cl) == 0 {
			t.Fatal("empty cluster reported")
		}
		for j, v := range cl {
			if seen[v] {
				t.Fatalf("vertex %d in two clusters", v)
			}
			seen[v] = true
			if j > 0 && cl[j-1] >= v {
				t.Fatal("cluster members not sorted")
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d missing from partition", v)
		}
	}
	// Labels must therefore work.
	labels := res.Clustering.Labels()
	if len(labels) != g.NumVertices() {
		t.Fatal("labels length mismatch")
	}
}

func TestSerialRecoversPlantedFamilies(t *testing.T) {
	g, gt := plantedTestGraph(600, 7)
	res, err := ClusterSerial(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Clustering.Labels()

	// For every planted family of reasonable size, the bulk of its members
	// must land in a single cluster (the family's dense subgraph is exactly
	// what shingling detects).
	fams := map[int32][]uint32{}
	for v, f := range gt.Family {
		if f >= 0 {
			fams[f] = append(fams[f], uint32(v))
		}
	}
	checked := 0
	for f, members := range fams {
		if len(members) < 8 {
			continue
		}
		counts := map[int32]int{}
		for _, v := range members {
			counts[labels[v]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		if float64(best) < 0.7*float64(len(members)) {
			t.Errorf("family %d (size %d): largest cluster holds only %d members", f, len(members), best)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d families of size ≥ 8 in test graph; generator misconfigured", checked)
	}

	// Conversely, big clusters must be pure at the super-family level:
	// shingling may merge sister core families connected by the planted
	// cross edges (that is what the paper's loose "benchmark" families
	// model), but it must not merge unrelated super-families.
	for _, cl := range res.Clustering.ClustersOfSizeAtLeast(8) {
		counts := map[int32]int{}
		for _, v := range cl {
			counts[gt.SuperFamily[v]]++
		}
		best := 0
		for f, c := range counts {
			if f >= 0 && c > best {
				best = c
			}
		}
		if float64(best) < 0.7*float64(len(cl)) {
			t.Errorf("cluster of size %d is impure: best super-family covers %d", len(cl), best)
		}
	}
}

func TestSerialDeterministic(t *testing.T) {
	g, _ := plantedTestGraph(300, 11)
	o := testOptions()
	r1, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Clustering, r2.Clustering) {
		t.Fatal("same seed produced different clusterings")
	}
	o.Seed = 999
	r3, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds may legitimately coincide on tiny graphs, but the
	// pass statistics (distinct shingles) almost surely differ.
	if r1.Pass1.Shingles == r3.Pass1.Shingles && reflect.DeepEqual(r1.Clustering, r3.Clustering) {
		t.Log("warning: different seeds produced identical output (possible but unlikely)")
	}
}

func TestGPUMatchesSerial(t *testing.T) {
	g, _ := plantedTestGraph(500, 5)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.MustNew(gpusim.K20Config())
	gpu, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
		t.Fatalf("GPU clustering differs from serial: %d vs %d clusters",
			len(gpu.Clustering.Clusters), len(serial.Clustering.Clusters))
	}
	if serial.Pass1.Tuples != gpu.Pass1.Tuples {
		t.Fatalf("pass-1 tuples: serial %d vs gpu %d", serial.Pass1.Tuples, gpu.Pass1.Tuples)
	}
	if serial.Pass2.Tuples != gpu.Pass2.Tuples {
		t.Fatalf("pass-2 tuples: serial %d vs gpu %d", serial.Pass2.Tuples, gpu.Pass2.Tuples)
	}
	if dev.AllocatedBuffers() != 0 {
		t.Fatalf("%d device buffers leaked", dev.AllocatedBuffers())
	}
}

func TestGPUMatchesSerialAcrossBatchSizes(t *testing.T) {
	g, _ := plantedTestGraph(400, 13)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, batchWords := range []int{0, 50_000, 5_000, 700, 24} {
		o.Plan.BudgetWords = batchWords
		dev := gpusim.MustNew(gpusim.K20Config())
		gpu, err := ClusterGPU(g, dev, o)
		if err != nil {
			t.Fatalf("budget=%d: %v", batchWords, err)
		}
		if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
			t.Fatalf("budget=%d: clustering differs from serial (batches=%d splits=%d)",
				batchWords, gpu.Pass1.Batches, gpu.Pass1.SplitLists)
		}
		if batchWords == 24 && gpu.Pass1.SplitLists == 0 {
			t.Fatal("tiny batches produced no split lists; split-merge path untested")
		}
		if batchWords == 5_000 && gpu.Pass1.Batches < 2 {
			t.Fatal("budget 5000 did not force multiple batches")
		}
	}
}

func TestGPUSmallDeviceForcesBatching(t *testing.T) {
	// On the 1 MB test device the default (memory-derived) batch budget
	// must yield multiple batches and still match serial.
	g, _ := plantedTestGraph(800, 17)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpusim.SmallConfig()
	cfg.GlobalMemBytes = 32 << 10 // 8K words: far below the graph's footprint
	dev := gpusim.MustNew(cfg)
	gpu, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Pass1.Batches < 2 {
		t.Fatalf("tiny device used %d batch(es) for a %d-word graph",
			gpu.Pass1.Batches, len(g.Adj))
	}
	if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
		t.Fatal("batched clustering differs from serial")
	}
}

func TestFullSortMatchesFused(t *testing.T) {
	g, _ := plantedTestGraph(300, 23)
	o := testOptions()
	devA := gpusim.MustNew(gpusim.K20Config())
	fused, err := ClusterGPU(g, devA, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Plan.FullSort = true
	devB := gpusim.MustNew(gpusim.K20Config())
	full, err := ClusterGPU(g, devB, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fused.Clustering, full.Clustering) {
		t.Fatal("full-sort path produced a different clustering")
	}
	// The literal Algorithm 1 does strictly more device work.
	if full.Timings.GPUNs <= fused.Timings.GPUNs {
		t.Fatalf("full sort GPU time %.2fms not above fused %.2fms",
			full.Timings.GPUNs/1e6, fused.Timings.GPUNs/1e6)
	}
}

func TestOverlappingMode(t *testing.T) {
	g, _ := plantedTestGraph(400, 31)
	o := testOptions()
	o.Mode = ReportOverlapping
	res, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range res.Clustering.Clusters {
		if len(cl) == 0 {
			t.Fatal("empty overlapping cluster")
		}
		for j := 1; j < len(cl); j++ {
			if cl[j-1] >= cl[j] {
				t.Fatal("overlapping cluster members not sorted/deduped")
			}
		}
	}
	// The union-find partition is the overlap-free coarsening: every
	// overlapping cluster must live inside one union-find cluster.
	o.Mode = ReportUnionFind
	part, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	labels := part.Clustering.Labels()
	for _, cl := range res.Clustering.Clusters {
		l := labels[cl[0]]
		for _, v := range cl[1:] {
			if labels[v] != l {
				t.Fatalf("overlapping cluster spans union-find clusters %d and %d", l, labels[v])
			}
		}
	}
}

func TestTimingsShape(t *testing.T) {
	g, _ := plantedTestGraph(4000, 37)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.MustNew(gpusim.K20Config())
	gpu, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	st, gt := serial.Timings, gpu.Timings
	if st.TotalNs <= 0 || gt.TotalNs <= 0 {
		t.Fatal("non-positive totals")
	}
	if st.GPUNs != 0 || st.H2DNs != 0 || st.D2HNs != 0 {
		t.Fatal("serial run reports GPU components")
	}
	if gt.GPUNs <= 0 || gt.H2DNs <= 0 || gt.D2HNs <= 0 {
		t.Fatal("GPU run missing components")
	}
	// Table I shape: the accelerated part is dramatically faster than its
	// serial counterpart, and D2H dwarfs H2D (shingles move back per trial,
	// the input moves once per batch).
	if st.ShingleNs <= 0 || st.TotalNs < st.ShingleNs {
		t.Fatalf("serial shingle time %v inconsistent with total %v", st.ShingleNs, st.TotalNs)
	}
	if gt.ShingleNs != 0 {
		t.Fatal("GPU run reports a serial shingle component")
	}
	if st.ShingleNs < 5*gt.GPUNs {
		t.Fatalf("GPU-part speedup = %.1fX, want ≥ 5X even at test scale",
			st.ShingleNs/gt.GPUNs)
	}
	// At full scale D2H dwarfs H2D (per-trial shingle downloads vs one
	// upload per batch — Table I); at this test's tiny scale both are
	// dominated by the per-call setup cost, so only near-parity is
	// asserted here. The bench harness tests the full-scale shape.
	if gt.D2HNs < 0.9*gt.H2DNs {
		t.Fatalf("D2H (%.2fms) well below H2D (%.2fms); Table I shows the opposite",
			gt.D2HNs/1e6, gt.H2DNs/1e6)
	}
	if gt.TotalNs >= st.TotalNs {
		t.Fatalf("gpClust total %.1fms not below serial %.1fms", gt.TotalNs/1e6, st.TotalNs/1e6)
	}
}

func TestPassStats(t *testing.T) {
	g, _ := plantedTestGraph(400, 41)
	o := testOptions()
	res, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	nonSingleton := len(g.NonSingletonVertices())
	if res.Pass1.Lists != nonSingleton {
		t.Fatalf("Pass1.Lists = %d, want %d non-singleton vertices", res.Pass1.Lists, nonSingleton)
	}
	if res.Pass1.Elements != int64(len(g.Adj)) {
		t.Fatalf("Pass1.Elements = %d, want %d", res.Pass1.Elements, len(g.Adj))
	}
	wantTuples := int64(res.Pass1.Lists-res.Pass1.SkippedShort) * int64(o.C1)
	if res.Pass1.Tuples != wantTuples {
		t.Fatalf("Pass1.Tuples = %d, want %d", res.Pass1.Tuples, wantTuples)
	}
	if res.Pass1.Shingles == 0 || res.Pass2.Shingles == 0 {
		t.Fatal("no shingles generated")
	}
	if res.Pass1.SharedLists == 0 {
		t.Fatal("no first-level shingles shared by ≥ s2 vertices; dense structure not detected")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(10, nil) // 10 singletons
	o := testOptions()
	res, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clustering.Clusters) != 10 {
		t.Fatalf("%d clusters for 10 singletons, want 10", len(res.Clustering.Clusters))
	}
	dev := gpusim.MustNew(gpusim.K20Config())
	gres, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Clustering, gres.Clustering) {
		t.Fatal("GPU empty-graph clustering differs")
	}
}

func TestTinyDegreeGraph(t *testing.T) {
	// All degrees below s1: nothing can be shingled; everything stays a
	// singleton cluster.
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	o := testOptions()
	o.S1 = 3
	res, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass1.SkippedShort != 4 {
		t.Fatalf("SkippedShort = %d, want 4", res.Pass1.SkippedShort)
	}
	if len(res.Clustering.Clusters) != 6 {
		t.Fatalf("%d clusters, want 6 singletons", len(res.Clustering.Clusters))
	}
}

func TestMergeTopS(t *testing.T) {
	S := uint32(0xFFFFFFFF) // sentinel
	cases := []struct {
		acc, piece, want []uint32
		s                int
	}{
		{nil, []uint32{1, 2, S}, []uint32{1, 2}, 3},
		{[]uint32{1, 2}, []uint32{0, 3, S}, []uint32{0, 1, 2}, 3},
		{[]uint32{5, 6, 7}, []uint32{1, 2, 3}, []uint32{1, 2, 3}, 3},
		{[]uint32{1, 3, 5}, []uint32{2, 4, 6}, []uint32{1, 2, 3}, 3},
		{nil, []uint32{S, S, S}, []uint32{}, 3},
		{[]uint32{9}, []uint32{4, S}, []uint32{4, 9}, 2},
	}
	for i, c := range cases {
		got := mergeTopS(c.acc, c.piece, c.s)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, c.want)
			}
		}
	}
}

func TestPlanBatches(t *testing.T) {
	sg := &SegGraph{
		Offsets: []int64{0, 10, 12, 112, 115},
		Data:    make([]uint32, 115),
	}
	plans, err := planBatches(sg, 2, 200, false)
	if err != nil {
		t.Fatal(err)
	}
	// Reassembled pieces must cover every list exactly.
	covered := map[int]int64{}
	for _, p := range plans {
		cost := 0
		for _, pc := range p.pieces {
			if pc.lo != covered[pc.list] {
				t.Fatalf("list %d pieces out of order: lo=%d, covered=%d", pc.list, pc.lo, covered[pc.list])
			}
			covered[pc.list] = pc.hi
			cost += 3*pc.words() + 2*(2+2)
		}
		if cost > 200 {
			t.Fatalf("batch footprint %d exceeds budget 200", cost)
		}
	}
	for i := 0; i < sg.NumLists(); i++ {
		want := sg.Offsets[i+1] - sg.Offsets[i]
		if covered[i] != want {
			t.Fatalf("list %d covered to %d, want %d", i, covered[i], want)
		}
	}
	// Budget too small for anything.
	if _, err := planBatches(sg, 2, 4, false); err == nil {
		t.Fatal("absurd budget accepted")
	}
}

func TestClustersOfSizeAtLeast(t *testing.T) {
	c := Clustering{N: 10, Clusters: [][]uint32{
		{0, 1, 2}, {3, 4}, {5}, {6, 7, 8, 9},
	}}
	big := c.ClustersOfSizeAtLeast(3)
	if len(big) != 2 {
		t.Fatalf("got %d clusters, want 2", len(big))
	}
	if len(big[0]) != 4 || len(big[1]) != 3 {
		t.Fatal("clusters not sorted descending")
	}
}

func BenchmarkClusterSerial2K(b *testing.B) {
	g, _ := plantedTestGraph(2000, 1)
	o := testOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClusterSerial(g, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterGPU2K(b *testing.B) {
	g, _ := plantedTestGraph(2000, 1)
	o := testOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev := gpusim.MustNew(gpusim.K20Config())
		if _, err := ClusterGPU(g, dev, o); err != nil {
			b.Fatal(err)
		}
	}
}
