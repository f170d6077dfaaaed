package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Build()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.Degree(3) != 0 {
		t.Fatalf("Degree(3) = %d, want 0 (singleton)", g.Degree(3))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse
	b.AddEdge(0, 1) // exact duplicate
	b.AddEdge(2, 2) // self loop: dropped
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after dedupe", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self loop retained at vertex 2")
	}
}

func TestBuilderGrowsVertexSpace(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 9)
	g := b.Build()
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10 (grown by edge)", g.NumVertices())
	}
}

func TestHasEdge(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {1, 3}, {3, 4}})
	cases := []struct {
		u, v uint32
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 3, true}, {3, 4, true},
		{0, 3, false}, {2, 2, false}, {4, 0, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestValidatePropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomGraph(50, 120, seed)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	// two triangles + an isolated vertex + a path
	g := FromEdges(9, []Edge{
		{0, 1}, {1, 2}, {2, 0}, // comp A
		{3, 4}, {4, 5}, {5, 3}, // comp B
		{7, 8}, // comp C (path)
		// 6 isolated
	})
	labels, count := ConnectedComponents(g)
	if count != 4 {
		t.Fatalf("component count = %d, want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("triangle A not one component")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Error("triangle B not one component")
	}
	if labels[0] == labels[3] {
		t.Error("triangles merged")
	}
	if labels[6] == labels[0] || labels[6] == labels[3] || labels[6] == labels[7] {
		t.Error("isolated vertex shares a label")
	}
	sizes := ComponentSizes(labels, count)
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 9 {
		t.Fatalf("component sizes sum to %d, want 9", total)
	}
	if LargestComponent(g) != 3 {
		t.Fatalf("LargestComponent = %d, want 3", LargestComponent(g))
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	sub, orig := InducedSubgraph(g, []uint32{0, 1, 2})
	if sub.NumVertices() != 3 {
		t.Fatalf("sub vertices = %d, want 3", sub.NumVertices())
	}
	if sub.NumEdges() != 2 { // edges 0-1, 1-2 survive; 2-3 and 5-0 cut
		t.Fatalf("sub edges = %d, want 2", sub.NumEdges())
	}
	if len(orig) != 3 || orig[0] != 0 || orig[1] != 1 || orig[2] != 2 {
		t.Fatalf("orig mapping = %v", orig)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNonSingletonVertices(t *testing.T) {
	g := FromEdges(5, []Edge{{1, 3}})
	ns := g.NonSingletonVertices()
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 3 {
		t.Fatalf("NonSingletonVertices = %v, want [1 3]", ns)
	}
}

func TestComputeStats(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 0}}) // triangle + 2 singletons
	s := ComputeStats(g)
	if s.Vertices != 5 || s.NonSingletons != 3 || s.Edges != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgDegree != 2 || s.StdDegree != 0 {
		t.Fatalf("degree stats = %v±%v, want 2±0", s.AvgDegree, s.StdDegree)
	}
	if s.LargestCC != 3 {
		t.Fatalf("LargestCC = %d, want 3", s.LargestCC)
	}
	if s.Components != 1 {
		t.Fatalf("Components = %d, want 1", s.Components)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	h := DegreeHistogram(g, 2)
	// star: center degree 3 (clipped to bucket 2), leaves degree 1
	if h[0] != 0 || h[1] != 3 || h[2] != 1 {
		t.Fatalf("histogram = %v, want [0 3 1]", h)
	}
}

func TestPowerLawSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sizes := PowerLawSizes(rng, 10000, 5, 500, 2.2)
	sum := 0
	for _, s := range sizes {
		if s < 1 || s > 500 {
			t.Fatalf("size %d out of range", s)
		}
		sum += s
	}
	if sum != 10000 {
		t.Fatalf("sizes sum to %d, want 10000", sum)
	}
	// power law: small families must dominate counts
	small, large := 0, 0
	for _, s := range sizes {
		if s <= 20 {
			small++
		} else if s >= 100 {
			large++
		}
	}
	if small <= large {
		t.Errorf("power law shape violated: %d small vs %d large families", small, large)
	}
}

func TestPlantedGroundTruthConsistent(t *testing.T) {
	cfg := DefaultPlantedConfig(2000)
	g, gt := Planted(cfg)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	inFam := 0
	for v, f := range gt.Family {
		if f >= 0 {
			inFam++
			if f >= int32(gt.NumFamilies) {
				t.Fatalf("family id %d out of range", f)
			}
			if gt.SuperFamily[v] < 0 {
				t.Fatalf("vertex %d in family but not in super-family", v)
			}
		} else if gt.SuperFamily[v] >= 0 {
			t.Fatalf("background vertex %d has super-family", v)
		}
	}
	want := int(float64(2000) * cfg.FamilyFraction)
	if inFam != want {
		t.Fatalf("family members = %d, want %d", inFam, want)
	}
}

func TestPlantedFamiliesAreDense(t *testing.T) {
	cfg := DefaultPlantedConfig(3000)
	cfg.NoiseEdges = 0
	cfg.BridgedPairs = 0
	g, gt := Planted(cfg)
	// measure density of a few large families
	fams := make(map[int32][]uint32)
	for v, f := range gt.Family {
		if f >= 0 {
			fams[f] = append(fams[f], uint32(v))
		}
	}
	checked := 0
	for _, members := range fams {
		if len(members) < 10 || len(members) > 200 {
			continue
		}
		edges := 0
		for i := range members {
			for j := i + 1; j < len(members); j++ {
				if g.HasEdge(members[i], members[j]) {
					edges++
				}
			}
		}
		possible := len(members) * (len(members) - 1) / 2
		density := float64(edges) / float64(possible)
		if density < cfg.IntraDensity-0.25 {
			t.Errorf("family of size %d has density %.2f, want ≈ %.2f",
				len(members), density, cfg.IntraDensity)
		}
		checked++
		if checked >= 5 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no mid-sized family found to check")
	}
}

func TestPlantedDeterministic(t *testing.T) {
	cfg := DefaultPlantedConfig(1000)
	g1, _ := Planted(cfg)
	g2, _ := Planted(cfg)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced different edge counts: %d vs %d",
			g1.NumEdges(), g2.NumEdges())
	}
	for i := range g1.Adj {
		if g1.Adj[i] != g2.Adj[i] {
			t.Fatal("same seed produced different adjacency")
		}
	}
}

func TestRandomGraph(t *testing.T) {
	g := RandomGraph(100, 300, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 250 { // some dupes may reduce below 300 before builder retries
		t.Fatalf("NumEdges = %d, want ≥ 250", g.NumEdges())
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(12, 30000, 0.57, 0.19, 0.19, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4096 {
		t.Fatalf("vertices = %d, want 4096", g.NumVertices())
	}
	if g.NumEdges() < 20000 {
		t.Fatalf("edges = %d after dedupe, want most of 30000", g.NumEdges())
	}
	st := ComputeStats(g)
	// Scale-free shape: degree standard deviation well above the mean.
	if st.StdDegree < st.AvgDegree {
		t.Errorf("RMAT degrees %0.1f±%0.1f not heavy-tailed", st.AvgDegree, st.StdDegree)
	}
	// Determinism.
	g2 := RMAT(12, 30000, 0.57, 0.19, 0.19, 5)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("RMAT not deterministic")
	}
}

func TestRMATValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid probabilities did not panic")
		}
	}()
	RMAT(4, 10, 0.6, 0.3, 0.3, 1)
}
