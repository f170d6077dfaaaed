package core

import "testing"

// buildSeg constructs a SegGraph from explicit lists.
func buildSeg(lists [][]uint32) *SegGraph {
	sg := &SegGraph{Offsets: []int64{0}}
	for _, l := range lists {
		sg.Data = append(sg.Data, l...)
		sg.Offsets = append(sg.Offsets, int64(len(sg.Data)))
	}
	return sg
}

func TestReportUnionFindMergesComponent(t *testing.T) {
	// Two first-level shingles: s1_0 = {0,1}, s1_1 = {1,2}; one second-level
	// shingle links them -> vertices 0,1,2 become one cluster; 3,4 stay
	// singletons.
	gi := buildSeg([][]uint32{{0, 1}, {1, 2}})
	gii := buildSeg([][]uint32{{0, 1}}) // one s2 containing both s1 indices
	c, ops := reportClusters(5, gi, gii, ReportUnionFind)
	if len(c.Clusters) != 3 {
		t.Fatalf("%d clusters, want 3", len(c.Clusters))
	}
	labels := c.Labels()
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("vertices of the linked shingles not merged")
	}
	if labels[3] == labels[0] || labels[4] == labels[0] || labels[3] == labels[4] {
		t.Fatal("singletons merged incorrectly")
	}
	if ops == 0 {
		t.Fatal("reporting cost not charged")
	}
}

func TestReportShinglesOutsideGIIIgnored(t *testing.T) {
	// s1_1 never contributed to a second-level shingle: its vertices must
	// not be unioned.
	gi := buildSeg([][]uint32{{0, 1}, {2, 3}})
	gii := buildSeg([][]uint32{{0}}) // only s1_0 appears
	c, _ := reportClusters(4, gi, gii, ReportUnionFind)
	labels := c.Labels()
	if labels[0] != labels[1] {
		t.Fatal("s1_0's vertices not merged")
	}
	if labels[2] == labels[3] {
		t.Fatal("vertices of a shingle outside G_II were merged")
	}
}

func TestReportSeparateComponents(t *testing.T) {
	// Two disjoint components in G_II -> two clusters.
	gi := buildSeg([][]uint32{{0, 1}, {2, 3}, {4, 5}})
	gii := buildSeg([][]uint32{{0}, {1, 2}}) // comp A: s1_0; comp B: s1_1+s1_2
	c, _ := reportClusters(6, gi, gii, ReportUnionFind)
	labels := c.Labels()
	if labels[0] != labels[1] {
		t.Fatal("component A not merged")
	}
	if labels[2] != labels[3] || labels[3] != labels[4] || labels[4] != labels[5] {
		t.Fatal("component B not merged")
	}
	if labels[0] == labels[2] {
		t.Fatal("components A and B merged")
	}
}

func TestReportOverlappingSharedVertex(t *testing.T) {
	// Vertex 1 contributes to shingles in two different components: in
	// overlapping mode it appears in both clusters ("the same input vertex
	// can be part of two entire[ly] different shingles and different
	// connected components").
	gi := buildSeg([][]uint32{{0, 1}, {1, 2}})
	gii := buildSeg([][]uint32{{0}, {1}}) // two singleton components
	c, _ := reportClusters(3, gi, gii, ReportOverlapping)
	if len(c.Clusters) != 2 {
		t.Fatalf("%d overlapping clusters, want 2", len(c.Clusters))
	}
	seen := 0
	for _, cl := range c.Clusters {
		for _, v := range cl {
			if v == 1 {
				seen++
			}
		}
	}
	if seen != 2 {
		t.Fatalf("vertex 1 appears in %d clusters, want 2", seen)
	}
}

func TestReportOverlappingDedupsWithinComponent(t *testing.T) {
	// Two shingles of ONE component share vertex 1: it must appear once.
	gi := buildSeg([][]uint32{{0, 1}, {1, 2}})
	gii := buildSeg([][]uint32{{0, 1}})
	c, _ := reportClusters(3, gi, gii, ReportOverlapping)
	if len(c.Clusters) != 1 {
		t.Fatalf("%d clusters, want 1", len(c.Clusters))
	}
	cl := c.Clusters[0]
	if len(cl) != 3 || cl[0] != 0 || cl[1] != 1 || cl[2] != 2 {
		t.Fatalf("cluster = %v, want [0 1 2]", cl)
	}
}

func TestReportEmptyGII(t *testing.T) {
	gi := buildSeg([][]uint32{{0, 1}})
	gii := buildSeg(nil)
	c, _ := reportClusters(3, gi, gii, ReportUnionFind)
	if len(c.Clusters) != 3 {
		t.Fatalf("%d clusters with empty G_II, want 3 singletons", len(c.Clusters))
	}
	o, _ := reportClusters(3, gi, gii, ReportOverlapping)
	if len(o.Clusters) != 0 {
		t.Fatalf("%d overlapping clusters with empty G_II, want 0", len(o.Clusters))
	}
}

func TestSortClustersDeterministic(t *testing.T) {
	clusters := [][]uint32{{7}, {1, 2}, {3}, {4, 5, 6}, {0}}
	sortClusters(clusters)
	if len(clusters[0]) != 3 || len(clusters[1]) != 2 {
		t.Fatal("clusters not sorted by size")
	}
	// ties by first member ascending
	if clusters[2][0] != 0 || clusters[3][0] != 3 || clusters[4][0] != 7 {
		t.Fatalf("tie order wrong: %v", clusters)
	}
}
