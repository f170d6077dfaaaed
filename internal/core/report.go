package core

import (
	"sort"

	"gpclust/internal/unionfind"
)

// reportClusters is Phase III ("Reporting dense subgraphs"): from the
// first-level shingle graph gi (list i = L(s1_i), the vertices that
// generated first-level shingle i) and the grouped second-level output gii
// (list k = L(s2_k), the first-level shingle indices that generated
// second-level shingle k), enumerate the connected components of G_II and
// turn each into a cluster. It returns the clustering and the reporting
// operations it counted.
func reportClusters(n int, gi, gii *SegGraph, mode ReportMode) (Clustering, int64) {
	// Union first-level shingles that share a second-level shingle: the
	// connected components of G_II restricted to the S1' side.
	ufS1 := unionfind.New(gi.NumLists())
	inGII := make([]bool, gi.NumLists())
	var ops int64
	for k := 0; k < gii.NumLists(); k++ {
		members := gii.List(k)
		for j, s1 := range members {
			inGII[s1] = true
			if j > 0 {
				ufS1.Union(int(members[0]), int(s1))
			}
			ops++
		}
	}

	switch mode {
	case ReportUnionFind:
		c, more := reportUnionFind(n, gi, ufS1, inGII)
		return c, ops + more
	case ReportOverlapping:
		c, more := reportOverlapping(n, gi, ufS1, inGII)
		return c, ops + more
	}
	panic("core: unknown report mode")
}

// reportUnionFind implements the paper's chosen strategy: a union-find of
// size n starts with every vertex in its own cluster; for each connected
// component of G_II, all vertices constituting its first-level shingles are
// unioned. "The clusters reported in this way represent a partition of the
// input vertices, and no vertex belong[s to] two different clusters."
func reportUnionFind(n int, gi *SegGraph, ufS1 *unionfind.UF, inGII []bool) (Clustering, int64) {
	uf := unionfind.New(n)
	var ops int64
	// anchor[r] is a representative vertex for the component rooted at r.
	anchor := make([]int64, gi.NumLists())
	for i := range anchor {
		anchor[i] = -1
	}
	for i := 0; i < gi.NumLists(); i++ {
		if !inGII[i] {
			continue
		}
		root := ufS1.Find(i)
		for _, v := range gi.List(i) {
			if anchor[root] == -1 {
				anchor[root] = int64(v)
			}
			uf.Union(int(anchor[root]), int(v))
			ops++
		}
	}

	sets := uf.Sets()
	ops += int64(n)
	clusters := make([][]uint32, 0, len(sets))
	for _, members := range sets {
		cl := make([]uint32, len(members))
		for j, v := range members {
			cl[j] = uint32(v)
		}
		sort.Slice(cl, func(a, b int) bool { return cl[a] < cl[b] })
		clusters = append(clusters, cl)
	}
	sortClusters(clusters)
	return Clustering{N: n, Clusters: clusters}, ops
}

// reportOverlapping implements the alternative strategy: one cluster per
// connected component of G_II, each the union of its first-level shingles'
// vertex sets. "This formulation could produce potential overlaps between
// the output clusters, as the same input vertex can be part of two entirely
// different shingles and different connected components."
func reportOverlapping(n int, gi *SegGraph, ufS1 *unionfind.UF, inGII []bool) (Clustering, int64) {
	byRoot := make(map[int][]uint32)
	var ops int64
	for i := 0; i < gi.NumLists(); i++ {
		if !inGII[i] {
			continue
		}
		root := ufS1.Find(i)
		byRoot[root] = append(byRoot[root], gi.List(i)...)
		ops += int64(len(gi.List(i)))
	}
	clusters := make([][]uint32, 0, len(byRoot))
	for _, vs := range byRoot {
		sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
		// dedup: a vertex may appear through several shingles of the
		// same component
		out := vs[:0]
		for j, v := range vs {
			if j == 0 || v != vs[j-1] {
				out = append(out, v)
			}
		}
		clusters = append(clusters, out)
	}
	sortClusters(clusters)
	return Clustering{N: n, Clusters: clusters}, ops
}

// sortClusters orders clusters by descending size, ties lexicographically
// by members, for deterministic output. The lexicographic tie-break only
// matters in overlapping mode — in a partition, two clusters of equal size
// already differ at their first member — but it makes the enumeration
// order a total one there too, independent of map iteration and of which
// backend produced the clusters.
func sortClusters(clusters [][]uint32) {
	sort.Slice(clusters, func(i, j int) bool {
		ci, cj := clusters[i], clusters[j]
		if len(ci) != len(cj) {
			return len(ci) > len(cj)
		}
		for k := range ci {
			if ci[k] != cj[k] {
				return ci[k] < cj[k]
			}
		}
		return false
	})
}
