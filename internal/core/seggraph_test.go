package core

import (
	"math/rand"
	"slices"
	"testing"

	"gpclust/internal/graph"
)

func TestFromGraphDropsSingletons(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{{U: 1, V: 3}, {U: 3, V: 4}})
	sg := FromGraph(g)
	if sg.NumLists() != 3 {
		t.Fatalf("%d lists, want 3 (vertices 1, 3, 4)", sg.NumLists())
	}
	if sg.Owner(0) != 1 || sg.Owner(1) != 3 || sg.Owner(2) != 4 {
		t.Fatalf("owners = %v", sg.Owners)
	}
	// List contents mirror the adjacency lists.
	if got := sg.List(1); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("list of vertex 3 = %v, want [1 4]", got)
	}
	if len(sg.Data) != 4 {
		t.Fatalf("data length = %d, want 4 (two edges, both directions)", len(sg.Data))
	}
}

func TestFilterMinLen(t *testing.T) {
	sg := &SegGraph{
		Offsets: []int64{0, 1, 4, 4, 6},
		Data:    []uint32{9, 1, 2, 3, 7, 8},
	}
	out := sg.filterMinLen(2)
	if out.NumLists() != 2 {
		t.Fatalf("%d lists survive, want 2", out.NumLists())
	}
	// Owners point back at the source indices.
	if out.Owner(0) != 1 || out.Owner(1) != 3 {
		t.Fatalf("owners = %v, want [1 3]", out.Owners)
	}
	if got := out.List(0); len(got) != 3 || got[0] != 1 {
		t.Fatalf("filtered list 0 = %v", got)
	}
	// Filtering with minLen 1 drops only the empty list.
	if got := sg.filterMinLen(1); got.NumLists() != 3 {
		t.Fatalf("minLen=1 keeps %d lists, want 3", got.NumLists())
	}
}

func TestOwnerDefaultsToIndex(t *testing.T) {
	sg := &SegGraph{Offsets: []int64{0, 1, 2}, Data: []uint32{5, 6}}
	if sg.Owner(0) != 0 || sg.Owner(1) != 1 {
		t.Fatal("nil Owners should mean identity")
	}
}

// refShingleKey is shingleKey's one-pass body: FNV-1a over the trial's
// bytes, then the minima's.
func refShingleKey(trial uint32, minima []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range append([]uint32{trial}, minima...) {
		for sh := 0; sh < 32; sh += 8 {
			h ^= uint64((v >> sh) & 0xff)
			h *= 1099511628211
		}
	}
	return h
}

// TestShingleKeyFromTrialHash: a key finished from its trial's hoisted
// prefix equals the one-pass hash.
func TestShingleKeyFromTrialHash(t *testing.T) {
	for _, trial := range []uint32{0, 1, 199, 1 << 31, ^uint32(0)} {
		for _, minima := range [][]uint32{nil, {0}, {10, 20}, {7, 1 << 30, ^uint32(0)}} {
			want := refShingleKey(trial, minima)
			if got := shingleKeyFrom(trialHash(trial), minima); got != want {
				t.Fatalf("trial %d minima %v: shingleKeyFrom = %#x, one-pass hash %#x", trial, minima, got, want)
			}
			if got := shingleKey(trial, minima); got != want {
				t.Fatalf("trial %d minima %v: shingleKey = %#x, one-pass hash %#x", trial, minima, got, want)
			}
		}
	}
}

func TestShingleKeyProperties(t *testing.T) {
	a := shingleKey(3, []uint32{10, 20})
	b := shingleKey(3, []uint32{10, 20})
	if a != b {
		t.Fatal("equal (trial, minima) produced different keys")
	}
	// Trial separation: "shingles from different trials do not get mixed".
	if shingleKey(4, []uint32{10, 20}) == a {
		t.Fatal("different trials collided")
	}
	if shingleKey(3, []uint32{20, 10}) == a {
		t.Fatal("permuted minima collided (inputs are canonical ascending)")
	}
	if shingleKey(3, []uint32{10, 21}) == a {
		t.Fatal("different minima collided")
	}
}

func TestBuildShingleGraphGroups(t *testing.T) {
	stats := &PassStats{}
	tuples := [][]tuple{
		{ // trial 0
			{key: 100, owner: 5},
			{key: 100, owner: 2},
			{key: 200, owner: 7},
		},
		nil, // trial 1 empty
		{ // trial 2: same numeric key as trial 0 would already differ via
			// shingleKey, but buildShingleGraph must keep trials separate
			// regardless
			{key: 100, owner: 9},
		},
	}
	sg, ops := buildShingleGraph(tuples, 1, stats)
	if sg.NumLists() != 3 {
		t.Fatalf("%d shingle groups, want 3", sg.NumLists())
	}
	if stats.Shingles != 3 {
		t.Fatalf("stats.Shingles = %d", stats.Shingles)
	}
	// First group: owners of key 100 in trial 0, sorted.
	if got := sg.List(0); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("group 0 = %v, want [2 5]", got)
	}
	if got := sg.List(2); len(got) != 1 || got[0] != 9 {
		t.Fatalf("group 2 = %v, want [9]", got)
	}
	if ops == 0 {
		t.Fatal("aggregation cost not charged")
	}
}

// TestBuildShingleGraphWorkers pins worker-count invariance of the
// per-trial sorts: random streams (empty trials, trials on both sides of the
// insertion-sort cutoff, duplicate (key, owner) tuples) must group into the
// same shingle graph, shingle count and aggregation charge for every pool
// size.
func TestBuildShingleGraphWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trials := make([][]tuple, 37)
	for j := range trials {
		if j%6 == 0 {
			continue // empty trial
		}
		ts := make([]tuple, rng.Intn(400))
		for i := range ts {
			ts[i] = tuple{key: uint64(rng.Intn(60)) << 40, owner: uint32(rng.Intn(50))}
		}
		trials[j] = ts
	}
	build := func(workers int) (*SegGraph, PassStats, int64) {
		in := make([][]tuple, len(trials))
		for j, ts := range trials {
			in[j] = append([]tuple(nil), ts...)
		}
		var stats PassStats
		sg, ops := buildShingleGraph(in, workers, &stats)
		return sg, stats, ops
	}
	want, wantStats, wantOps := build(1)
	if wantStats.Shingles == 0 || len(want.Data) == 0 {
		t.Fatal("test streams grouped into nothing")
	}
	for _, workers := range []int{2, 5} {
		got, stats, ops := build(workers)
		if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Data, want.Data) ||
			!slices.Equal(got.Owners, want.Owners) {
			t.Fatalf("workers=%d: shingle graph differs from workers=1", workers)
		}
		if stats.Shingles != wantStats.Shingles || ops != wantOps {
			t.Fatalf("workers=%d: shingles %d, aggOps %d; want %d, %d",
				workers, stats.Shingles, ops, wantStats.Shingles, wantOps)
		}
	}
}
