package core

import (
	"math/bits"

	"gpclust/internal/graph"
	"gpclust/internal/sched"
)

// SegGraph is a set of adjacency lists in concatenated (segmented) form —
// the unit both shingling passes consume and produce. In pass 1 the lists
// are the input graph's vertex neighborhoods; the pass's output lists are
// the first-level shingle graph G_I (list i holds L(s1_i), the vertices that
// generated shingle i), which — filtered — feeds pass 2.
type SegGraph struct {
	Offsets []int64  // len NumLists()+1; list i spans Data[Offsets[i]:Offsets[i+1]]
	Data    []uint32 // concatenated lists
	Owners  []uint32 // owner id of list i; nil means owner(i) = i
}

// NumLists returns the number of lists.
func (sg *SegGraph) NumLists() int { return len(sg.Offsets) - 1 }

// List returns list i.
func (sg *SegGraph) List(i int) []uint32 { return sg.Data[sg.Offsets[i]:sg.Offsets[i+1]] }

// Owner returns the owner id whose shingles list i generates.
func (sg *SegGraph) Owner(i int) uint32 {
	if sg.Owners == nil {
		return uint32(i)
	}
	return sg.Owners[i]
}

// FromGraph extracts the non-singleton adjacency lists of g as a SegGraph
// with vertex-id owners — the bipartite view G(V_l, V_r, E) with V_l = V_r =
// V that pass 1 shingles. Singleton vertices are dropped, as the paper does
// ("they will be ignored in the subsequent analysis").
func FromGraph(g *graph.Graph) *SegGraph {
	sg := &SegGraph{Offsets: []int64{0}}
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(uint32(v))
		if len(adj) == 0 {
			continue
		}
		sg.Data = append(sg.Data, adj...)
		sg.Offsets = append(sg.Offsets, int64(len(sg.Data)))
		sg.Owners = append(sg.Owners, uint32(v))
	}
	return sg
}

// filterMinLen keeps only the lists with at least minLen elements, setting
// each kept list's owner to its index in the source (so pass-2 tuples refer
// back to first-level shingle indices). Lists shorter than the shingle size
// cannot generate shingles and are exact dead weight (Section III-B: shingles
// are generated "for any vertex u ∈ V that has at least s links").
func (sg *SegGraph) filterMinLen(minLen int) *SegGraph {
	out := &SegGraph{Offsets: []int64{0}}
	for i := 0; i < sg.NumLists(); i++ {
		lst := sg.List(i)
		if len(lst) < minLen {
			continue
		}
		out.Data = append(out.Data, lst...)
		out.Offsets = append(out.Offsets, int64(len(out.Data)))
		out.Owners = append(out.Owners, uint32(i))
	}
	return out
}

// tuple is one <shingle, owner> pair of the "<s_j, L(s_j)>" tuples of
// Section III-B, before grouping. The key folds the trial index with the
// shingle's s minima so that "shingles from different trials do not get
// mixed".
type tuple struct {
	key   uint64
	owner uint32
}

// fnvPrime64 is the 64-bit FNV-1a multiplier.
const fnvPrime64 = 1099511628211

// shingleKey hashes (trial, minima...) to the shingle's integer identity
// (64-bit FNV-1a; the paper assumes "an integer representation obtained
// using a hash function").
func shingleKey(trial uint32, minima []uint32) uint64 {
	return shingleKeyFrom(trialHash(trial), minima)
}

// trialHash is the FNV-1a state after a trial's 4 bytes: the prefix every
// shingle key of the trial shares, so emitters hash it once per trial.
func trialHash(trial uint32) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for sh := 0; sh < 32; sh += 8 {
		h ^= uint64((trial >> sh) & 0xff)
		h *= fnvPrime64
	}
	return h
}

// shingleKeyFrom finishes a shingle key from its trial's trialHash.
func shingleKeyFrom(h uint64, minima []uint32) uint64 {
	for _, v := range minima {
		for sh := 0; sh < 32; sh += 8 {
			h ^= uint64((v >> sh) & 0xff)
			h *= fnvPrime64
		}
	}
	return h
}

// buildShingleGraph groups each trial's tuples by shingle key ("a sorting is
// done to gather all vertices that generated each shingle ... once for each
// random trial") and emits the resulting bipartite shingle graph in
// adjacency-list form. Owner lists come out sorted. The per-trial sorts are
// independent and run across workers; grouping happens in trial order, so
// the output is identical for every worker count. It returns the graph and
// the aggregation operations it counted.
func buildShingleGraph(tuplesByTrial [][]tuple, workers int, stats *PassStats) (*SegGraph, int64) {
	return groupTrials(len(tuplesByTrial), workers, stats, func(trial int) ([]tuple, int64) {
		ts := tuplesByTrial[trial]
		sortTuples(ts)
		// Sort cost: n log n comparisons, plus a grouping scan.
		n := int64(len(ts))
		return ts, n*int64(bits.Len64(uint64(n))) + n
	})
}

// buildShingleGraphPresorted is buildShingleGraph for the GPU-aggregation
// path: each trial's tuples arrive as pre-sorted per-batch streams (plus a
// small unsorted residue of split-list tuples) and only need a linear merge.
func buildShingleGraphPresorted(sortedByTrial [][][]tuple, residueByTrial [][]tuple,
	workers int, stats *PassStats) (*SegGraph, int64) {
	return groupTrials(len(sortedByTrial), workers, stats, func(trial int) ([]tuple, int64) {
		return mergeSortedStreams(sortedByTrial[trial], residueByTrial[trial])
	})
}

// groupTrials runs sorted(trial) — which returns trial's tuples in (key,
// owner) order and the operations that took — for the c trials across a
// pool of workers, then appends every trial's key-groups in trial order
// into a shingle graph sized exactly from the per-trial tuple and group
// counts. It returns the graph and the operations counted in total.
func groupTrials(c, workers int, stats *PassStats,
	sorted func(trial int) ([]tuple, int64)) (*SegGraph, int64) {
	streams := make([][]tuple, c)
	opsByTrial := make([]int64, c)
	groups := make([]int, c)
	sched.ParallelFor(workers, c, func(_, trial int) {
		streams[trial], opsByTrial[trial] = sorted(trial)
		groups[trial] = countGroups(streams[trial])
	})
	var ops int64
	nData, nGroups := 0, 0
	for trial := range streams {
		ops += opsByTrial[trial]
		nData += len(streams[trial])
		nGroups += groups[trial]
	}
	out := &SegGraph{Offsets: make([]int64, 1, nGroups+1), Data: make([]uint32, 0, nData)}
	for _, ts := range streams {
		appendGroups(out, ts)
	}
	stats.Shingles = out.NumLists()
	return out, ops + int64(len(out.Data))
}

// countGroups returns the number of key-groups in a sorted tuple stream.
func countGroups(sorted []tuple) int {
	n := 0
	for i := range sorted {
		if i == 0 || sorted[i].key != sorted[i-1].key {
			n++
		}
	}
	return n
}

// appendGroups appends one sorted tuple stream's key-groups to the shingle
// graph.
func appendGroups(out *SegGraph, sorted []tuple) {
	for i, tu := range sorted {
		if i > 0 && tu.key != sorted[i-1].key {
			out.Offsets = append(out.Offsets, int64(len(out.Data)))
		}
		out.Data = append(out.Data, tu.owner)
	}
	if len(sorted) > 0 {
		out.Offsets = append(out.Offsets, int64(len(out.Data)))
	}
}
