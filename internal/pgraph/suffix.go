// Package pgraph reconstructs the paper's homology-detection substrate
// (pGraph, Wu, Kalyanaraman & Cannon, TPDS 2012): candidate sequence pairs
// are generated from exact maximal matches found with a generalized suffix
// structure, then verified with the optimality-guaranteeing Smith–Waterman
// algorithm, and verified pairs become the edges of the similarity graph
// that gpClust clusters (Section I-A).
package pgraph

import (
	"gpclust/internal/seq"
)

// suffixIndex is a generalized suffix array over a sequence set: all
// suffixes of all sequences in full lexicographic order, with Kasai LCPs.
// Sequence boundaries carry unique separator symbols, so no common prefix
// (and therefore no match) ever crosses a sequence — the same query a
// generalized suffix tree answers for the original pGraph.
type suffixIndex struct {
	sym   []int32 // residues as positive symbols; unique negatives at boundaries
	seqOf []int32 // sequence index owning each position
	sa    []int32 // suffix order (positions into sym)
	lcps  []int32 // lcp[i] = common prefix of sa[i-1], sa[i]
}

// buildSuffixIndex concatenates the sequences (unique separators between
// them) and builds the suffix and LCP arrays.
func buildSuffixIndex(seqs []seq.Sequence) *suffixIndex {
	total := 0
	for _, s := range seqs {
		total += s.Len() + 1
	}
	idx := &suffixIndex{
		sym:   make([]int32, 0, total),
		seqOf: make([]int32, 0, total),
	}
	sep := int32(-1)
	for si, s := range seqs {
		for _, c := range s.Residues {
			idx.sym = append(idx.sym, int32(c))
			idx.seqOf = append(idx.seqOf, int32(si))
		}
		idx.sym = append(idx.sym, sep)
		idx.seqOf = append(idx.seqOf, int32(si))
		sep-- // unique per boundary: separators never match each other
	}
	if len(idx.sym) == 0 {
		return idx
	}
	var rank []int32
	idx.sa, rank = buildSuffixArray(idx.sym)
	idx.lcps = computeLCP(idx.sym, idx.sa, rank)
	return idx
}

// compareSuffixes orders two suffixes lexicographically over the symbol
// sequence (used by tests to validate the suffix array).
func (x *suffixIndex) compareSuffixes(a, b int32) int {
	for int(a) < len(x.sym) && int(b) < len(x.sym) {
		if x.sym[a] != x.sym[b] {
			if x.sym[a] < x.sym[b] {
				return -1
			}
			return 1
		}
		a++
		b++
	}
	switch {
	case int(a) == len(x.sym) && int(b) == len(x.sym):
		return 0
	case int(a) == len(x.sym):
		return -1
	default:
		return 1
	}
}

// lcp returns the genuine common-prefix length of two suffixes; separators
// are unique so it never crosses a sequence boundary.
func (x *suffixIndex) lcp(a, b int32) int {
	n := 0
	for int(a) < len(x.sym) && int(b) < len(x.sym) && x.sym[a] == x.sym[b] {
		a++
		b++
		n++
	}
	return n
}

// pairKey packs an unordered sequence pair (i < j).
type pairKey uint64

func makePair(a, b int32) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey(uint64(a)<<32 | uint64(uint32(b)))
}

func (p pairKey) unpack() (int32, int32) {
	return int32(p >> 32), int32(uint32(p))
}

// candidatePairs walks the LCP array and, for every run of suffixes sharing
// an exact match of at least minMatch residues, emits candidate sequence
// pairs. Within a run, each suffix is paired with at most windowCap
// following suffixes from other sequences — the pair-generation throttle
// any maximal-match filter needs to keep low-complexity motifs from
// exploding quadratically (pGraph throttles equivalently).
func (x *suffixIndex) candidatePairs(minMatch, windowCap int) map[pairKey]bool {
	pairs := make(map[pairKey]bool)
	n := len(x.sa)
	runStart := 0
	for i := 1; i <= n; i++ {
		if i < n && int(x.lcps[i]) >= minMatch {
			continue
		}
		// sa[runStart:i] share a ≥ minMatch prefix pairwise (adjacent LCPs
		// within the run are all ≥ minMatch, and LCP is min-transitive).
		if i-runStart >= 2 {
			for a := runStart; a < i; a++ {
				sa := x.seqOf[x.sa[a]]
				emitted := 0
				for b := a + 1; b < i && emitted < windowCap; b++ {
					sb := x.seqOf[x.sa[b]]
					if sa == sb {
						continue
					}
					pairs[makePair(sa, sb)] = true
					emitted++
				}
			}
		}
		runStart = i
	}
	return pairs
}
