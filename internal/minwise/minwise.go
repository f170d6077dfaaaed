// Package minwise implements the min-wise independent permutation machinery
// that underlies the Shingling heuristic (Broder et al., JCSS 2000; Gibson,
// Kumar & Tomkins, VLDB 2005).
//
// A permutation of a vertex's adjacency list Γ(u) is obtained by mapping
// every neighbor id v to h(v) = (A·v + B) mod P for a random pair <A,B> and
// a fixed large prime P. The s smallest images under h form one "shingle";
// repeating with c independent <A,B> pairs yields c shingles per vertex.
// Min-wise independence guarantees that two vertices sharing a large
// fraction of neighbors share each shingle with probability ≈ J(Γ(u),Γ(v)),
// the Jaccard index of their neighborhoods.
package minwise

import (
	"errors"
	"math/rand"
)

// Prime is the fixed large prime P used by the linear permutations. It must
// exceed any vertex id. 2^31 - 1 (a Mersenne prime) comfortably covers the
// paper's 11M-vertex graphs while keeping products inside uint64.
const Prime uint64 = 1<<31 - 1

// HashPair is one <A,B> pair defining the permutation h(v) = (A·v+B) mod P.
type HashPair struct {
	A, B uint64
}

// Apply maps a vertex id through the permutation. P is a Mersenne prime,
// so x mod P folds x's bits above 31 onto its low 31 (2^31 ≡ 1 mod P):
// two folds bring any uint64 x to at most P+5, and one conditional
// subtraction finishes — equal to x % P for every x, a wrapped product
// included, without a division.
func (h HashPair) Apply(v uint32) uint32 {
	x := h.A*uint64(v) + h.B
	x = (x & Prime) + (x >> 31)
	x = (x & Prime) + (x >> 31)
	if x >= Prime {
		x -= Prime
	}
	return uint32(x)
}

// Family is a fixed set of c random hash pairs H = {h_1 … h_c}, shared by
// every vertex so that shingles produced in the same trial j are comparable.
type Family struct {
	Pairs []HashPair
}

// NewFamily draws c hash pairs from the given seed. A is drawn from
// [1, P-1] (A=0 would collapse the permutation) and B from [0, P-1].
func NewFamily(c int, seed int64) Family {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]HashPair, c)
	for i := range pairs {
		pairs[i] = HashPair{
			A: 1 + uint64(rng.Int63n(int64(Prime-1))),
			B: uint64(rng.Int63n(int64(Prime))),
		}
	}
	return Family{Pairs: pairs}
}

// Size returns c, the number of permutations in the family.
func (f Family) Size() int { return len(f.Pairs) }

// ErrShortList reports an adjacency list with fewer than s elements; such
// vertices generate no shingles (the paper only shingles vertices with at
// least s links).
var ErrShortList = errors.New("minwise: adjacency list shorter than shingle size s")

// MinS writes into dst the s smallest values of h applied over list,
// in increasing order, using the on-the-fly insertion-sort scan the paper
// describes (justified by small s, typically ≤ 10). It returns dst[:s].
//
// The scan is O(len(list)·s) worst case but O(len(list) + s²) expected for
// random permutations, and allocation-free.
func MinS(h HashPair, list []uint32, dst []uint32) []uint32 {
	s := len(dst)
	if len(list) < s {
		panic("minwise.MinS: list shorter than s; caller must skip short lists")
	}
	// Seed with the first s images, insertion-sorted.
	n := 0
	for _, v := range list[:s] {
		x := h.Apply(v)
		i := n
		for i > 0 && dst[i-1] > x {
			dst[i] = dst[i-1]
			i--
		}
		dst[i] = x
		n++
	}
	// Stream the rest, keeping the s smallest.
	for _, v := range list[s:] {
		x := h.Apply(v)
		if x >= dst[s-1] {
			continue
		}
		i := s - 1
		for i > 0 && dst[i-1] > x {
			dst[i] = dst[i-1]
			i--
		}
		dst[i] = x
	}
	return dst
}

// ShingleID collapses an s-element shingle (the sorted minima) into a single
// integer identity via a polynomial rolling hash, so that equal shingles from
// different vertices hash to the same id. This mirrors the paper's "assume
// that it is in an integer representation obtained using a hash function".
//
// A 64-bit FNV-1a over the element bytes keeps collisions negligible at the
// scales involved (≤ ~10^9 shingles).
func ShingleID(shingle []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range shingle {
		for sh := 0; sh < 32; sh += 8 {
			h ^= uint64((v >> sh) & 0xff)
			h *= prime64
		}
	}
	return h
}

// EstimateJaccard estimates the Jaccard index of two sets by the fraction of
// the family's permutations under which their minima agree (s=1 sketches).
// It is the classical MinHash estimator and is used by tests to validate the
// min-wise property of the family.
func (f Family) EstimateJaccard(a, b []uint32) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	agree := 0
	var bufA, bufB [1]uint32
	for _, h := range f.Pairs {
		MinS(h, a, bufA[:])
		MinS(h, b, bufB[:])
		if bufA[0] == bufB[0] {
			agree++
		}
	}
	return float64(agree) / float64(len(f.Pairs))
}

// Jaccard computes the exact Jaccard index |A∩B| / |A∪B| of two sets given
// as unsorted unique-element slices. It is the brute-force quantity the
// shingling heuristic approximates (Equation 1 in the paper).
func Jaccard(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	set := make(map[uint32]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	inter := 0
	for _, v := range b {
		if set[v] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
