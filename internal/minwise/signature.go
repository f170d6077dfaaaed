package minwise

// MinHash signatures and LSH banding on top of the permutation family. A
// signature matrix holds, for every input set, its minimum image under each
// permutation of the family (an s=1 sketch per permutation); banding groups
// r consecutive signature rows into one bucket key, so two sets land in the
// same bucket of some band with probability 1-(1-J^r)^b — the classic LSH
// S-curve, monotone in the Jaccard index J.
//
// Signatures are computed once per input and reused across every consumer —
// band hashing, candidate generation, and the device-resident copy the GPU
// filter keeps across its banding passes — instead of being recomputed per
// call site. The layout is column-major (all sets' minima under permutation
// j are contiguous), matching the device buffer thrust.SegmentedMinHash
// fills in one launch per span, so the host and device paths index
// signatures identically.

// EmptySig marks the signature slot of an empty set: no image exists, and
// real images are < Prime < 2^31, so the sentinel cannot collide. It equals
// the device kernels' padding sentinel (thrust.TopSSentinel) for the same
// reason.
const EmptySig = ^uint32(0)

// Signatures is the MinHash signature matrix of N sets under a C-permutation
// family, column-major: Vals[j*N+i] is set i's minimum under permutation j.
type Signatures struct {
	C, N int
	Vals []uint32
}

// SequenceSignatures computes the signature matrix of the given sets. Empty
// sets get EmptySig in every row; callers skip them when banding. The minima
// are exact (a direct scan, not the s-smallest insertion sort, so sets of
// any length work) and bit-identical to thrust.SegmentedMinHash over the
// same family.
func (f Family) SequenceSignatures(sets [][]uint32) Signatures {
	g := Signatures{C: len(f.Pairs), N: len(sets),
		Vals: make([]uint32, len(f.Pairs)*len(sets))}
	for j, h := range f.Pairs {
		row := g.Vals[j*g.N : (j+1)*g.N]
		for i, set := range sets {
			if len(set) == 0 {
				row[i] = EmptySig
				continue
			}
			m := h.Apply(set[0])
			for _, v := range set[1:] {
				if x := h.Apply(v); x < m {
					m = x
				}
			}
			row[i] = m
		}
	}
	return g
}

// At returns set i's signature under permutation j.
func (g Signatures) At(j, i int) uint32 { return g.Vals[j*g.N+i] }

// Empty reports whether set i produced no signature (the input set was
// empty). Families of size zero have no rows to consult and report true.
func (g Signatures) Empty(i int) bool { return g.C == 0 || g.Vals[i] == EmptySig }

// BandKey collapses set i's `rows` signature values of the given band
// (permutations band·rows … band·rows+rows-1) into one 32-bit bucket key:
// FNV-1a over the values' little-endian bytes, the 32-bit analogue of
// ShingleID. Two sets share a band's bucket iff all `rows` minima agree
// (modulo the hash's negligible 2^-32 collisions), which is what gives
// banding its 1-(1-J^r)^b collision curve.
//
// The device band-hash kernel (thrust.BandHash) computes the identical
// function over the identical column-major layout, so host- and
// device-generated bucket keys agree bit for bit.
func (g Signatures) BandKey(i, band, rows int) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for r := 0; r < rows; r++ {
		v := g.Vals[(band*rows+r)*g.N+i]
		for sh := 0; sh < 32; sh += 8 {
			h ^= (v >> sh) & 0xff
			h *= prime32
		}
	}
	return h
}

// BandCollisionProb is the analytic probability that two sets of Jaccard
// index j collide in at least one of `bands` bands of `rows` rows each:
// 1 - (1 - j^rows)^bands. It is strictly increasing in j on (0,1) for any
// rows, bands ≥ 1 — the property that makes banding a similarity filter —
// and the property tests pin the empirical collision rate of real signature
// pairs to this curve.
func BandCollisionProb(j float64, rows, bands int) float64 {
	if j <= 0 {
		return 0
	}
	if j >= 1 {
		return 1
	}
	pr := 1.0
	for r := 0; r < rows; r++ {
		pr *= j
	}
	q := 1.0
	for b := 0; b < bands; b++ {
		q *= 1 - pr
	}
	return 1 - q
}
