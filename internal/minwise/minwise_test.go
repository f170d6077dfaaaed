package minwise

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHashPairApplyInRange(t *testing.T) {
	f := func(a, b uint32, v uint32) bool {
		h := HashPair{A: 1 + uint64(a)%(Prime-1), B: uint64(b) % Prime}
		return uint64(h.Apply(v%uint32(Prime))) < Prime
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refApply is Apply's reference body: the division it folds away.
func refApply(h HashPair, v uint32) uint32 {
	return uint32((h.A*uint64(v) + h.B) % Prime)
}

// FuzzHashPairApply checks the Mersenne fold against x % P for any pair,
// including A and B outside [0, P), whose products wrap uint64.
func FuzzHashPairApply(f *testing.F) {
	for _, v := range []uint32{0, uint32(Prime - 1), uint32(Prime), math.MaxUint32} {
		f.Add(Prime-1, Prime-1, v)
		f.Add(Prime-1, uint64(0), v)
	}
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, a, b uint64, v uint32) {
		h := HashPair{A: a, B: b}
		if got, want := h.Apply(v), refApply(h, v); got != want {
			t.Fatalf("HashPair{%d, %d}.Apply(%d) = %d, want %d", a, b, v, got, want)
		}
	})
}

func TestNewFamilyDeterministic(t *testing.T) {
	f1 := NewFamily(50, 7)
	f2 := NewFamily(50, 7)
	if f1.Size() != 50 {
		t.Fatalf("Size() = %d, want 50", f1.Size())
	}
	for i := range f1.Pairs {
		if f1.Pairs[i] != f2.Pairs[i] {
			t.Fatalf("pair %d differs across same-seed families", i)
		}
	}
	f3 := NewFamily(50, 8)
	same := 0
	for i := range f1.Pairs {
		if f1.Pairs[i] == f3.Pairs[i] {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical families")
	}
}

func TestFamilyAValid(t *testing.T) {
	f := NewFamily(1000, 99)
	for i, p := range f.Pairs {
		if p.A == 0 || p.A >= Prime {
			t.Fatalf("pair %d: A = %d out of [1, P-1]", i, p.A)
		}
		if p.B >= Prime {
			t.Fatalf("pair %d: B = %d out of [0, P-1]", i, p.B)
		}
	}
}

func TestMinSMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		s := 1 + rng.Intn(10)
		if s > n {
			s = n
		}
		list := make([]uint32, n)
		for i := range list {
			list[i] = rng.Uint32() % uint32(Prime)
		}
		h := HashPair{A: 1 + uint64(rng.Int63n(int64(Prime-1))), B: uint64(rng.Int63n(int64(Prime)))}

		got := MinS(h, list, make([]uint32, s))

		all := make([]uint32, n)
		for i, v := range list {
			all[i] = h.Apply(v)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for i := 0; i < s; i++ {
			if got[i] != all[i] {
				t.Fatalf("trial %d: MinS[%d] = %d, want %d (full sort)", trial, i, got[i], all[i])
			}
		}
	}
}

func TestMinSSorted(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) < 3 {
			return true
		}
		list := make([]uint32, len(raw))
		for i, v := range raw {
			list[i] = v % uint32(Prime)
		}
		h := HashPair{A: 12345, B: 678}
		out := MinS(h, list, make([]uint32, 3))
		return out[0] <= out[1] && out[1] <= out[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinSPanicsOnShortList(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MinS on short list did not panic")
		}
	}()
	MinS(HashPair{A: 1}, []uint32{1, 2}, make([]uint32, 3))
}

func TestShingleIDEquality(t *testing.T) {
	a := []uint32{5, 9, 100}
	b := []uint32{5, 9, 100}
	if ShingleID(a) != ShingleID(b) {
		t.Fatal("equal shingles produced different ids")
	}
	c := []uint32{5, 9, 101}
	if ShingleID(a) == ShingleID(c) {
		t.Fatal("distinct shingles collided (astronomically unlikely)")
	}
	// Order matters: shingles are canonical (sorted), so permuted input is a
	// different byte stream and should not collide with the canonical form.
	d := []uint32{9, 5, 100}
	if ShingleID(a) == ShingleID(d) {
		t.Fatal("permuted shingle collided with canonical form")
	}
}

func TestShingleIDDistribution(t *testing.T) {
	// IDs over many random shingles should be collision-free at this scale.
	rng := rand.New(rand.NewSource(11))
	seen := make(map[uint64]bool, 100000)
	buf := make([]uint32, 2)
	for i := 0; i < 100000; i++ {
		buf[0], buf[1] = rng.Uint32(), rng.Uint32()
		id := ShingleID(buf)
		if seen[id] {
			t.Fatalf("collision after %d shingles", i)
		}
		seen[id] = true
	}
}

// TestMinwiseProperty validates the defining statistical property: for two
// sets with Jaccard index J, the probability that their min-wise images
// coincide is ≈ J. This is the theoretical heart of the Shingling heuristic.
func TestMinwiseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fam := NewFamily(2000, 13)
	for _, overlap := range []int{0, 25, 50, 75, 100} {
		// Build two 100-element sets sharing `overlap` elements.
		shared := make([]uint32, overlap)
		for i := range shared {
			shared[i] = uint32(rng.Int31n(1 << 20))
		}
		a := append([]uint32{}, shared...)
		b := append([]uint32{}, shared...)
		for len(a) < 100 {
			a = append(a, uint32(rng.Int31n(1<<20))+1<<21)
		}
		for len(b) < 100 {
			b = append(b, uint32(rng.Int31n(1<<20))+1<<22)
		}
		exact := Jaccard(a, b)
		est := fam.EstimateJaccard(a, b)
		if math.Abs(est-exact) > 0.05 {
			t.Errorf("overlap %d: MinHash estimate %.3f vs exact Jaccard %.3f (|Δ| > 0.05)",
				overlap, est, exact)
		}
	}
}

func TestJaccardExact(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want float64
	}{
		{[]uint32{}, []uint32{}, 0},
		{[]uint32{1}, []uint32{1}, 1},
		{[]uint32{1, 2}, []uint32{3, 4}, 0},
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, 0.5},
		{[]uint32{1, 2, 3, 4}, []uint32{1, 2, 3, 4}, 1},
	}
	for i, c := range cases {
		if got := Jaccard(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: Jaccard = %v, want %v", i, got, c.want)
		}
	}
}

func TestJaccardSymmetric(t *testing.T) {
	f := func(a, b []uint32) bool {
		// dedupe inputs: Jaccard is defined over sets
		dedup := func(in []uint32) []uint32 {
			m := map[uint32]bool{}
			var out []uint32
			for _, v := range in {
				if !m[v] {
					m[v] = true
					out = append(out, v)
				}
			}
			return out
		}
		da, db := dedup(a), dedup(b)
		return math.Abs(Jaccard(da, db)-Jaccard(db, da)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Two vertices in a dense subgraph share most neighbors and should therefore
// share shingles with high probability — the core claim motivating the
// algorithm (Section III-B).
func TestDenseVerticesShareShingles(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const s, c = 2, 200
	fam := NewFamily(c, 31)

	// 95% shared neighborhood.
	shared := make([]uint32, 95)
	for i := range shared {
		shared[i] = uint32(rng.Int31n(1 << 20))
	}
	gu := append(append([]uint32{}, shared...), 1<<21, 1<<21+1, 1<<21+2, 1<<21+3, 1<<21+4)
	gv := append(append([]uint32{}, shared...), 1<<22, 1<<22+1, 1<<22+2, 1<<22+3, 1<<22+4)

	match := 0
	bufU, bufV := make([]uint32, s), make([]uint32, s)
	for _, h := range fam.Pairs {
		MinS(h, gu, bufU)
		MinS(h, gv, bufV)
		if ShingleID(bufU) == ShingleID(bufV) {
			match++
		}
	}
	// P(shingle match) ≈ J^s ≈ 0.905^2 ≈ 0.82 per trial; over 200 trials a
	// large majority must match.
	if match < c/2 {
		t.Errorf("dense pair shares only %d/%d shingles; expected a majority", match, c)
	}

	// Disjoint neighborhoods should essentially never share a shingle.
	gw := make([]uint32, 100)
	for i := range gw {
		gw[i] = uint32(rng.Int31n(1<<20)) + 1<<23
	}
	match = 0
	for _, h := range fam.Pairs {
		MinS(h, gu, bufU)
		MinS(h, gw, bufV)
		if ShingleID(bufU) == ShingleID(bufV) {
			match++
		}
	}
	if match > 2 {
		t.Errorf("disjoint pair shares %d/%d shingles; expected ~0", match, c)
	}
}

func BenchmarkMinS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	list := make([]uint32, 73) // paper's 2M-graph average degree
	for i := range list {
		list[i] = rng.Uint32() % uint32(Prime)
	}
	h := HashPair{A: 48271, B: 11}
	dst := make([]uint32, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinS(h, list, dst)
	}
}
