package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestSortTuplesMatchesStdSort checks sortTuples against a comparison sort
// on random streams of several lengths and on the digit-skip cases.
func TestSortTuplesMatchesStdSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := radixSkipCases()
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000, 100000} {
		ts := make([]tuple, n)
		for i := range ts {
			ts[i] = tuple{key: rng.Uint64(), owner: rng.Uint32()}
		}
		cases = append(cases, radixCase{fmt.Sprintf("random n=%d", n), ts})
	}
	for _, c := range cases {
		want := append([]tuple(nil), c.ts...)
		sort.Slice(want, func(i, j int) bool { return tupleGreater(want[j], want[i]) })
		sortTuples(c.ts)
		for i := range c.ts {
			if c.ts[i] != want[i] {
				t.Fatalf("%s: element %d = %+v, want %+v", c.name, i, c.ts[i], want[i])
			}
		}
	}
}

// radixSkipCases are tuple streams on which sortTuples skips digits every
// tuple shares (the owner's high digits, the key's low digits, all but the
// key's top digit, every digit), plus lengths around the insertion-sort
// cutoff of 64.
func radixSkipCases() []radixCase {
	rng := rand.New(rand.NewSource(11))
	gen := func(n int, f func(i int) tuple) []tuple {
		ts := make([]tuple, n)
		for i := range ts {
			ts[i] = f(i)
		}
		return ts
	}
	const lo33 = 1<<33 - 1
	small := func(int) tuple { return tuple{key: rng.Uint64() % 8, owner: rng.Uint32()} }
	return []radixCase{
		{"owners equal", gen(500, func(int) tuple { return tuple{key: rng.Uint64(), owner: 77} })},
		{"owners below 2^11", gen(500, func(int) tuple {
			return tuple{key: rng.Uint64() >> 40, owner: uint32(rng.Intn(1 << 11))}
		})},
		{"keys share low 33 bits", gen(500, func(int) tuple {
			return tuple{key: rng.Uint64()&^lo33 | 0x1_2345_6789, owner: rng.Uint32()}
		})},
		{"keys differ only in bit 63", gen(500, func(int) tuple {
			return tuple{key: uint64(rng.Intn(2))<<63 | 0xDEAD_BEEF, owner: uint32(rng.Intn(4))}
		})},
		{"all tuples equal", gen(300, func(int) tuple { return tuple{key: 42, owner: 9} })},
		{"n=63", gen(63, small)},
		{"n=64", gen(64, small)},
		{"n=65", gen(65, small)},
		{"n=65 one differs", gen(65, func(i int) tuple {
			if i == 64 {
				return tuple{key: 1, owner: 0}
			}
			return tuple{key: 2, owner: 1 << 31}
		})},
	}
}

type radixCase struct {
	name string
	ts   []tuple
}

func TestSortTuplesDuplicates(t *testing.T) {
	ts := []tuple{
		{key: 5, owner: 2}, {key: 5, owner: 1}, {key: 5, owner: 2},
		{key: 1, owner: 9}, {key: 1, owner: 0},
	}
	sortTuples(ts)
	want := []tuple{{1, 0}, {1, 9}, {5, 1}, {5, 2}, {5, 2}}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("got %v", ts)
		}
	}
}

// BenchmarkSortTuples sorts streams of the shapes aggregation sees: a
// pass-1 trial (~1.7K tuples), a pass-2 trial (~40K) with owners below 2^17,
// and 1M tuples with full-width owners.
func BenchmarkSortTuples(b *testing.B) {
	for _, c := range []struct {
		name      string
		n         int
		ownerBits uint
	}{{"pass1", 1708, 11}, {"pass2", 39958, 17}, {"paper-pass2", 400000, 20}, {"1M", 1 << 20, 32}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			base := make([]tuple, c.n)
			for i := range base {
				base[i] = tuple{key: rng.Uint64(), owner: rng.Uint32() >> (32 - c.ownerBits)}
			}
			ts := make([]tuple, len(base))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(ts, base)
				sortTuples(ts)
			}
		})
	}
}
