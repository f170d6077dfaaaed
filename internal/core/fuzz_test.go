package core

import (
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzRadixSort checks the digit-skipping 11-bit LSD radix sort against the
// obvious comparison-sort oracle on arbitrary (key, owner) streams.
// Aggregation correctness — and through it the determinism contract — rests
// entirely on this sort producing the exact (key, owner) order. The
// radixSkipCases seeds start the fuzzer on streams whose shared digits are
// skipped.
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	// A seed big enough to cross the insertion-sort cutoff (64 tuples) so
	// the radix path is exercised from the first run.
	big := make([]byte, 100*12)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range big {
		state = state*6364136223846793005 + 1442695040888963407
		big[i] = byte(state >> 56)
	}
	f.Add(big)
	for _, c := range radixSkipCases() {
		raw := make([]byte, 12*len(c.ts))
		for i, t := range c.ts {
			binary.LittleEndian.PutUint64(raw[i*12:], t.key)
			binary.LittleEndian.PutUint32(raw[i*12+8:], t.owner)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 12
		ts := make([]tuple, n)
		for i := range ts {
			ts[i] = tuple{
				key:   binary.LittleEndian.Uint64(raw[i*12:]),
				owner: binary.LittleEndian.Uint32(raw[i*12+8:]),
			}
		}
		want := append([]tuple(nil), ts...)
		sort.Slice(want, func(i, j int) bool { return tupleGreater(want[j], want[i]) })
		sortTuples(ts)
		for i := range ts {
			if ts[i] != want[i] {
				t.Fatalf("tuple %d = %+v, want %+v (n=%d)", i, ts[i], want[i], n)
			}
		}
	})
}
