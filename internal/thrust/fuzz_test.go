package thrust

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"gpclust/internal/gpusim"
)

// FuzzSegmentedSort drives the one-thread-per-segment device sort with
// arbitrary data and segment boundaries and checks every segment against a
// per-segment sort.Slice oracle. Segment boundaries are derived from the
// input bytes too, so the fuzzer explores empty segments, length-1 segments,
// and segments straddling the insertion-sort/pdqsort threshold.
func FuzzSegmentedSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0})
	big := make([]byte, 4*200)
	state := uint64(0x243F6A8885A308D3)
	for i := range big {
		state = state*6364136223846793005 + 1442695040888963407
		big[i] = byte(state >> 56)
	}
	f.Add(big)

	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 4
		data := make([]uint32, n)
		for i := range data {
			data[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		// Boundaries at positions whose source byte has its low 3 bits
		// clear: ~1/8 of positions, deterministic in the input.
		offs := []uint32{0}
		for i := 1; i < n; i++ {
			if raw[4*i]&7 == 0 {
				offs = append(offs, uint32(i))
			}
		}
		offs = append(offs, uint32(n))

		dev := gpusim.MustNew(gpusim.K20Config())
		dataBuf := dev.MustMalloc(n)
		offBuf := dev.MustMalloc(len(offs))
		defer dataBuf.Free()
		defer offBuf.Free()
		if err := dev.CopyH2D(dataBuf, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := dev.CopyH2D(offBuf, 0, offs); err != nil {
			t.Fatal(err)
		}
		segs := Segments{Offsets: offBuf, NumSegs: len(offs) - 1}
		if err := SegmentedSort(dev, dataBuf, segs); err != nil {
			t.Fatal(err)
		}
		got := make([]uint32, n)
		if err := dev.CopyD2H(got, dataBuf, 0); err != nil {
			t.Fatal(err)
		}

		want := append([]uint32(nil), data...)
		for s := 0; s+1 < len(offs); s++ {
			seg := want[offs[s]:offs[s+1]]
			sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("word %d = %d, want %d (n=%d, segs=%d)", i, got[i], want[i], n, segs.NumSegs)
			}
		}
	})
}

// FuzzSegmentedMinHash drives the one-launch signature kernel with arbitrary
// shingle values, segment boundaries (empty segments included), family sizes
// and column bases, against the host signature matrix as the oracle.
func FuzzSegmentedMinHash(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 16, 1, 2, 3, 7, 0, 0, 0}, uint8(13), uint8(2))
	big := make([]byte, 4*300)
	state := uint64(0x13198A2E03707344)
	for i := range big {
		state = state*6364136223846793005 + 1442695040888963407
		big[i] = byte(state >> 56)
	}
	f.Add(big, uint8(MinHashGroup), uint8(5))

	f.Fuzz(func(t *testing.T, raw []byte, hashes, colBase uint8) {
		// A boundary before every word whose first byte has its low 3 bits
		// clear, doubled (an empty segment) when the low 4 bits are clear.
		var sets [][]uint32
		var cur []uint32
		for i := 0; i+4 <= len(raw); i += 4 {
			if i > 0 && raw[i]&7 == 0 {
				sets = append(sets, cur)
				cur = nil
				if raw[i]&15 == 0 {
					sets = append(sets, nil)
				}
			}
			cur = append(cur, binary.LittleEndian.Uint32(raw[i:]))
		}
		sets = append(sets, cur)
		minHashMatchesHost(t, sets, 1+int(hashes)%40, int(colBase)%7, int(hashes)%3)
	})
}

// FuzzSortPairs64 sorts arbitrary (hi, lo, value) records on the device and
// checks them against a sort.Slice oracle. Every word is ANDed with mask, so
// a narrow mask makes duplicate keys common and mask 0 makes every record
// equal; records are 12 little-endian bytes each.
func FuzzSortPairs64(f *testing.F) {
	f.Add(uint32(0xFFFFFFFF), []byte{})
	f.Add(uint32(0xFFFFFFFF), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint32(0), []byte("all of these records are equal once masked!!"))
	f.Add(uint32(0x00030003), []byte("ties in every digit of hi, lo and v, high and low"))
	big := make([]byte, 12*500)
	state := uint64(0xA4093822299F31D0)
	for i := range big {
		state = state*6364136223846793005 + 1442695040888963407
		big[i] = byte(state >> 56)
	}
	f.Add(uint32(0xFFFFFFFF), big) // hi spans 2^16 and beyond
	f.Add(uint32(0x000F00FF), big)

	f.Fuzz(func(t *testing.T, mask uint32, raw []byte) {
		n := len(raw) / 12
		hi, lo, v := make([]uint32, n), make([]uint32, n), make([]uint32, n)
		for i := range hi {
			hi[i] = binary.LittleEndian.Uint32(raw[12*i:]) & mask
			lo[i] = binary.LittleEndian.Uint32(raw[12*i+4:]) & mask
			v[i] = binary.LittleEndian.Uint32(raw[12*i+8:]) & mask
		}
		checkSortPairs64(t, hi, lo, v)
	})
}

// TestSortPairs64WideDigits covers the 16-bit digits the host sort uses from
// 1<<16 records up, with ties in every digit and hi beyond 2^16.
func TestSortPairs64WideDigits(t *testing.T) {
	const n = 70_000
	rng := rand.New(rand.NewSource(83))
	hi, lo, v := make([]uint32, n), make([]uint32, n), make([]uint32, n)
	for i := range hi {
		hi[i] = rng.Uint32() & 0x00070007
		lo[i] = rng.Uint32() & 0x000F000F
		v[i] = rng.Uint32()
	}
	checkSortPairs64(t, hi, lo, v)
}

// checkSortPairs64 runs SortPairs64 over the records on a fresh device and
// compares the result with a sort.Slice oracle on (hi, lo, v).
func checkSortPairs64(t *testing.T, hi, lo, v []uint32) {
	t.Helper()
	n := len(hi)
	type rec struct{ hi, lo, v uint32 }
	want := make([]rec, n)
	for i := range want {
		want[i] = rec{hi[i], lo[i], v[i]}
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].hi != want[b].hi {
			return want[a].hi < want[b].hi
		}
		if want[a].lo != want[b].lo {
			return want[a].lo < want[b].lo
		}
		return want[a].v < want[b].v
	})

	dev := gpusim.MustNew(gpusim.K20Config())
	bufs := [3]*gpusim.Buffer{dev.MustMalloc(n), dev.MustMalloc(n), dev.MustMalloc(n)}
	for i, words := range [3][]uint32{hi, lo, v} {
		defer bufs[i].Free()
		if err := dev.CopyH2D(bufs[i], 0, words); err != nil {
			t.Fatal(err)
		}
	}
	if err := SortPairs64(dev, bufs[0], bufs[1], bufs[2], n); err != nil {
		t.Fatal(err)
	}
	for i, words := range [3][]uint32{hi, lo, v} {
		if err := dev.CopyD2H(words, bufs[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		if got := (rec{hi[i], lo[i], v[i]}); got != w {
			t.Fatalf("record %d of %d = %+v, oracle %+v", i, n, got, w)
		}
	}
}
