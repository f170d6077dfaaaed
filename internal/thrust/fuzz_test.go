package thrust

import (
	"encoding/binary"
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
