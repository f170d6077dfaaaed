package thrust

import (
	"math/rand"
	"testing"

	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
)

// FuzzPackResidues is the round-trip oracle for the packed image format:
// for arbitrary values and any width the device can decode, host PackBits
// followed by UnpackBits must reproduce the input exactly, and each device
// consumer that decodes the image in place must compute what it computes
// over the plain values — FusedHashTopS over the image at nbits against the
// same kernel over full-width words, and one SWScoreBatch pair with SeqBits
// against the byte layout. Seeds cover the two real alphabets: 5-bit
// protein codes and 2-bit DNA.
func FuzzPackResidues(f *testing.F) {
	// Protein: 21 codes need 5 bits; DNA: 4 codes need 2.
	f.Add([]byte{0, 1, 2, 3, 4, 20, 19, 18, 7, 11, 13, 17, 5, 6, 8, 9, 10, 12}, uint8(5))
	f.Add([]byte{0, 1, 2, 3, 3, 2, 1, 0, 2, 2, 1, 3}, uint8(2))
	f.Add([]byte{255, 0, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(8))
	f.Add([]byte{1, 0, 1, 1, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, width uint8) {
		nbits := 1 + int(width)%8
		mask := packedMask(nbits)
		vals := make([]uint32, len(raw))
		for i, b := range raw {
			vals[i] = uint32(b) & mask
		}
		n := len(vals)
		packed := gpusim.PackBits(vals, nbits)
		for i, v := range gpusim.UnpackBits(packed, n, nbits) {
			if v != vals[i] {
				t.Fatalf("host round-trip broke at %d: %d != %d (nbits=%d)", i, v, vals[i], nbits)
			}
		}

		dev := gpusim.MustNew(gpusim.SmallConfig())

		// FusedHashTopS: segments of a width-derived length, the packed
		// image at nbits against the plain values.
		const s = 3
		segLen := 1 + int(width)%7
		offs := []uint32{0}
		for lo := 0; lo < n; lo += segLen {
			offs = append(offs, uint32(min(lo+segLen, n)))
		}
		numSegs := len(offs) - 1
		h := minwise.HashPair{A: 48271, B: 7919}
		offBuf := upload(t, dev, offs)
		segs := Segments{Offsets: offBuf, NumSegs: numSegs}
		topS := func(img []uint32, bits int) []uint32 {
			data := upload(t, dev, append(img, 0))
			out := dev.MustMalloc(max(numSegs*s, 1))
			if err := FusedHashTopS(dev, nil, data, bits, segs, s, h, out, 0); err != nil {
				t.Fatal(err)
			}
			got := download(t, dev, out, numSegs*s)
			data.Free()
			out.Free()
			return got
		}
		want := topS(vals, 0)
		for i, v := range topS(packed, nbits) {
			if v != want[i] {
				t.Fatalf("FusedHashTopS word %d = %d over the packed image, %d over plain values (nbits=%d, n=%d)",
					i, v, want[i], nbits, n)
			}
		}
		offBuf.Free()

		// SWScoreBatch: the first and second half of the values as one
		// pair of sequences over a 2^nbits-letter alphabet, each starting
		// word-aligned in residue terms as pgraph stages them.
		la := min(n/2, 200)
		lb := min(n-n/2, 200)
		offB := 4 * ((la + 3) / 4)
		stream := make([]uint32, offB+4*((lb+3)/4))
		copy(stream, vals[:la])
		copy(stream[offB:], vals[n/2:n/2+lb])
		alpha := 1 << nbits
		table := make([]uint32, alpha*alpha)
		for i := range table {
			a, b := i/alpha, i%alpha
			table[i] = uint32(int32(4 - 3*((a^b)%3) - 2*min(a^b, 1)))
		}
		tblBuf := upload(t, dev, table)
		score := func(residues []uint32, bits int) uint32 {
			img := append([]uint32{0, uint32(la), uint32(offB), uint32(lb)}, residues...)
			buf := upload(t, dev, append(img, 0))
			lc := SWConfig{NumPairs: 1, Alphabet: alpha, GapOpen: 11, GapExtend: 1, Table: tblBuf,
				SeqBase: 4, SeqWords: len(residues), ScoreBase: len(img), SeqBits: bits}
			if err := SWScoreBatch(dev, nil, buf, lc); err != nil {
				t.Fatal(err)
			}
			got := download(t, dev, buf, len(img)+1)[len(img)]
			buf.Free()
			return got
		}
		byteWords := make([]uint32, len(stream)/4)
		for r, c := range stream {
			byteWords[r/4] |= c << (8 * (r % 4))
		}
		if got, want := score(gpusim.PackBits(stream, nbits), nbits), score(byteWords, 0); got != want {
			t.Fatalf("SWScoreBatch over the packed image scored %d, byte layout %d (nbits=%d, la=%d, lb=%d)",
				int32(got), int32(want), nbits, la, lb)
		}
		tblBuf.Free()
		if err := dev.LeakCheck(); err != nil {
			t.Fatal(err)
		}
	})
}

// packedSegInput builds a random segmented value stream that fits the given
// width, plus its segment offsets.
func packedSegInput(rng *rand.Rand, nbits, numSegs, maxSegLen int) ([]uint32, []uint32) {
	mask := packedMask(nbits)
	offs := []uint32{0}
	var vals []uint32
	for s := 0; s < numSegs; s++ {
		for i := rng.Intn(maxSegLen + 1); i > 0; i-- {
			vals = append(vals, rng.Uint32()&mask)
		}
		offs = append(offs, uint32(len(vals)))
	}
	return vals, offs
}

// TestFusedHashTopSMatchesSplit checks the fused kernel against the split
// TransformHash + SegmentedTopSAt pipeline on the same values — full-width
// data (dataBits = 0) and a 5-bit packed image must all agree bit for bit.
func TestFusedHashTopSMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h := minwise.HashPair{A: 48271, B: 7919}
	for _, tc := range []struct{ segs, maxLen, s int }{
		{40, 50, 5}, {17, 3, 8}, {1, 0, 4}, {64, 9, 1},
	} {
		vals, offs := packedSegInput(rng, 5, tc.segs, tc.maxLen)
		n := len(vals)

		// Split pipeline on full-width data: the pre-existing oracle.
		d := newDev(t)
		data := upload(t, d, append([]uint32(nil), vals...))
		offBuf := upload(t, d, offs)
		segs := Segments{Offsets: offBuf, NumSegs: tc.segs}
		hashes := d.MustMalloc(max(n, 1))
		want := d.MustMalloc(tc.segs * tc.s)
		if err := TransformHash(d, data, hashes, n, h); err != nil {
			t.Fatal(err)
		}
		if err := SegmentedTopSAt(d, hashes, segs, tc.s, want, 0); err != nil {
			t.Fatal(err)
		}
		wantOut := download(t, d, want, tc.segs*tc.s)

		// Fused, full-width.
		got := d.MustMalloc(tc.segs * tc.s)
		if err := FusedHashTopS(d, nil, data, 0, segs, tc.s, h, got, 0); err != nil {
			t.Fatal(err)
		}
		for i, v := range download(t, d, got, tc.segs*tc.s) {
			if v != wantOut[i] {
				t.Fatalf("%+v: fused full-width word %d = %d, split %d", tc, i, v, wantOut[i])
			}
		}

		// Fused, packed image.
		packed := gpusim.PackBits(vals, 5)
		pBuf := upload(t, d, append(packed, 0))
		if err := FusedHashTopS(d, nil, pBuf, 5, segs, tc.s, h, got, 0); err != nil {
			t.Fatal(err)
		}
		for i, v := range download(t, d, got, tc.segs*tc.s) {
			if v != wantOut[i] {
				t.Fatalf("%+v: fused packed word %d = %d, split %d", tc, i, v, wantOut[i])
			}
		}
		data.Free()
		offBuf.Free()
		hashes.Free()
		want.Free()
		got.Free()
		pBuf.Free()
		if err := d.LeakCheck(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFusedHashSortMatchesSplit: same contract for the full-sort ablation
// kernel against TransformHash + SegmentedSort.
func TestFusedHashSortMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	h := minwise.HashPair{A: 16807, B: 104729}
	vals, offs := packedSegInput(rng, 5, 30, 40)
	n := len(vals)

	d := newDev(t)
	data := upload(t, d, append([]uint32(nil), vals...))
	offBuf := upload(t, d, offs)
	segs := Segments{Offsets: offBuf, NumSegs: len(offs) - 1}
	want := d.MustMalloc(max(n, 1))
	if err := TransformHash(d, data, want, n, h); err != nil {
		t.Fatal(err)
	}
	if err := SegmentedSort(d, want, segs); err != nil {
		t.Fatal(err)
	}
	wantOut := download(t, d, want, n)

	got := d.MustMalloc(max(n, 1))
	if err := FusedHashSort(d, nil, data, 0, segs, h, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range download(t, d, got, n) {
		if v != wantOut[i] {
			t.Fatalf("fused full-width word %d = %d, split %d", i, v, wantOut[i])
		}
	}

	packed := gpusim.PackBits(vals, 5)
	pBuf := upload(t, d, append(packed, 0))
	if err := FusedHashSort(d, nil, pBuf, 5, segs, h, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range download(t, d, got, n) {
		if v != wantOut[i] {
			t.Fatalf("fused packed word %d = %d, split %d", i, v, wantOut[i])
		}
	}
	data.Free()
	offBuf.Free()
	want.Free()
	got.Free()
	pBuf.Free()
	if err := d.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}
