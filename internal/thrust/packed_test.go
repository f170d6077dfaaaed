package thrust

import (
	"math/rand"
	"testing"

	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
)

// FuzzPackResidues is the round-trip oracle for the packed image format:
// for arbitrary values and any width the device can decode, host PackBits
// followed by the device unpack kernels must reproduce the input exactly —
// word-per-value through UnpackBits and byte-layout through UnpackResidues.
// Seeds cover the two real alphabets: 5-bit protein codes and 2-bit DNA.
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

		// Host oracle first: the device kernels are checked against the
		// original values, so this is a second, independent witness.
		for i, v := range gpusim.UnpackBits(packed, n, nbits) {
			if v != vals[i] {
				t.Fatalf("host round-trip broke at %d: %d != %d (nbits=%d)", i, v, vals[i], nbits)
			}
		}

		dev := gpusim.MustNew(gpusim.SmallConfig())

		// UnpackBits: packed image -> one value per word.
		src := dev.MustMalloc(max(len(packed), 1))
		dst := dev.MustMalloc(max(n, 1))
		if err := dev.CopyH2D(src, 0, packed); err != nil {
			t.Fatal(err)
		}
		if err := UnpackBits(dev, src, dst, n, nbits); err != nil {
			t.Fatal(err)
		}
		got := make([]uint32, n)
		if err := dev.CopyD2H(got, dst, 0); err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("UnpackBits value %d = %d, want %d (nbits=%d, n=%d)", i, got[i], vals[i], nbits, n)
			}
		}
		src.Free()
		dst.Free()

		// UnpackResidues: packed image -> 4 codes per word, in one buffer,
		// against the byte layout built on the host.
		outWords := (n + 3) / 4
		buf := dev.MustMalloc(max(len(packed)+outWords, 1))
		if err := dev.CopyH2D(buf, 0, packed); err != nil {
			t.Fatal(err)
		}
		if err := UnpackResidues(dev, nil, buf, 0, len(packed), n, nbits); err != nil {
			t.Fatal(err)
		}
		want := make([]uint32, outWords)
		for i, v := range vals {
			want[i/4] |= v << (8 * (i % 4))
		}
		gotBytes := make([]uint32, outWords)
		if err := dev.CopyD2H(gotBytes, buf, len(packed)); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if gotBytes[i] != want[i] {
				t.Fatalf("UnpackResidues word %d = %#x, want %#x (nbits=%d, n=%d)", i, gotBytes[i], want[i], nbits, n)
			}
		}
		buf.Free()
		if err := dev.LeakCheck(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUnpackResiduesValidation(t *testing.T) {
	d := newDev(t)
	buf := d.MustMalloc(32)
	defer buf.Free()
	if err := UnpackResidues(d, nil, buf, 0, 16, 8, 0); err == nil {
		t.Fatal("UnpackResidues accepted width 0")
	}
	if err := UnpackResidues(d, nil, buf, 0, 16, 8, 9); err == nil {
		t.Fatal("UnpackResidues accepted width 9")
	}
	if err := UnpackResidues(d, nil, buf, 0, 31, 8, 5); err == nil {
		t.Fatal("UnpackResidues accepted a destination past the buffer end")
	}
	if err := UnpackResidues(d, nil, buf, 0, 1, 64, 5); err == nil {
		t.Fatal("UnpackResidues accepted overlapping source and destination")
	}
	if err := UnpackResidues(d, nil, buf, 0, 16, 0, 5); err != nil {
		t.Fatalf("zero-length UnpackResidues failed: %v", err)
	}
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
// TransformHash + SegmentedTopS pipeline on the same values — full-width
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
		if err := SegmentedTopS(d, hashes, segs, tc.s, want); err != nil {
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
