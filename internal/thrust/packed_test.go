package thrust

import (
	"fmt"
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

// packedAt extracts value i from a bit-continuous little-endian image, as
// the kernels did before they walked images with a running bit position.
func packedAt(w []uint32, i, nbits int, mask uint32) uint32 {
	bit := i * nbits
	word, off := bit/32, uint(bit%32)
	v := w[word] >> off
	if off+uint(nbits) > 32 {
		v |= w[word+1] << (32 - off)
	}
	return v & mask
}

// refFusedHashTopS is the FusedHashTopS kernel before its body streamed the
// image: one packedAt call (a multiply, a divide and the width branch) per
// value through a closure, and an insertion scan that branches on every
// value. It is kept as the oracle for the streaming body, which must write
// the same words and record the same ops and traffic.
func refFusedHashTopS(d *gpusim.Device, st *gpusim.Stream, data *gpusim.Buffer, dataBits int,
	segs Segments, s int, h minwise.HashPair, out *gpusim.Buffer, outBase int) error {

	if s <= 0 {
		return fmt.Errorf("thrust: refFusedHashTopS with s=%d", s)
	}
	if outBase < 0 {
		return fmt.Errorf("thrust: refFusedHashTopS with outBase=%d", outBase)
	}
	if dataBits < 0 || dataBits > 32 {
		return fmt.Errorf("thrust: refFusedHashTopS width %d outside [0,32]", dataBits)
	}
	if err := validatePackedSegments(segs, data, dataBits); err != nil {
		return err
	}
	if out.Len() < outBase+segs.NumSegs*s {
		return fmt.Errorf("thrust: refFusedHashTopS output of %d words, need %d", out.Len(), outBase+segs.NumSegs*s)
	}
	if segs.NumSegs == 0 {
		return nil
	}
	grid := (segs.NumSegs + blockDim - 1) / blockDim
	mask := packedMask(max(dataBits, 1))
	d.NextKernelName("fused_hash_top_s")
	return launch(d, st, grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		seg := ctx.GlobalID()
		if seg >= segs.NumSegs {
			return
		}
		off := segs.Offsets.Words()
		lo, hi := int(off[seg]), int(off[seg+1])
		n := hi - lo
		ctx.GlobalRead(segs.Offsets, seg, 2, 1)
		w := data.Words()
		hash := func(i int) uint32 {
			var v uint32
			if dataBits > 0 {
				v = packedAt(w, lo+i, dataBits, mask)
			} else {
				v = w[lo+i]
			}
			return h.Apply(v)
		}
		dst := out.Words()[outBase+seg*s : outBase+(seg+1)*s]
		elemOps := hashOps
		if dataBits > 0 {
			elemOps += unpackOps
		}
		if n < s {
			for i := 0; i < n; i++ {
				dst[i] = hash(i)
			}
			insertionSort(dst[:n])
			for i := n; i < s; i++ {
				dst[i] = TopSSentinel
			}
			chargeSegmentRead(ctx, data, lo, n, dataBits)
			ctx.GlobalWrite(out, outBase+seg*s, s, 1)
			ctx.Ops(n*n/2 + s + n*elemOps)
			return
		}
		ops := n * elemOps
		// Seed with the first s hashes, insertion-sorted.
		filled := 0
		for i := 0; i < s; i++ {
			x := hash(i)
			j := filled
			for j > 0 && dst[j-1] > x {
				dst[j] = dst[j-1]
				j--
				ops++
			}
			dst[j] = x
			filled++
			ops += 2
		}
		// Stream the remainder keeping the s minima.
		for i := s; i < n; i++ {
			x := hash(i)
			ops++
			if x >= dst[s-1] {
				continue
			}
			j := s - 1
			for j > 0 && dst[j-1] > x {
				dst[j] = dst[j-1]
				j--
				ops++
			}
			dst[j] = x
			ops += 2
		}
		chargeSegmentRead(ctx, data, lo, n, dataBits)
		ctx.GlobalWrite(out, outBase+seg*s, s, 1)
		ctx.Ops(ops)
	})
}

// FuzzFusedHashTopS checks FusedHashTopS against refFusedHashTopS on fuzzed
// segments: every width from 0 (full words) to 32, segments empty, shorter
// than s and longer, repeated values (equal hashes), and a nonzero outBase.
// Each segment is a length byte followed by that many value bytes. The
// output buffer, pre-filled, must match word for word, and the launch's
// ThreadOps, WarpSerialOps and GlobalTransactions must be equal.
func FuzzFusedHashTopS(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3, 4, 5, 2, 9, 9, 0, 7, 7, 7, 1, 2, 3, 4, 5}, uint8(5), uint8(3), uint8(0))
	f.Add([]byte{3, 255, 0, 128, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0), uint8(4), uint8(7))
	f.Add([]byte{4, 1, 0, 1, 1, 6, 0, 0, 1, 1, 0, 1}, uint8(1), uint8(2), uint8(3))
	f.Add([]byte{7, 200, 100, 50, 25, 12, 6, 3, 1, 33}, uint8(32), uint8(1), uint8(1))
	f.Add([]byte{2, 40, 41, 9, 17, 18, 19, 20, 21, 22, 23, 24, 25}, uint8(17), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, width, sRaw, base uint8) {
		nbits := int(width) % 33
		s := 1 + int(sRaw)%8
		outBase := int(base) % 16
		mask := uint32(0xFFFFFFFF)
		if nbits > 0 {
			mask = packedMask(nbits)
		}
		var vals []uint32
		offs := []uint32{0}
		for i := 0; i < len(raw); {
			n := int(raw[i]) % (6*s + 2)
			i++
			for ; n > 0 && i < len(raw); n-- {
				vals = append(vals, uint32(raw[i])*2654435761&mask)
				i++
			}
			offs = append(offs, uint32(len(vals)))
		}
		numSegs := len(offs) - 1
		img := vals
		if nbits > 0 {
			img = gpusim.PackBits(vals, nbits)
		}
		h := minwise.HashPair{A: 48271, B: 7919}
		run := func(kernel func(*gpusim.Device, *gpusim.Stream, *gpusim.Buffer, int, Segments, int,
			minwise.HashPair, *gpusim.Buffer, int) error) ([]uint32, gpusim.Metrics) {
			dev := gpusim.MustNew(gpusim.SmallConfig())
			data := upload(t, dev, append(append([]uint32(nil), img...), 0))
			segs := Segments{Offsets: upload(t, dev, offs), NumSegs: numSegs}
			fill := make([]uint32, outBase+numSegs*s+1)
			for i := range fill {
				fill[i] = 0xA5A5A5A5
			}
			out := upload(t, dev, fill)
			before := dev.Metrics()
			if err := kernel(dev, nil, data, nbits, segs, s, h, out, outBase); err != nil {
				t.Fatal(err)
			}
			return download(t, dev, out, len(fill)), dev.Metrics().Sub(before)
		}
		got, gm := run(FusedHashTopS)
		want, wm := run(refFusedHashTopS)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("word %d = %#x, reference %#x (nbits=%d, s=%d, outBase=%d, offsets %v)",
					i, got[i], want[i], nbits, s, outBase, offs)
			}
		}
		if gm.ThreadOps != wm.ThreadOps || gm.WarpSerialOps != wm.WarpSerialOps ||
			gm.GlobalTransactions != wm.GlobalTransactions {
			t.Fatalf("launch records ops %d / warp %d / transactions %d, reference %d / %d / %d (nbits=%d, s=%d)",
				gm.ThreadOps, gm.WarpSerialOps, gm.GlobalTransactions,
				wm.ThreadOps, wm.WarpSerialOps, wm.GlobalTransactions, nbits, s)
		}
	})
}
