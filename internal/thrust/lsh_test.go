package thrust

import (
	"errors"
	"math/rand"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
)

// TestBandHashMatchesBandKey: the device band-hash kernel must be
// bit-identical to minwise.Signatures.BandKey over the same column-major
// signature matrix, for rows 1, 2 and 4, over the whole band range in one
// launch and over a sub-range written at a non-zero output base.
func TestBandHashMatchesBandKey(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ bands, rows, ne int }{
		{1, 1, 1}, {32, 1, 500}, {4, 2, 300}, {16, 2, 97}, {8, 4, 1024},
	} {
		g := minwise.Signatures{C: shape.bands * shape.rows, N: shape.ne,
			Vals: make([]uint32, shape.bands*shape.rows*shape.ne)}
		for i := range g.Vals {
			g.Vals[i] = uint32(rng.Intn(1 << 31))
		}
		d := newDev(t)
		sigs := upload(t, d, g.Vals)
		check := func(lo, hi, outBase int) {
			t.Helper()
			out := d.MustMalloc(outBase + (hi-lo)*shape.ne)
			defer out.Free()
			launches := d.Metrics().KernelLaunches
			if err := BandHash(d, nil, sigs, shape.ne, lo, hi, shape.rows, out, outBase); err != nil {
				t.Fatal(err)
			}
			if n := d.Metrics().KernelLaunches - launches; n != 1 {
				t.Fatalf("bands [%d,%d) took %d launches, want 1", lo, hi, n)
			}
			got := download(t, d, out, out.Len())
			for band := lo; band < hi; band++ {
				for e := 0; e < shape.ne; e++ {
					k := outBase + (band-lo)*shape.ne + e
					if want := g.BandKey(e, band, shape.rows); got[k] != want {
						t.Fatalf("shape %dx%d ne=%d bands [%d,%d): key[band %d][seq %d] = %#x, want %#x",
							shape.bands, shape.rows, shape.ne, lo, hi, band, e, got[k], want)
					}
				}
			}
		}
		check(0, shape.bands, 0)
		// Tiny matrices can't fill cache lines; judge coalescing only where
		// the grid is saturated.
		if eff := d.Metrics().CoalescingEfficiency(); shape.ne >= 1000 && eff < 0.9 {
			t.Fatalf("BandHash coalescing efficiency = %v, want ≥ 0.9", eff)
		}
		check(shape.bands/2, shape.bands, shape.ne+3)
		sigs.Free()
	}
}

// TestBandHashBounds: shape and range validation must reject bad calls
// before touching the device.
func TestBandHashBounds(t *testing.T) {
	d := newDev(t)
	sigs := d.MustMalloc(8) // 4 rows × ne=2
	out := d.MustMalloc(4)
	defer sigs.Free()
	defer out.Free()
	if err := BandHash(d, nil, sigs, 2, 1, 3, 2, out, 0); err == nil {
		t.Fatal("band past the signature matrix accepted")
	}
	if err := BandHash(d, nil, sigs, 2, 0, 1, 0, out, 0); err == nil {
		t.Fatal("rows=0 accepted")
	}
	if err := BandHash(d, nil, sigs, 2, 1, 0, 2, out, 0); err == nil {
		t.Fatal("reversed band range accepted")
	}
	if err := BandHash(d, nil, sigs, 2, 0, 1, 2, out, 3); err == nil {
		t.Fatal("out overflow accepted")
	}
	if err := BandHash(d, nil, sigs, 2, 0, 2, 1, out, 1); err == nil {
		t.Fatal("multi-band out overflow accepted")
	}
	if err := BandHash(d, nil, sigs, 0, 0, 1, 2, out, 0); err != nil {
		t.Fatalf("zero-sequence BandHash failed: %v", err)
	}
	if err := BandHash(d, nil, sigs, 2, 1, 1, 2, out, 0); err != nil {
		t.Fatalf("empty band range failed: %v", err)
	}
	if n := d.Metrics().KernelLaunches; n != 0 {
		t.Fatalf("rejected or empty calls launched %d kernels", n)
	}
}

// TestMarkBucketHeadsMatchesHostScan: head flags must match the host
// adjacent-difference over the sorted 64-bit keys.
func TestMarkBucketHeadsMatchesHostScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 9001
	hi := make([]uint32, n)
	lo := make([]uint32, n)
	// Few distinct keys so runs are long, sorted by construction.
	cur := uint64(0)
	for i := 0; i < n; i++ {
		if rng.Intn(7) == 0 {
			cur += uint64(1 + rng.Intn(1<<20))
		}
		hi[i] = uint32(cur >> 32)
		lo[i] = uint32(cur)
	}
	d := newDev(t)
	bh, bl := upload(t, d, hi), upload(t, d, lo)
	flags := d.MustMalloc(n)
	defer bh.Free()
	defer bl.Free()
	defer flags.Free()
	if err := MarkBucketHeads(d, nil, bh, bl, n, flags); err != nil {
		t.Fatal(err)
	}
	got := download(t, d, flags, n)
	for i := 0; i < n; i++ {
		want := uint32(0)
		if i == 0 || hi[i] != hi[i-1] || lo[i] != lo[i-1] {
			want = 1
		}
		if got[i] != want {
			t.Fatalf("flag[%d] = %d, want %d", i, got[i], want)
		}
	}
	if err := MarkBucketHeads(d, nil, bh, bl, n+1, flags); err == nil {
		t.Fatal("overflowing MarkBucketHeads accepted")
	}
	if err := MarkBucketHeads(d, nil, bh, bl, 0, flags); err != nil {
		t.Fatalf("zero-length MarkBucketHeads failed: %v", err)
	}
}

// TestLSHKernelsPropagateFaults: the LSH kernels are thin launches, so an
// injected launch fault must wrap the typed fault errors, and a retry on
// the same device must produce the correct keys (no residue).
func TestLSHKernelsPropagateFaults(t *testing.T) {
	sched, err := faults.Parse("kernel op=1")
	if err != nil {
		t.Fatal(err)
	}
	d := newDev(t)
	d.SetFaultInjector(faults.NewInjector(sched))

	const ne, rows = 512, 2
	g := minwise.Signatures{C: rows, N: ne, Vals: make([]uint32, rows*ne)}
	for i := range g.Vals {
		g.Vals[i] = uint32(i * 2654435761)
	}
	sigs := upload(t, d, g.Vals)
	out := d.MustMalloc(ne)
	defer sigs.Free()
	defer out.Free()

	err = BandHash(d, nil, sigs, ne, 0, 1, rows, out, 0)
	if !errors.Is(err, gpusim.ErrLaunchFault) || !errors.Is(err, gpusim.ErrDeviceFault) {
		t.Fatalf("BandHash error %v does not wrap the typed fault errors", err)
	}
	if err := BandHash(d, nil, sigs, ne, 0, 1, rows, out, 0); err != nil {
		t.Fatalf("retry after one-shot launch fault: %v", err)
	}
	got := download(t, d, out, ne)
	for e := 0; e < ne; e++ {
		if want := g.BandKey(e, 0, rows); got[e] != want {
			t.Fatalf("key[%d] = %#x after retry, want %#x", e, got[e], want)
		}
	}
}

// minHashMatchesHost runs SegmentedMinHash over sets with a c-permutation
// family into columns [colBase, colBase+len(sets)) of a matrix with pad
// extra columns, and checks every slot against
// minwise.Family.SequenceSignatures — including that the call is one launch
// and leaves the other columns untouched.
func minHashMatchesHost(t testing.TB, sets [][]uint32, c, colBase, pad int) {
	t.Helper()
	d := newDev(t)
	lens := make([]int, len(sets))
	var data []uint32
	for i, set := range sets {
		lens[i] = len(set)
		data = append(data, set...)
	}
	segs, _ := makeSegments(t, d, lens)
	defer segs.Offsets.Free()
	buf := d.MustMalloc(max(len(data), 1))
	defer buf.Free()
	if err := d.CopyH2D(buf, 0, data); err != nil {
		t.Fatal(err)
	}
	ne := colBase + len(sets) + pad
	out := d.MustMalloc(max(c*ne, 1))
	defer out.Free()
	const untouched = 0x5A5A5A5A
	if err := Fill(d, out, c*ne, untouched); err != nil {
		t.Fatal(err)
	}
	fam := minwise.NewFamily(c, 99)
	launches := d.Metrics().KernelLaunches
	if err := SegmentedMinHash(d, nil, buf, segs, fam.Pairs, out, ne, colBase); err != nil {
		t.Fatal(err)
	}
	if n := d.Metrics().KernelLaunches - launches; n > 1 {
		t.Fatalf("c=%d: %d launches, want one", c, n)
	}
	got := download(t, d, out, c*ne)
	want := fam.SequenceSignatures(sets)
	for j := 0; j < c; j++ {
		for col := 0; col < ne; col++ {
			exp := uint32(untouched)
			if i := col - colBase; i >= 0 && i < len(sets) {
				exp = want.At(j, i)
			}
			if g := got[j*ne+col]; g != exp {
				t.Fatalf("c=%d colBase=%d: sig[perm %d][col %d] = %#x, want %#x", c, colBase, j, col, g, exp)
			}
		}
	}
}

// TestSegmentedMinHashMatchesSignatures: the one-launch signature kernel
// must be bit-identical to the host signature matrix over ragged and empty
// segments, for family sizes below, at and off multiples of the permutation
// group, written at a non-zero column base.
func TestSegmentedMinHashMatchesSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sets := make([][]uint32, 300)
	for i := range sets {
		n := rng.Intn(90)
		if i == 0 || i == len(sets)-1 || rng.Intn(9) == 0 {
			n = 0 // empty segments first, last and scattered
		}
		sets[i] = make([]uint32, n)
		for k := range sets[i] {
			sets[i][k] = rng.Uint32()
		}
	}
	for _, c := range []int{1, 5, MinHashGroup, 2*MinHashGroup + 3, 60} {
		minHashMatchesHost(t, sets, c, 0, 0)
		minHashMatchesHost(t, sets, c, 37, 5)
	}
}

// TestSegmentedMinHashCoalescesRows: with one thread per (segment,
// permutation group), a warp writes 32 consecutive columns of each row, so
// the signature writes cost one transaction per 32 columns per row.
func TestSegmentedMinHashCoalescesRows(t *testing.T) {
	const ns, c = 1024, 2 * MinHashGroup
	d := newDev(t)
	lens := make([]int, ns)
	data := make([]uint32, ns)
	for i := range lens {
		lens[i] = 1
		data[i] = uint32(i * 7919)
	}
	segs, _ := makeSegments(t, d, lens)
	buf := upload(t, d, data)
	out := d.MustMalloc(c * ns)
	defer segs.Offsets.Free()
	defer buf.Free()
	defer out.Free()
	before := d.Metrics().GlobalTransactions
	if err := SegmentedMinHash(d, nil, buf, segs, minwise.NewFamily(c, 3).Pairs, out, ns, 0); err != nil {
		t.Fatal(err)
	}
	// Per warp: two offset words, one data word and MinHashGroup row writes
	// per lane, each step contiguous across the warp's 32 lanes.
	warps := c / MinHashGroup * ns / 32
	want := int64(warps * (2 + 1 + MinHashGroup))
	if got := d.Metrics().GlobalTransactions - before; got != want {
		t.Fatalf("SegmentedMinHash charged %d transactions, want %d", got, want)
	}
}

// TestSegmentedMinHashBounds: shape validation must reject bad calls before
// launching, and an empty family or segment list launches nothing.
func TestSegmentedMinHashBounds(t *testing.T) {
	d := newDev(t)
	segs, _ := makeSegments(t, d, []int{2, 0, 3})
	data := d.MustMalloc(5)
	out := d.MustMalloc(4 * 3)
	defer segs.Offsets.Free()
	defer data.Free()
	defer out.Free()
	pairs := minwise.NewFamily(4, 1).Pairs
	if err := SegmentedMinHash(d, nil, data, segs, pairs, out, 3, 1); err == nil {
		t.Fatal("columns past the matrix accepted")
	}
	if err := SegmentedMinHash(d, nil, data, segs, pairs, out, 3, -1); err == nil {
		t.Fatal("negative column base accepted")
	}
	if err := SegmentedMinHash(d, nil, data, segs, minwise.NewFamily(5, 1).Pairs, out, 3, 0); err == nil {
		t.Fatal("output overflow accepted")
	}
	short := d.MustMalloc(4)
	defer short.Free()
	if err := SegmentedMinHash(d, nil, short, segs, pairs, out, 3, 0); err == nil {
		t.Fatal("segments past the data buffer accepted")
	}
	if err := SegmentedMinHash(d, nil, data, segs, nil, out, 3, 0); err != nil {
		t.Fatalf("empty family failed: %v", err)
	}
	if err := SegmentedMinHash(d, nil, data, Segments{Offsets: segs.Offsets}, pairs, out, 3, 0); err != nil {
		t.Fatalf("zero segments failed: %v", err)
	}
	if n := d.Metrics().KernelLaunches; n != 0 {
		t.Fatalf("rejected or empty calls launched %d kernels", n)
	}
}
