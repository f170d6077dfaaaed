package thrust

import (
	"math/rand"
	"slices"
	"testing"

	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
)

func newDev(t testing.TB) *gpusim.Device {
	t.Helper()
	return gpusim.MustNew(gpusim.K20Config())
}

func upload(t testing.TB, d *gpusim.Device, data []uint32) *gpusim.Buffer {
	t.Helper()
	b := d.MustMalloc(len(data))
	if err := d.CopyH2D(b, 0, data); err != nil {
		t.Fatal(err)
	}
	return b
}

func download(t testing.TB, d *gpusim.Device, b *gpusim.Buffer, n int) []uint32 {
	t.Helper()
	out := make([]uint32, n)
	if err := d.CopyD2H(out, b, 0); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTransform: the grid-stride elementwise hash kernel (TransformHash)
// computes every element and keeps warp accesses coalesced.
func TestTransform(t *testing.T) {
	d := newDev(t)
	const n = 10_000
	src := make([]uint32, n)
	for i := range src {
		src[i] = uint32(i)
	}
	h := minwise.HashPair{A: 2, B: 1}
	in := upload(t, d, src)
	out := d.MustMalloc(n)
	defer in.Free()
	defer out.Free()
	if err := TransformHash(d, in, out, n, h); err != nil {
		t.Fatal(err)
	}
	got := download(t, d, out, n)
	for i, v := range got {
		if v != uint32(i)*2+1 {
			t.Fatalf("element %d = %d, want %d", i, v, i*2+1)
		}
	}
	if eff := d.Metrics().CoalescingEfficiency(); eff < 0.9 {
		t.Fatalf("TransformHash coalescing efficiency = %v, want ≥ 0.9", eff)
	}
}

func TestTransformBounds(t *testing.T) {
	d := newDev(t)
	in := d.MustMalloc(5)
	out := d.MustMalloc(3)
	defer in.Free()
	defer out.Free()
	h := minwise.HashPair{A: 1}
	if err := TransformHash(d, in, out, 5, h); err == nil {
		t.Fatal("TransformHash overflowing dst accepted")
	}
	if err := TransformHash(d, in, out, 0, h); err != nil {
		t.Fatalf("zero-length TransformHash failed: %v", err)
	}
}

func TestTransformHashMatchesMinwise(t *testing.T) {
	d := newDev(t)
	const n = 5000
	rng := rand.New(rand.NewSource(4))
	src := make([]uint32, n)
	for i := range src {
		src[i] = rng.Uint32() % uint32(minwise.Prime)
	}
	h := minwise.HashPair{A: 48271, B: 12345}
	in := upload(t, d, src)
	out := d.MustMalloc(n)
	defer in.Free()
	defer out.Free()
	if err := TransformHash(d, in, out, n, h); err != nil {
		t.Fatal(err)
	}
	got := download(t, d, out, n)
	for i := range src {
		if got[i] != h.Apply(src[i]) {
			t.Fatalf("element %d: device hash %d != host hash %d", i, got[i], h.Apply(src[i]))
		}
	}
}

func TestFill(t *testing.T) {
	d := newDev(t)
	b := d.MustMalloc(1000)
	defer b.Free()
	if err := Fill(d, b, 1000, 7); err != nil {
		t.Fatal(err)
	}
	for i, v := range download(t, d, b, 1000) {
		if v != 7 {
			t.Fatalf("Fill element %d = %d", i, v)
		}
	}
}

func makeSegments(t testing.TB, d *gpusim.Device, lens []int) (Segments, int) {
	t.Helper()
	off := make([]uint32, len(lens)+1)
	for i, l := range lens {
		off[i+1] = off[i] + uint32(l)
	}
	return Segments{Offsets: upload(t, d, off), NumSegs: len(lens)}, int(off[len(lens)])
}

func TestSegmentedSort(t *testing.T) {
	d := newDev(t)
	rng := rand.New(rand.NewSource(8))
	lens := []int{0, 1, 2, 5, 24, 25, 100, 3, 57}
	segs, total := makeSegments(t, d, lens)
	defer segs.Offsets.Free()
	data := make([]uint32, total)
	for i := range data {
		data[i] = rng.Uint32()
	}
	buf := upload(t, d, data)
	defer buf.Free()
	if err := SegmentedSort(d, buf, segs); err != nil {
		t.Fatal(err)
	}
	got := download(t, d, buf, total)
	off := 0
	for si, l := range lens {
		seg := got[off : off+l]
		want := append([]uint32{}, data[off:off+l]...)
		slices.Sort(want)
		for i := range seg {
			if seg[i] != want[i] {
				t.Fatalf("segment %d element %d = %d, want %d", si, i, seg[i], want[i])
			}
		}
		off += l
	}
}

func TestSegmentsValidate(t *testing.T) {
	d := newDev(t)
	data := d.MustMalloc(10)
	defer data.Free()
	// non-monotone
	bad := Segments{Offsets: upload(t, d, []uint32{0, 5, 3}), NumSegs: 2}
	defer bad.Offsets.Free()
	if err := bad.Validate(data); err == nil {
		t.Fatal("non-monotone offsets accepted")
	}
	// beyond data
	far := Segments{Offsets: upload(t, d, []uint32{0, 20}), NumSegs: 1}
	defer far.Offsets.Free()
	if err := far.Validate(data); err == nil {
		t.Fatal("out-of-range offsets accepted")
	}
	// too few offsets
	short := Segments{Offsets: upload(t, d, []uint32{0}), NumSegs: 1}
	defer short.Offsets.Free()
	if err := short.Validate(data); err == nil {
		t.Fatal("short offsets buffer accepted")
	}
}

func TestSegmentedTopS(t *testing.T) {
	d := newDev(t)
	rng := rand.New(rand.NewSource(17))
	lens := []int{5, 1, 0, 40, 2, 73, 3}
	const s = 3
	segs, total := makeSegments(t, d, lens)
	defer segs.Offsets.Free()
	data := make([]uint32, total)
	for i := range data {
		data[i] = rng.Uint32() % 1_000_000
	}
	buf := upload(t, d, data)
	out := d.MustMalloc(len(lens) * s)
	defer buf.Free()
	defer out.Free()
	if err := SegmentedTopSAt(d, buf, segs, s, out, 0); err != nil {
		t.Fatal(err)
	}
	got := download(t, d, out, len(lens)*s)
	off := 0
	for si, l := range lens {
		res := got[si*s : (si+1)*s]
		want := append([]uint32{}, data[off:off+l]...)
		slices.Sort(want)
		for i := 0; i < s; i++ {
			exp := uint32(TopSSentinel)
			if i < l {
				exp = want[i]
			}
			if res[i] != exp {
				t.Fatalf("segment %d (len %d) slot %d = %d, want %d", si, l, i, res[i], exp)
			}
		}
		off += l
	}
	// Input must be unchanged (TopS is non-destructive).
	after := download(t, d, buf, total)
	for i := range data {
		if after[i] != data[i] {
			t.Fatal("SegmentedTopSAt mutated its input")
		}
	}
}

func TestSegmentedTopSEqualsSortThenSelect(t *testing.T) {
	// The fused kernel must produce exactly what Algorithm 1's
	// sort-then-select produces.
	d := newDev(t)
	rng := rand.New(rand.NewSource(23))
	lens := make([]int, 200)
	for i := range lens {
		lens[i] = rng.Intn(60)
	}
	const s = 2
	segs, total := makeSegments(t, d, lens)
	defer segs.Offsets.Free()
	data := make([]uint32, total)
	for i := range data {
		data[i] = rng.Uint32()
	}

	bufA := upload(t, d, data)
	outA := d.MustMalloc(len(lens) * s)
	defer bufA.Free()
	defer outA.Free()
	if err := SegmentedTopSAt(d, bufA, segs, s, outA, 0); err != nil {
		t.Fatal(err)
	}
	fused := download(t, d, outA, len(lens)*s)

	bufB := upload(t, d, data)
	defer bufB.Free()
	if err := SegmentedSort(d, bufB, segs); err != nil {
		t.Fatal(err)
	}
	sorted := download(t, d, bufB, total)
	off := 0
	for si, l := range lens {
		for i := 0; i < s; i++ {
			want := uint32(TopSSentinel)
			if i < l {
				want = sorted[off+i]
			}
			if fused[si*s+i] != want {
				t.Fatalf("segment %d slot %d: fused %d != sort-select %d", si, i, fused[si*s+i], want)
			}
		}
		off += l
	}
}

func TestNoBufferLeaks(t *testing.T) {
	d := newDev(t)
	const n = 70_000
	data := upload(t, d, make([]uint32, n))
	out := d.MustMalloc(n)
	segs, _ := makeSegments(t, d, []int{n / 2, n / 2})
	top := d.MustMalloc(2 * 4)
	val := d.MustMalloc(n)
	h := minwise.HashPair{A: 48271, B: 11}
	if err := TransformHash(d, data, out, n, h); err != nil {
		t.Fatal(err)
	}
	if err := FusedHashTopS(d, nil, data, 0, segs, 4, h, top, 0); err != nil {
		t.Fatal(err)
	}
	if err := SortPairs64(d, data, out, val, n); err != nil {
		t.Fatal(err)
	}
	data.Free()
	out.Free()
	val.Free()
	segs.Offsets.Free()
	top.Free()
	if n := d.AllocatedBuffers(); n != 0 {
		t.Fatalf("%d device buffers leaked by primitives", n)
	}
}

func BenchmarkTransformHash(b *testing.B) {
	d := gpusim.MustNew(gpusim.K20Config())
	const n = 1 << 20
	in := d.MustMalloc(n)
	out := d.MustMalloc(n)
	defer in.Free()
	defer out.Free()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TransformHash(d, in, out, n, minwise.HashPair{A: 48271, B: 11})
	}
}

func BenchmarkSegmentedTopS(b *testing.B) {
	d := gpusim.MustNew(gpusim.K20Config())
	rng := rand.New(rand.NewSource(1))
	lens := make([]int, 10_000)
	total := 0
	for i := range lens {
		lens[i] = 5 + rng.Intn(100)
		total += lens[i]
	}
	off := make([]uint32, len(lens)+1)
	for i, l := range lens {
		off[i+1] = off[i] + uint32(l)
	}
	offBuf := d.MustMalloc(len(off))
	_ = d.CopyH2D(offBuf, 0, off)
	data := d.MustMalloc(total)
	defer data.Free()
	out := d.MustMalloc(len(lens) * 2)
	defer out.Free()
	segs := Segments{Offsets: offBuf, NumSegs: len(lens)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SegmentedTopSAt(d, data, segs, 2, out, 0)
	}
}

func TestSortPairs64(t *testing.T) {
	d := newDev(t)
	rng := rand.New(rand.NewSource(41))
	const n = 5000
	hi := make([]uint32, n)
	lo := make([]uint32, n)
	val := make([]uint32, n)
	for i := range hi {
		hi[i] = rng.Uint32() % 16 // force hi collisions so lo/value ordering matters
		lo[i] = rng.Uint32() % 64
		val[i] = rng.Uint32()
	}
	bh, bl, bv := upload(t, d, hi), upload(t, d, lo), upload(t, d, val)
	defer bh.Free()
	defer bl.Free()
	defer bv.Free()
	if err := SortPairs64(d, bh, bl, bv, n); err != nil {
		t.Fatal(err)
	}
	gh, gl, gv := download(t, d, bh, n), download(t, d, bl, n), download(t, d, bv, n)
	type rec struct{ h, l, v uint32 }
	var prev rec
	counts := map[rec]int{}
	for i := range hi {
		counts[rec{hi[i], lo[i], val[i]}]++
	}
	for i := 0; i < n; i++ {
		cur := rec{gh[i], gl[i], gv[i]}
		if i > 0 {
			if cur.h < prev.h || (cur.h == prev.h && (cur.l < prev.l || (cur.l == prev.l && cur.v < prev.v))) {
				t.Fatalf("record %d out of order: %+v after %+v", i, cur, prev)
			}
		}
		counts[cur]--
		prev = cur
	}
	for r, c := range counts {
		if c != 0 {
			t.Fatalf("record %+v count off by %d: not a permutation", r, c)
		}
	}
}

func TestSortPairs64Bounds(t *testing.T) {
	d := newDev(t)
	b1, b2, b3 := d.MustMalloc(5), d.MustMalloc(5), d.MustMalloc(3)
	defer b1.Free()
	defer b2.Free()
	defer b3.Free()
	if err := SortPairs64(d, b1, b2, b3, 5); err == nil {
		t.Fatal("short value buffer accepted")
	}
	if err := SortPairs64(d, b1, b2, b3, 1); err != nil {
		t.Fatalf("n=1 failed: %v", err)
	}
}

// TestStreamVariantsDeferHostClock: a stream-enqueued kernel leaves the
// host clock alone until the stream is synchronized, and computes the same
// minima as a synchronous launch would.
func TestStreamVariantsDeferHostClock(t *testing.T) {
	d := newDev(t)
	const n = 4096
	src := make([]uint32, n)
	for i := range src {
		src[i] = uint32(i)
	}
	in := upload(t, d, src)
	topOut := d.MustMalloc(8 * 2)
	off := upload(t, d, []uint32{0, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096})
	defer in.Free()
	defer topOut.Free()
	defer off.Free()

	st := d.NewStream()
	before := d.HostTime()
	segs := Segments{Offsets: off, NumSegs: 8}
	h := minwise.HashPair{A: 48271, B: 11}
	if err := FusedHashTopS(d, st, in, 0, segs, 2, h, topOut, 0); err != nil {
		t.Fatal(err)
	}
	if d.HostTime() != before {
		t.Fatal("stream-enqueued primitives advanced the host clock")
	}
	st.Synchronize()
	if d.HostTime() <= before {
		t.Fatal("synchronize did not advance the host clock")
	}

	// Results correct: each 512-segment's two minima of the hashed values.
	got := download(t, d, topOut, 16)
	for seg := 0; seg < 8; seg++ {
		min1, min2 := uint32(0xFFFFFFFF), uint32(0xFFFFFFFF)
		for i := seg * 512; i < (seg+1)*512; i++ {
			v := h.Apply(src[i])
			if v < min1 {
				min2, min1 = min1, v
			} else if v < min2 {
				min2 = v
			}
		}
		if got[seg*2] != min1 || got[seg*2+1] != min2 {
			t.Fatalf("segment %d minima = %v, want [%d %d]", seg, got[seg*2:seg*2+2], min1, min2)
		}
	}
}

func TestSortPairs64OnStream(t *testing.T) {
	d := newDev(t)
	hi := upload(t, d, []uint32{2, 1, 1})
	lo := upload(t, d, []uint32{0, 9, 3})
	val := upload(t, d, []uint32{7, 8, 9})
	defer hi.Free()
	defer lo.Free()
	defer val.Free()
	st := d.NewStream()
	before := d.HostTime()
	if err := SortPairs64OnStream(d, st, hi, lo, val, 3); err != nil {
		t.Fatal(err)
	}
	if d.HostTime() != before {
		t.Fatal("stream sort advanced host clock")
	}
	st.Synchronize()
	gh := download(t, d, hi, 3)
	gv := download(t, d, val, 3)
	if gh[0] != 1 || gh[1] != 1 || gh[2] != 2 || gv[0] != 9 || gv[1] != 8 || gv[2] != 7 {
		t.Fatalf("sorted hi=%v val=%v", gh, gv)
	}
}

// TestSegmentedTopSAtChargesOutBase: the output run must be charged where it
// is written. Shifting outBase by half a transaction makes each warp's
// 128-word output window straddle one more 128-byte segment, so the write
// transactions must grow; shifting by a whole segment must not change them.
func TestSegmentedTopSAtChargesOutBase(t *testing.T) {
	const ns, n, s = 256, 8, 4 // every segment ≥ s: the streaming branch
	rng := rand.New(rand.NewSource(29))
	data := make([]uint32, ns*n)
	for i := range data {
		data[i] = rng.Uint32()
	}
	lens := make([]int, ns)
	for i := range lens {
		lens[i] = n
	}
	transactions := func(outBase int) int64 {
		d := newDev(t)
		segs, _ := makeSegments(t, d, lens)
		buf := upload(t, d, data)
		out := d.MustMalloc(outBase + ns*s)
		defer segs.Offsets.Free()
		defer buf.Free()
		defer out.Free()
		before := d.Metrics().GlobalTransactions
		if err := SegmentedTopSAt(d, buf, segs, s, out, outBase); err != nil {
			t.Fatal(err)
		}
		return d.Metrics().GlobalTransactions - before
	}
	aligned := transactions(0)
	if got := transactions(32); got != aligned {
		t.Fatalf("outBase=32 charged %d transactions, outBase=0 %d", got, aligned)
	}
	if got := transactions(16); got <= aligned {
		t.Fatalf("unaligned outBase=16 charged %d transactions, not above aligned %d", got, aligned)
	}
}
