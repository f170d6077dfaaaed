package core

import (
	"testing"
	"testing/quick"

	"gpclust/internal/gpusim"
	"gpclust/internal/thrust"
)

// Property: mergeTopS of two sentinel-padded ascending slices equals the
// brute-force s smallest of their union.
func TestMergeTopSProperty(t *testing.T) {
	const S = thrust.TopSSentinel
	f := func(rawA, rawB []uint32, rawS uint8) bool {
		s := 1 + int(rawS%6)
		mk := func(raw []uint32) []uint32 {
			// ascending, capped at s, values below sentinel
			var vals []uint32
			for _, v := range raw {
				vals = append(vals, v%(S-1))
				if len(vals) == s {
					break
				}
			}
			insertionSortTuplesU32(vals)
			// sentinel-pad to s
			for len(vals) < s {
				vals = append(vals, S)
			}
			return vals
		}
		a, b := mk(rawA), mk(rawB)
		got := mergeTopS(append([]uint32{}, a...), b, s)

		var union []uint32
		for _, v := range append(append([]uint32{}, a...), b...) {
			if v != S {
				union = append(union, v)
			}
		}
		insertionSortTuplesU32(union)
		want := union
		if len(want) > s {
			want = want[:s]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func insertionSortTuplesU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for j > 0 && s[j-1] > v {
			s[j] = s[j-1]
			j--
		}
		s[j] = v
	}
}

func TestPlanBatchesSingleHugeList(t *testing.T) {
	// One list far beyond the budget must split into many pieces that
	// reassemble exactly.
	sg := &SegGraph{
		Offsets: []int64{0, 1000},
		Data:    make([]uint32, 1000),
	}
	plans, err := planBatches(sg, 2, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	covered := int64(0)
	pieces := 0
	for _, p := range plans {
		for _, pc := range p.pieces {
			if pc.list != 0 {
				t.Fatalf("unexpected list %d", pc.list)
			}
			if pc.lo != covered {
				t.Fatalf("gap: piece starts at %d, covered %d", pc.lo, covered)
			}
			covered = pc.hi
			pieces++
		}
	}
	if covered != 1000 {
		t.Fatalf("covered %d of 1000", covered)
	}
	if pieces < 10 {
		t.Fatalf("only %d pieces for a 10x-budget list", pieces)
	}
}

func TestTopSKernelFullSortShortSegments(t *testing.T) {
	// The full-sort path's gather must emit sorted-values + sentinels for
	// segments shorter than s, exactly like the fused top-s kernel.
	dev := newTestDevice(t)
	data := []uint32{5, 3, 9} // segment lens: 1, 2, 0
	off := []uint32{0, 1, 3, 3}
	dataBuf := dev.MustMalloc(len(data))
	defer dataBuf.Free()
	offBuf := dev.MustMalloc(len(off))
	if err := dev.CopyH2D(dataBuf, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := dev.CopyH2D(offBuf, 0, off); err != nil {
		t.Fatal(err)
	}
	segs := thrust.Segments{Offsets: offBuf, NumSegs: 3}
	out := dev.MustMalloc(3 * 2)
	defer out.Free()
	if err := thrust.SegmentedSort(dev, dataBuf, segs); err != nil {
		t.Fatal(err)
	}
	if err := gatherTopS(dev, nil, dataBuf, segs, 2, out, 0); err != nil {
		t.Fatal(err)
	}
	host := make([]uint32, 6)
	if err := dev.CopyD2H(host, out, 0); err != nil {
		t.Fatal(err)
	}
	const S = thrust.TopSSentinel
	want := []uint32{5, S, 3, 9, S, S}
	for i := range want {
		if host[i] != want[i] {
			t.Fatalf("slot %d = %d, want %d (full output %v)", i, host[i], want[i], host)
		}
	}
}
func newTestDevice(t *testing.T) *gpusim.Device {
	t.Helper()
	return gpusim.MustNew(gpusim.K20Config())
}
