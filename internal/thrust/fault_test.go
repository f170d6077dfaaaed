package thrust

import (
	"errors"
	"math/rand"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
)

// TestThrustPrimitivesPropagateFaults: thrust primitives are thin wrappers
// over gpusim launches, so an injected kernel fault must surface as an
// error wrapping gpusim.ErrLaunchFault — and a retry on the same device
// must succeed with the correct result (launch faults leave no residue).
func TestThrustPrimitivesPropagateFaults(t *testing.T) {
	sched, err := faults.Parse("kernel op=1")
	if err != nil {
		t.Fatal(err)
	}
	d := newDev(t)
	d.SetFaultInjector(faults.NewInjector(sched))

	const n, s = 4096, 3
	src := make([]uint32, n)
	for i := range src {
		src[i] = uint32(n - i)
	}
	in := upload(t, d, src)
	segs, _ := makeSegments(t, d, []int{n / 4, n / 4, n / 2})
	out := d.MustMalloc(segs.NumSegs * s)
	defer in.Free()
	defer segs.Offsets.Free()
	defer out.Free()

	h := minwise.HashPair{A: 48271, B: 11}
	err = FusedHashTopS(d, nil, in, 0, segs, s, h, out, 0)
	if !errors.Is(err, gpusim.ErrLaunchFault) {
		t.Fatalf("FusedHashTopS error %v does not wrap ErrLaunchFault", err)
	}
	if !errors.Is(err, gpusim.ErrDeviceFault) {
		t.Fatalf("FusedHashTopS error %v does not wrap the ErrDeviceFault root", err)
	}
	if err := FusedHashTopS(d, nil, in, 0, segs, s, h, out, 0); err != nil {
		t.Fatalf("retry after a one-shot launch fault: %v", err)
	}
	got := download(t, d, out, segs.NumSegs*s)
	lo := 0
	for seg, l := range []int{n / 4, n / 4, n / 2} {
		want := minwise.MinS(h, src[lo:lo+l], make([]uint32, s))
		for i, v := range want {
			if got[seg*s+i] != v {
				t.Fatalf("segment %d slot %d = %d after retry, want %d", seg, i, got[seg*s+i], v)
			}
		}
		lo += l
	}
}

// TestThrustSortUnderSlowSM: a slow-SM latency spike must stretch the
// device clock without perturbing sort results.
func TestThrustSortUnderSlowSM(t *testing.T) {
	const n = 2048
	run := func(inject bool) (float64, []uint32) {
		d := newDev(t)
		if inject {
			sched, err := faults.Parse("slowsm op=1 count=64 x=7")
			if err != nil {
				t.Fatal(err)
			}
			d.SetFaultInjector(faults.NewInjector(sched))
		}
		rng := rand.New(rand.NewSource(12345))
		hi, lo, val := make([]uint32, n), make([]uint32, n), make([]uint32, n)
		for i := range hi {
			hi[i], lo[i], val[i] = rng.Uint32()%64, rng.Uint32(), uint32(i)
		}
		bh, bl, bv := upload(t, d, hi), upload(t, d, lo), upload(t, d, val)
		defer bh.Free()
		defer bl.Free()
		defer bv.Free()
		if err := SortPairs64(d, bh, bl, bv, n); err != nil {
			t.Fatal(err)
		}
		d.Synchronize()
		return d.Metrics().KernelTimeNs, append(download(t, d, bh, n), download(t, d, bv, n)...)
	}
	cleanNs, cleanOut := run(false)
	slowNs, slowOut := run(true)
	if slowNs <= cleanNs {
		t.Fatalf("slow-SM run kernel time %.0fns not above clean %.0fns", slowNs, cleanNs)
	}
	for i := range cleanOut {
		if cleanOut[i] != slowOut[i] {
			t.Fatalf("sorted output diverged at %d under a latency spike", i)
		}
	}
}
