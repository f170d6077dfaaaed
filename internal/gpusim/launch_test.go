package gpusim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// kernels in tests read/write real buffer contents and record their traffic.

func TestLaunchExecutesEveryThread(t *testing.T) {
	d := MustNew(K20Config())
	const n = 10_000
	out := d.MustMalloc(n)
	defer out.Free()
	err := d.Launch((n+255)/256, 256, func(ctx *ThreadCtx) {
		i := ctx.GlobalID()
		if i >= n {
			return
		}
		out.Words()[i] = uint32(i * 7)
		ctx.Ops(1)
		ctx.GlobalWrite(out, i, 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	host := make([]uint32, n)
	if err := d.CopyD2H(host, out, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range host {
		if v != uint32(i*7) {
			t.Fatalf("element %d = %d, want %d", i, v, i*7)
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	d := MustNew(K20Config())
	if err := d.Launch(0, 32, func(*ThreadCtx) {}); err == nil {
		t.Error("grid 0 accepted")
	}
	if err := d.Launch(1, 0, func(*ThreadCtx) {}); err == nil {
		t.Error("block 0 accepted")
	}
	if err := d.Launch(1, 2048, func(*ThreadCtx) {}); err == nil {
		t.Error("block 2048 accepted")
	}
}

func TestLaunchAdvancesClockAndMetrics(t *testing.T) {
	d := MustNew(K20Config())
	before := d.HostTime()
	err := d.Launch(64, 256, func(ctx *ThreadCtx) { ctx.Ops(100) })
	if err != nil {
		t.Fatal(err)
	}
	if d.HostTime() <= before {
		t.Fatal("synchronous launch did not advance host clock")
	}
	m := d.Metrics()
	if m.KernelLaunches != 1 {
		t.Fatalf("KernelLaunches = %d, want 1", m.KernelLaunches)
	}
	if m.ThreadOps != 64*256*100 {
		t.Fatalf("ThreadOps = %d, want %d", m.ThreadOps, 64*256*100)
	}
	// Converged warps: serialized ops equal raw ops.
	if m.WarpSerialOps != m.ThreadOps {
		t.Fatalf("converged kernel has WarpSerialOps %d != ThreadOps %d",
			m.WarpSerialOps, m.ThreadOps)
	}
	if m.DivergenceOverhead() != 0 {
		t.Fatalf("DivergenceOverhead = %v, want 0", m.DivergenceOverhead())
	}
}

func TestDivergenceModel(t *testing.T) {
	d := MustNew(K20Config())
	// One lane per warp does 320 ops, the rest do 10: warp issues 320,
	// occupying 32 lane-slots each -> serialized = 320*32 per warp.
	err := d.Launch(4, 64, func(ctx *ThreadCtx) {
		if ctx.Thread%32 == 0 {
			ctx.Ops(320)
		} else {
			ctx.Ops(10)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	warps := int64(4 * 64 / 32)
	wantSerial := warps * 320 * 32
	if m.WarpSerialOps != wantSerial {
		t.Fatalf("WarpSerialOps = %d, want %d", m.WarpSerialOps, wantSerial)
	}
	if m.DivergenceOverhead() < 0.9 {
		t.Fatalf("DivergenceOverhead = %v, want > 0.9 for highly divergent kernel",
			m.DivergenceOverhead())
	}
}

func TestCoalescedAccessPattern(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(32 * 100)
	defer buf.Free()
	// Lane l reads elements l, l+32, l+64, ... — perfectly coalesced:
	// each step the warp touches one 128-byte segment.
	err := d.Launch(1, 32, func(ctx *ThreadCtx) {
		ctx.GlobalRead(buf, ctx.Thread, 100, 32)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.GlobalAccesses != 3200 {
		t.Fatalf("GlobalAccesses = %d, want 3200", m.GlobalAccesses)
	}
	if m.GlobalTransactions != 100 {
		t.Fatalf("GlobalTransactions = %d, want 100 (coalesced)", m.GlobalTransactions)
	}
	if eff := m.CoalescingEfficiency(); eff != 1 {
		t.Fatalf("CoalescingEfficiency = %v, want 1", eff)
	}
}

func TestUncoalescedAccessPattern(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(32 * 1000)
	defer buf.Free()
	// Lane l reads its own contiguous 1000-word region — the adjacency-list
	// pattern: every step the 32 lanes touch 32 distinct segments.
	err := d.Launch(1, 32, func(ctx *ThreadCtx) {
		ctx.GlobalRead(buf, ctx.Thread*1000, 1000, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.GlobalAccesses != 32000 {
		t.Fatalf("GlobalAccesses = %d, want 32000", m.GlobalAccesses)
	}
	// 32 segments per step × 1000 steps
	if m.GlobalTransactions != 32000 {
		t.Fatalf("GlobalTransactions = %d, want 32000 (uncoalesced)", m.GlobalTransactions)
	}
	if eff := m.CoalescingEfficiency(); eff > 0.05 {
		t.Fatalf("CoalescingEfficiency = %v, want ≈ 1/32", eff)
	}
}

func TestRaggedAccessActiveSetShrinks(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(64 * 64)
	defer buf.Free()
	// Lane l reads l+1 words from its own segment-aligned region: at step t
	// only lanes with count > t are active.
	err := d.Launch(1, 32, func(ctx *ThreadCtx) {
		ctx.GlobalRead(buf, ctx.Thread*64, ctx.Thread+1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	// accesses = 1+2+...+32 = 528
	if m.GlobalAccesses != 528 {
		t.Fatalf("GlobalAccesses = %d, want 528", m.GlobalAccesses)
	}
	// Regions are 64-word (2-segment) apart so every active lane is its own
	// segment: transactions = Σ_t active(t) = Σ counts = 528.
	if m.GlobalTransactions != 528 {
		t.Fatalf("GlobalTransactions = %d, want 528", m.GlobalTransactions)
	}
}

func TestSameSegmentBroadcast(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(64)
	defer buf.Free()
	// All lanes read the same word 10 times: one segment per step.
	err := d.Launch(1, 32, func(ctx *ThreadCtx) {
		ctx.GlobalRead(buf, 0, 10, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := d.Metrics(); m.GlobalTransactions != 10 {
		t.Fatalf("GlobalTransactions = %d, want 10 (broadcast)", m.GlobalTransactions)
	}
}

func TestMixedStrideFallsBackToUncoalesced(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(4096)
	defer buf.Free()
	err := d.Launch(1, 32, func(ctx *ThreadCtx) {
		stride := 1
		if ctx.Thread%2 == 0 {
			stride = 2
		}
		ctx.GlobalRead(buf, ctx.Thread, 5, stride)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := d.Metrics(); m.GlobalTransactions != 32*5 {
		t.Fatalf("GlobalTransactions = %d, want 160 (mixed-stride fallback)", m.GlobalTransactions)
	}
}

func TestRunOverflowChargedUncoalesced(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(64)
	defer buf.Free()
	err := d.Launch(1, 1, func(ctx *ThreadCtx) {
		for i := 0; i < maxRunsPerThread+10; i++ {
			ctx.GlobalRead(buf, 0, 1, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.GlobalAccesses != maxRunsPerThread+10 {
		t.Fatalf("GlobalAccesses = %d, want %d", m.GlobalAccesses, maxRunsPerThread+10)
	}
}

// TestReusedContextsStartClean: executor workers reuse thread contexts
// across blocks and launches, so every block must start from zeroed
// counters and an empty run trace — overflow included.
func TestReusedContextsStartClean(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(64)
	defer buf.Free()
	const grid, block, reads = 64, 64, maxRunsPerThread + 6
	kernel := func(ctx *ThreadCtx) {
		ctx.Ops(5)
		ctx.SharedAccess(2)
		for i := 0; i < reads; i++ {
			ctx.GlobalRead(buf, ctx.Thread%8, 1, 1)
		}
	}
	var first Metrics
	for launch := 0; launch < 2; launch++ {
		before := d.Metrics()
		if err := d.Launch(grid, block, kernel); err != nil {
			t.Fatal(err)
		}
		m := d.Metrics().Sub(before)
		if m.ThreadOps != grid*block*5 || m.GlobalAccesses != grid*block*reads {
			t.Fatalf("launch %d: ThreadOps = %d, GlobalAccesses = %d; want %d, %d",
				launch, m.ThreadOps, m.GlobalAccesses, grid*block*5, grid*block*reads)
		}
		if launch == 0 {
			first = m
		} else if m != first {
			t.Fatalf("second launch metrics %+v differ from first %+v", m, first)
		}
	}
}

func TestRooflineComputeVsMemoryBound(t *testing.T) {
	// A compute-heavy kernel's time should scale with ops; a memory-heavy
	// kernel's with transactions.
	d := MustNew(K20Config())
	err := d.Launch(256, 256, func(ctx *ThreadCtx) { ctx.Ops(10_000) })
	if err != nil {
		t.Fatal(err)
	}
	computeTime := d.HostTime()
	occupancy := float64(256*256) / float64(d.Config().SaturationThreads) // < 1 here
	wantCompute := float64(256*256*10_000) / (2496 * 706e6 * 0.85) * 1e9 / occupancy
	if math.Abs(computeTime-wantCompute-d.Config().KernelLaunchNs) > wantCompute*0.01 {
		t.Fatalf("compute-bound kernel time = %v ns, want ≈ %v ns", computeTime, wantCompute)
	}

	d2 := MustNew(K20Config())
	buf := d2.MustMalloc(1 << 20)
	defer buf.Free()
	err = d2.Launch(128, 256, func(ctx *ThreadCtx) {
		// coalesced read of 32 words per thread
		ctx.GlobalRead(buf, (ctx.GlobalID()%1024)*32, 32, 1)
		ctx.Ops(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d2.Metrics()
	if m.MemoryTimeNs <= m.ComputeTimeNs {
		t.Fatalf("memory-heavy kernel not memory bound: mem %v vs compute %v",
			m.MemoryTimeNs, m.ComputeTimeNs)
	}
}

func TestLaunchOnStreamOverlapsHost(t *testing.T) {
	d := MustNew(K20Config())
	s := d.NewStream()
	before := d.HostTime()
	err := d.LaunchOnStream(s, 64, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) })
	if err != nil {
		t.Fatal(err)
	}
	if d.HostTime() != before {
		t.Fatal("stream launch advanced the host clock")
	}
	s.Synchronize()
	if d.HostTime() <= before {
		t.Fatal("synchronize after stream launch did not advance host clock")
	}
}

func TestStreamOrdering(t *testing.T) {
	// Two kernels on one stream serialize; their combined completion time is
	// the sum of their durations.
	d := MustNew(K20Config())
	s := d.NewStream()
	if err := d.LaunchOnStream(s, 64, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	s.Synchronize()
	t1 := d.HostTime()
	if err := d.LaunchOnStream(s, 64, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	s.Synchronize()
	t2 := d.HostTime()
	if math.Abs((t2-t1)-t1) > t1*0.01 {
		t.Fatalf("second kernel took %v, first took %v; want equal", t2-t1, t1)
	}
}

func TestCopyOverlapsKernelOnStreams(t *testing.T) {
	// With separate copy and compute engines, an async D2H on one stream
	// overlaps a kernel on another: total elapsed < sum of individual times.
	d := MustNew(K20Config())
	buf := d.MustMalloc(1 << 22)
	defer buf.Free()
	host := make([]uint32, 1<<22)

	// Measure each in isolation.
	dIso := MustNew(K20Config())
	bufIso := dIso.MustMalloc(1 << 22)
	defer bufIso.Free()
	if err := dIso.CopyD2H(host, bufIso, 0); err != nil {
		t.Fatal(err)
	}
	copyTime := dIso.HostTime()
	dIso2 := MustNew(K20Config())
	if err := dIso2.Launch(4096, 256, func(ctx *ThreadCtx) { ctx.Ops(4000) }); err != nil {
		t.Fatal(err)
	}
	kernelTime := dIso2.HostTime()

	sCopy, sKern := d.NewStream(), d.NewStream()
	if err := d.CopyD2HAsync(sCopy, host, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.LaunchOnStream(sKern, 4096, 256, func(ctx *ThreadCtx) { ctx.Ops(4000) }); err != nil {
		t.Fatal(err)
	}
	sCopy.Synchronize()
	sKern.Synchronize()
	elapsed := d.HostTime()
	if elapsed >= copyTime+kernelTime*0.999 {
		t.Fatalf("no overlap: elapsed %v vs copy %v + kernel %v", elapsed, copyTime, kernelTime)
	}
}

func TestDefaultStreamCopyWaitsForKernel(t *testing.T) {
	// A synchronous copy must not begin before an in-flight kernel that may
	// produce its data has finished (default-stream semantics).
	d := MustNew(K20Config())
	s := d.NewStream()
	buf := d.MustMalloc(1024)
	defer buf.Free()
	if err := d.LaunchOnStream(s, 1024, 256, func(ctx *ThreadCtx) { ctx.Ops(100000) }); err != nil {
		t.Fatal(err)
	}
	host := make([]uint32, 1024)
	if err := d.CopyD2H(host, buf, 0); err != nil {
		t.Fatal(err)
	}
	// host clock must now be past the kernel completion + copy.
	m := d.Metrics()
	if d.HostTime() < m.KernelTimeNs {
		t.Fatalf("copy completed at %v before kernel finished at %v", d.HostTime(), m.KernelTimeNs)
	}
}

func BenchmarkLaunchSmall(b *testing.B) {
	d := MustNew(K20Config())
	for i := 0; i < b.N; i++ {
		_ = d.Launch(16, 256, func(ctx *ThreadCtx) { ctx.Ops(10) })
	}
}

func TestOccupancyScaling(t *testing.T) {
	// A small launch runs at proportionally lower throughput than a
	// saturating one: doubling the threads of an under-saturated launch
	// (same per-thread work) should leave the kernel time unchanged,
	// because throughput doubles with occupancy.
	cfg := K20Config()
	d1 := MustNew(cfg)
	if err := d1.Launch(16, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	small := d1.HostTime() - cfg.KernelLaunchNs

	d2 := MustNew(cfg)
	if err := d2.Launch(32, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	double := d2.HostTime() - cfg.KernelLaunchNs
	if math.Abs(small-double) > small*0.01 {
		t.Fatalf("under-saturated launches: 16-block %v ns vs 32-block %v ns, want equal", small, double)
	}

	// Past saturation, time scales with work again.
	sat := cfg.SaturationThreads / 256 // blocks at saturation
	d3 := MustNew(cfg)
	if err := d3.Launch(sat*2, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	d4 := MustNew(cfg)
	if err := d4.Launch(sat*4, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	t3 := d3.HostTime() - cfg.KernelLaunchNs
	t4 := d4.HostTime() - cfg.KernelLaunchNs
	if math.Abs(t4-2*t3) > t3*0.02 {
		t.Fatalf("saturated launches: 2x work took %v vs %v, want 2x", t4, t3)
	}
}

func TestOccupancyDisabled(t *testing.T) {
	cfg := K20Config()
	cfg.SaturationThreads = 0
	d := MustNew(cfg)
	if err := d.Launch(1, 32, func(ctx *ThreadCtx) { ctx.Ops(2496 * 100) }); err != nil {
		t.Fatal(err)
	}
	want := float64(32*2496*100)/(2496*706e6*0.85)*1e9 + cfg.KernelLaunchNs
	if math.Abs(d.HostTime()-want) > want*0.01 {
		t.Fatalf("occupancy-disabled time = %v, want %v", d.HostTime(), want)
	}
}

// refWarpTransactions is the original map + sort.Slice coalescing analysis —
// lanes sorted by count, distinct segments summed over the active prefixes
// — kept as the oracle the one-pass segment-maximum sum must match.
func refWarpTransactions(lanes []ThreadCtx) int64 {
	maxRuns := 0
	for i := range lanes {
		if len(lanes[i].runs) > maxRuns {
			maxRuns = len(lanes[i].runs)
		}
	}
	var total int64
	type laneRun struct {
		start int64
		count int64
	}
	active := make([]laneRun, 0, len(lanes))
	for k := 0; k < maxRuns; k++ {
		active = active[:0]
		var stride int32
		mixed := false
		first := true
		for i := range lanes {
			if k >= len(lanes[i].runs) {
				continue
			}
			r := lanes[i].runs[k]
			if first {
				stride = r.stride
				first = false
			} else if r.stride != stride {
				mixed = true
			}
			active = append(active, laneRun{r.start, int64(r.count)})
		}
		if len(active) == 0 {
			continue
		}
		if mixed {
			for _, a := range active {
				total += a.count
			}
			continue
		}
		// Sort lanes by count descending: the active set at step t is a
		// prefix.
		sort.Slice(active, func(i, j int) bool { return active[i].count > active[j].count })
		// D[j] = distinct segments among the first j+1 lanes' starts.
		segs := make(map[int64]bool, len(active))
		d := make([]int64, len(active))
		for j, a := range active {
			segs[a.start/segWords] = true
			d[j] = int64(len(segs))
		}
		// Interval [c_{j+1}, c_j) has exactly j+1 active lanes.
		for j := 0; j < len(active); j++ {
			var lower int64
			if j+1 < len(active) {
				lower = active[j+1].count
			}
			steps := active[j].count - lower
			if steps > 0 {
				total += d[j] * steps
			}
		}
	}
	return total
}

// randomBlock builds a block of recorded thread contexts from a byte
// source (a seeded generator or fuzz input): a thread count that often
// leaves a partial last warp, lanes with no runs, ragged run lists, lanes
// past maxRunsPerThread, counts drawn from a small set so ties are common,
// starts that often share a segment, and sites whose stride usually agrees
// across lanes but sometimes does not.
func randomBlock(next func() int) []ThreadCtx {
	buf := &Buffer{base: int64(next()) * 4096}
	ctxs := make([]ThreadCtx, 1+next()%100)
	var siteStride [maxRunsPerThread + 8]int
	for k := range siteStride {
		siteStride[k] = []int{0, 1, 2, 32}[next()%4]
	}
	counts := []int{1, 2, 3, 5, 8, 13, 100}
	for i := range ctxs {
		nRuns := next() % 6
		switch next() % 8 {
		case 0:
			nRuns = 0
		case 1:
			nRuns = maxRunsPerThread + next()%8
		}
		for k := 0; k < nRuns; k++ {
			stride := siteStride[k%len(siteStride)]
			if next()%10 == 0 {
				stride = next() % 40
			}
			start := next() * (1 + next()%40)
			ctxs[i].record(buf, start, counts[next()%len(counts)], stride, next()%2 == 0)
		}
	}
	return ctxs
}

// checkAgainstReference compares the allocation-free accounting with the
// reference on every warp of ctxs, and the whole block's transaction total
// (partial last warp and overflow charges included).
func checkAgainstReference(t *testing.T, ctxs []ThreadCtx, sc *accountScratch) {
	t.Helper()
	const warp = 32
	var want, wantAccesses int64
	for w := 0; w < len(ctxs); w += warp {
		lanes := ctxs[w:min(w+warp, len(ctxs))]
		ref := refWarpTransactions(lanes)
		if got, _ := warpTransactions(lanes, sc); got != ref {
			t.Fatalf("warp at lane %d of %d: warpTransactions = %d, reference %d", w, len(ctxs), got, ref)
		}
		want += ref
		for i := range lanes {
			want += lanes[i].extra
			wantAccesses += lanes[i].extra
			for _, r := range lanes[i].runs {
				wantAccesses += int64(r.count)
			}
		}
	}
	var st launchStats
	accumulateBlock(&st, ctxs, warp, sc)
	if st.transactions != want || st.accesses != wantAccesses {
		t.Fatalf("block of %d: accumulateBlock transactions = %d, accesses = %d, reference %d, %d",
			len(ctxs), st.transactions, st.accesses, want, wantAccesses)
	}
}

func TestWarpTransactionsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	next := func() int { return rng.Intn(256) }
	sc := new(accountScratch)
	for iter := 0; iter < 500; iter++ {
		checkAgainstReference(t, randomBlock(next), sc)
	}
}

func FuzzWarpTransactions(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 40, 1, 1, 1, 1, 0, 0, 3, 9, 200, 4, 5, 6})
	f.Add([]byte{255, 99, 3, 2, 1, 0, 1, 1, 64, 2, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		checkAgainstReference(t, randomBlock(next), new(accountScratch))
	})
}

// TestAccumulateBlockAllocatesNothing guards the per-worker scratch: a warm
// accounting pass over a full block must not allocate per block, warp or
// access site.
func TestAccumulateBlockAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	buf := &Buffer{base: 1 << 20}
	ctxs := make([]ThreadCtx, 256)
	for i := range ctxs {
		ctxs[i].record(buf, rng.Intn(4096), 1+rng.Intn(8), 1, false)
		ctxs[i].record(buf, rng.Intn(4096), 1+rng.Intn(8), 32, true)
		ctxs[i].Ops(rng.Intn(100))
	}
	sc := new(accountScratch)
	var st launchStats
	accumulateBlock(&st, ctxs, 32, sc)
	if n := testing.AllocsPerRun(100, func() { accumulateBlock(&st, ctxs, 32, sc) }); n != 0 {
		t.Fatalf("accumulateBlock allocates %v times per block, want 0", n)
	}
}

// TestWarpTransactionsSegmentMax pins the segment-maximum identity on
// hand-computed warps: each uniform-stride site costs the sum over its
// distinct 128-byte segments of the largest run count starting there, and a
// mixed-stride site costs the sum of its counts.
func TestWarpTransactionsSegmentMax(t *testing.T) {
	type run struct{ start, count, stride int }
	for _, tc := range []struct {
		name  string
		lanes [][]run // lane i's runs, site by site
		want  int64
	}{
		// One segment, counts 3 and 7: the segment is touched for 7 steps.
		{"one segment", [][]run{{{0, 3, 1}}, {{5, 7, 1}}}, 7},
		// Segments 3, 2, 1, 0, 2 as the lane id rises: the last lane
		// returns to segment 2 and raises its maximum from 5 to 6.
		// 2 + 6 + 4 + 3 = 15.
		{"falling starts", [][]run{{{100, 2, 1}}, {{70, 5, 1}}, {{40, 4, 1}}, {{10, 3, 1}}, {{65, 6, 1}}}, 15},
		// Lane 1 has no run at site 1. Site 0: segment 0, max 4. Site 1:
		// segments 31 and 32, counts 2 and 5. 4 + 2 + 5 = 11.
		{"lane without run", [][]run{{{0, 4, 1}, {1000, 2, 1}}, {{8, 1, 1}}, {{16, 3, 1}, {1040, 5, 1}}}, 11},
		// Only the last lane's stride differs: the whole site is charged
		// uncoalesced, 4 + 4 + 4 + 5 = 17 instead of the coalesced 5.
		{"last lane mixes strides", [][]run{{{0, 4, 1}}, {{1, 4, 1}}, {{2, 4, 1}}, {{3, 5, 2}}}, 17},
	} {
		buf := &Buffer{}
		ctxs := make([]ThreadCtx, len(tc.lanes))
		for i, runs := range tc.lanes {
			for _, r := range runs {
				ctxs[i].record(buf, r.start, r.count, r.stride, false)
			}
		}
		if got, _ := warpTransactions(ctxs, new(accountScratch)); got != tc.want {
			t.Errorf("%s: warpTransactions = %d, want %d", tc.name, got, tc.want)
		}
		if ref := refWarpTransactions(ctxs); ref != tc.want {
			t.Errorf("%s: refWarpTransactions = %d, want %d", tc.name, ref, tc.want)
		}
	}
}

// BenchmarkAccumulateBlock folds a block shaped like a FusedHashTopS block:
// 256 threads, each reading its two segment offsets, its segment of 2–12
// contiguous values and writing its 8-word output row, so every site's
// starts rise with the lane id.
func BenchmarkAccumulateBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	off, data, out := &Buffer{base: 0}, &Buffer{base: 1 << 20}, &Buffer{base: 1 << 24}
	const s = 8
	ctxs := make([]ThreadCtx, 256)
	pos := 0
	for i := range ctxs {
		n := 2 + rng.Intn(11)
		ctxs[i].record(off, i, 2, 1, false)
		ctxs[i].record(data, pos, n, 1, false)
		ctxs[i].record(out, i*s, s, 1, true)
		ctxs[i].Ops(6 * n)
		pos += n
	}
	sc := new(accountScratch)
	var st launchStats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		accumulateBlock(&st, ctxs, 32, sc)
	}
}
