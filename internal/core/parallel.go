package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"gpclust/internal/graph"
	"gpclust/internal/minwise"
	"gpclust/internal/sched"
	"gpclust/internal/unionfind"
)

// ClusterParallel is the multi-core host backend: both shingling passes run
// across a worker pool (Options.Workers goroutines, default GOMAXPROCS),
// aggregation is sharded by shingle key and merged without a global lock,
// and Phase III reporting unions through a lock-free union-find. The
// clustering is bit-identical to ClusterSerial for the same Options — the
// determinism argument of DESIGN §5: grouped output depends only on the
// per-trial (key, owner)-sorted tuple stream, which is invariant to the
// order tuples were generated in, and the reported partition depends only
// on the union-find's connectivity closure, which is invariant to union
// order.
//
// Timings prices the critical path: each component is the maximum virtual
// time any one worker spent in it, and Result.WorkerCPUNs exposes the
// per-worker spread. Result.Wall carries real wall-clock phase times, since
// the virtual cost model prices operations, not cores.
func ClusterParallel(g *graph.Graph, o Options) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	workers := o.workerCount()
	fam1, fam2 := o.families()
	accts := make([]cpuAccount, workers)
	res := &Result{Backend: "parallel", Workers: workers}

	accts[0].diskBytes = graphDiskBytes(g)

	sw := sched.NewStopwatch()
	in := FromGraph(g)
	gi := runPassParallel(in, fam1, o.S1, workers, accts, &res.Pass1)
	res.Pass1.Batches = 1
	res.Wall.Pass1Ns = sw.Lap()
	var s1, a1 float64
	for w := range accts {
		s1 = max(s1, accts[w].serialNs())
		a1 = max(a1, accts[w].aggNs())
	}

	pass2In := gi.filterMinLen(o.S2)
	res.Pass1.SharedLists = pass2In.NumLists()
	gii := runPassParallel(pass2In, fam2, o.S2, workers, accts, &res.Pass2)
	res.Pass2.Batches = 1
	res.Wall.Pass2Ns = sw.Lap()

	res.Clustering = reportClustersParallel(g.NumVertices(), gi, gii, o.Mode, workers, accts)
	res.Wall.ReportNs = sw.Lap()
	res.Wall.TotalNs = sw.Total()

	// Critical-path virtual clock: a parallel phase takes as long as its
	// busiest worker.
	var shingleNs, aggNs, reportNs float64
	res.WorkerCPUNs = make([]float64, workers)
	for w := range accts {
		a := &accts[w]
		shingleNs = max(shingleNs, a.serialNs())
		aggNs = max(aggNs, a.aggNs())
		reportNs = max(reportNs, a.reportNs())
		res.WorkerCPUNs[w] = a.serialNs() + a.aggNs() + a.reportNs()
	}
	diskNs := accts[0].diskNs()
	res.Timings = Timings{
		ShingleNs: shingleNs,
		CPUNs:     aggNs + reportNs,
		DiskIONs:  diskNs,
		TotalNs:   shingleNs + aggNs + reportNs + diskNs,
	}
	recordHostTimeline(o.Obs, diskNs,
		[2][2]float64{{s1, a1}, {shingleNs - s1, aggNs - a1}}, reportNs)
	recordRunMetrics(o.Obs, res)
	return res, nil
}

// Aggregation shards: tuples are routed by the top bits of their shingle
// key, so shard order is key order and sorting each shard independently
// then concatenating in shard order reproduces the globally sorted stream
// the serial backend groups.
const (
	parShardBits  = 3
	parNumShards  = 1 << parShardBits
	parChunkLists = 64 // lists claimed per worker grab in pass A
)

func parShard(key uint64) int { return int(key >> (64 - parShardBits)) }

// runPassParallel is runPassSerial across a worker pool, in three phases:
//
//	A. shingle extraction — workers claim chunks of lists from an atomic
//	   cursor and append <key, owner> tuples into per-worker per-(trial,
//	   shard) buffers: no shared mutable state, no lock.
//	B. sharded aggregation — workers claim (trial, shard) slots, concatenate
//	   that slot's buffers from every worker, radix-sort, and group into a
//	   fragment sized exactly from the slot's tuple and group counts. Slots
//	   are independent, so again no lock.
//	C. stitch — fragments are concatenated in (trial, shard) order, which
//	   is exactly the serial backend's (trial, key) order.
func runPassParallel(in *SegGraph, fam minwise.Family, s, workers int,
	accts []cpuAccount, stats *PassStats) *SegGraph {

	numLists := in.NumLists()
	c := fam.Size()
	slots := c * parNumShards
	stats.Lists = numLists
	stats.Elements = int64(len(in.Data))

	// Phase A: parallel shingle extraction.
	perWorker := make([][][]tuple, workers)
	for w := range perWorker {
		perWorker[w] = make([][]tuple, slots)
	}
	type passCounters struct {
		skipped int
		tuples  int64
		_       [48]byte // pad to a cache line: counters are written hot
	}
	counters := make([]passCounters, workers)

	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acct := &accts[w]
			local := perWorker[w]
			cnt := &counters[w]
			minima := getMinima(s)
			defer putMinima(minima)
			for {
				lo := int(cursor.Add(parChunkLists)) - parChunkLists
				if lo >= numLists {
					return
				}
				hi := min(lo+parChunkLists, numLists)
				for i := lo; i < hi; i++ {
					lst := in.List(i)
					if len(lst) < s {
						cnt.skipped++
						continue
					}
					owner := in.Owner(i)
					for j, h := range fam.Pairs {
						minwise.MinS(h, lst, minima)
						acct.serialOps += shingleListOps(len(lst), s)
						key := shingleKey(uint32(j), minima)
						slot := j*parNumShards + parShard(key)
						if local[slot] == nil {
							local[slot] = getTupleSlice(parChunkLists)
						}
						local[slot] = append(local[slot], tuple{key: key, owner: owner})
						cnt.tuples++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range counters {
		stats.SkippedShort += counters[w].skipped
		stats.Tuples += counters[w].tuples
	}

	// Phase B: sharded aggregation. Each slot's tuples are gathered from
	// every worker in worker order (the radix sort erases the arrival
	// order), sorted, and grouped.
	frags := make([]SegGraph, slots)
	var slotCursor atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acct := &accts[w]
			for {
				slot := int(slotCursor.Add(1)) - 1
				if slot >= slots {
					return
				}
				total := 0
				for _, pw := range perWorker {
					total += len(pw[slot])
				}
				if total == 0 {
					continue
				}
				ts := getTupleSlice(total)
				for _, pw := range perWorker {
					ts = append(ts, pw[slot]...)
				}
				sortTuples(ts)
				n := int64(total)
				acct.aggOps += n*int64(bits.Len64(uint64(n))) + n
				frags[slot] = SegGraph{
					Offsets: make([]int64, 1, countGroups(ts)+1),
					Data:    make([]uint32, 0, total),
				}
				appendGroups(&frags[slot], ts)
				putTupleSlice(ts)
			}
		}(w)
	}
	wg.Wait()
	for _, pw := range perWorker {
		for i, ts := range pw {
			if ts != nil {
				putTupleSlice(ts)
				pw[i] = nil
			}
		}
	}

	// Phase C: stitch fragments in (trial, shard) order — identical to the
	// serial stream's (trial, key) order since a shard is a key range.
	totalData, totalGroups := 0, 0
	for i := range frags {
		if f := &frags[i]; f.Offsets != nil {
			totalData += len(f.Data)
			totalGroups += f.NumLists()
		}
	}
	out := &SegGraph{
		Offsets: make([]int64, 1, totalGroups+1),
		Data:    make([]uint32, 0, totalData),
	}
	for i := range frags {
		f := &frags[i]
		if f.Offsets == nil {
			continue // the slot received no tuples
		}
		base := int64(len(out.Data))
		out.Data = append(out.Data, f.Data...)
		for _, e := range f.Offsets[1:] {
			out.Offsets = append(out.Offsets, base+e)
		}
	}
	stats.Shingles = out.NumLists()
	accts[0].aggOps += int64(len(out.Data))
	return out
}

// reportClustersParallel is Phase III across the worker pool. The
// second-level component discovery and the vertex unions go through
// lock-free union-finds; union order does not affect the connectivity
// closure, so the partition — and after sortClusters, the exact output —
// matches reportClusters.
func reportClustersParallel(n int, gi, gii *SegGraph, mode ReportMode,
	workers int, accts []cpuAccount) Clustering {

	numS1 := gi.NumLists()
	ufS1 := unionfind.NewConcurrent(numS1)
	inGII := make([]uint32, numS1)

	// Components of G_II restricted to the S1' side, discovered in parallel
	// over the second-level lists. inGII stores are atomic: several lists
	// may flag the same first-level shingle.
	parallelFor(workers, gii.NumLists(), func(w, k int) {
		members := gii.List(k)
		for j, s1 := range members {
			atomic.StoreUint32(&inGII[s1], 1)
			if j > 0 {
				ufS1.Union(int(members[0]), int(s1))
			}
			accts[w].reportOps++
		}
	})

	if mode == ReportOverlapping {
		// Overlapping mode is rare and cheap next to shingling: reuse the
		// serial enumeration on the frozen component structure.
		flags := make([]bool, numS1)
		for i, v := range inGII {
			flags[i] = v != 0
		}
		return reportOverlapping(n, gi, ufS1.Freeze(), flags, &accts[0])
	}

	// Union every vertex of every first-level shingle in a component, in
	// parallel over the first-level lists. anchor[root] is CAS-claimed by
	// whichever worker gets there first; any representative yields the same
	// closure.
	uf := unionfind.NewConcurrent(n)
	anchor := make([]atomic.Int64, numS1)
	for i := range anchor {
		anchor[i].Store(-1)
	}
	parallelFor(workers, numS1, func(w, i int) {
		if atomic.LoadUint32(&inGII[i]) == 0 {
			return
		}
		root := ufS1.Find(i)
		for _, v := range gi.List(i) {
			a := anchor[root].Load()
			if a < 0 {
				if anchor[root].CompareAndSwap(-1, int64(v)) {
					a = int64(v)
				} else {
					a = anchor[root].Load()
				}
			}
			uf.Union(int(a), int(v))
			accts[w].reportOps++
		}
	})

	// Materialize: parallel root resolution, then a sequential grouping
	// scan in vertex order (members come out ascending by construction).
	roots := make([]int32, n)
	parallelFor(workers, n, func(w, v int) {
		roots[v] = int32(uf.Find(v))
	})
	clusterIdx := make([]int32, n)
	for i := range clusterIdx {
		clusterIdx[i] = -1
	}
	clusters := make([][]uint32, 0, 64)
	for v := 0; v < n; v++ {
		r := roots[v]
		ci := clusterIdx[r]
		if ci < 0 {
			ci = int32(len(clusters))
			clusterIdx[r] = ci
			clusters = append(clusters, nil)
		}
		clusters[ci] = append(clusters[ci], uint32(v))
	}
	accts[0].reportOps += int64(n)
	sortClusters(clusters)
	return Clustering{N: n, Clusters: clusters}
}

// parallelFor runs body(worker, i) for every i in [0, n) across the pool,
// claiming contiguous chunks from an atomic cursor. It degrades to an
// inline loop for a single worker.
func parallelFor(workers, n int, body func(worker, i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := min(lo+chunk, n)
				for i := lo; i < hi; i++ {
					body(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}
