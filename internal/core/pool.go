package core

import "sync"

// Scratch pools for the shingling hot loops. Every trial of every list wants
// an s-sized minima slice, every radix sort an n-sized ping-pong tuple buffer
// plus its digit counters (radixScratch, about 72 KB), and ClusterParallel's
// per-worker shard streams and per-slot gathers want tuple slices; recycling
// all three through sync.Pool keeps the steady-state allocation rate of a
// pass near zero (measured by the allocs/op column of
// BenchmarkClusterParallel). Sorts that run concurrently (ClusterGPU's
// per-trial sorts on the worker pool, ClusterParallel's shard slots) each
// draw their own scratch.

var minimaPool = sync.Pool{New: func() any { return new([]uint32) }}

// getMinima returns an s-length scratch slice for min-wise minima.
func getMinima(s int) []uint32 {
	p := minimaPool.Get().(*[]uint32)
	if cap(*p) < s {
		*p = make([]uint32, s)
	}
	return (*p)[:s]
}

func putMinima(m []uint32) {
	minimaPool.Put(&m)
}

var tupleSlicePool = sync.Pool{New: func() any { return new([]tuple) }}

// getTupleSlice returns an empty tuple slice with at least the given capacity.
func getTupleSlice(capacity int) []tuple {
	p := tupleSlicePool.Get().(*[]tuple)
	if cap(*p) < capacity {
		*p = make([]tuple, 0, capacity)
	}
	return (*p)[:0]
}

func putTupleSlice(ts []tuple) {
	ts = ts[:0]
	tupleSlicePool.Put(&ts)
}

// radixScratch is one sortTuples call's working memory: the ping-pong tuple
// buffer and every digit's counters.
type radixScratch struct {
	buf  []tuple
	hist [radixDigits][radixBuckets]int32
}

var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// getRadixScratch returns scratch whose buffer holds at least n tuples;
// return it with radixPool.Put.
func getRadixScratch(n int) *radixScratch {
	sc := radixPool.Get().(*radixScratch)
	if cap(sc.buf) < n {
		sc.buf = make([]tuple, n)
	}
	return sc
}
