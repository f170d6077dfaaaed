package core

import "sync"

// Scratch pools for the shingling hot loops. Every trial wants an s-sized
// minima slice, and every radix sort an n-sized ping-pong tuple buffer plus
// its digit counters (radixScratch, about 72 KB); recycling both through
// sync.Pool keeps the steady-state allocation rate of a pass near zero
// (measured by the allocs/op column of BenchmarkClusterParallel). Work that
// runs concurrently on the worker pool (the host backends' per-trial
// shingling, every backend's per-trial sorts) draws its own scratch.

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
