package sched

import (
	"sync"
	"sync/atomic"
)

// ParallelFor runs body(worker, i) for every i in [0, n) across the pool,
// claiming contiguous chunks from an atomic cursor. It degrades to an
// inline loop for a single worker.
func ParallelFor(workers, n int, body func(worker, i int)) {
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
