package sched

import "testing"

// TestParallelForVisitsEachIndexOnce: every index in [0, n) runs exactly
// once, on a worker id inside the pool, for pools smaller and larger than n.
func TestParallelForVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 5} {
		for _, n := range []int{0, 1, 7, 100} {
			visits := make([]int, n)
			ids := make([]int, n)
			ParallelFor(workers, n, func(w, i int) {
				visits[i]++
				ids[i] = w
			})
			for i := range visits {
				if visits[i] != 1 {
					t.Fatalf("workers %d, n %d: index %d ran %d times", workers, n, i, visits[i])
				}
				if ids[i] < 0 || ids[i] >= max(workers, 1) {
					t.Fatalf("workers %d, n %d: index %d ran on worker %d", workers, n, i, ids[i])
				}
			}
		}
	}
}
