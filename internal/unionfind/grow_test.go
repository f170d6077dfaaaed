package unionfind

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentGrow grows a forest in steps, unioning across the old/new
// boundary each time, and checks the final partition against a sequential
// UF fed the same pairs over the final universe.
func TestConcurrentGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewConcurrent(8)
	ref := New(64)
	var pairs [][2]int
	union := func(a, b int) {
		c.Union(a, b)
		pairs = append(pairs, [2]int{a, b})
	}
	union(0, 3)
	union(4, 7)
	for n := 16; n <= 64; n *= 2 {
		prev := c.Len()
		c.Grow(n)
		if c.Len() != n {
			t.Fatalf("Len after Grow(%d) = %d", n, c.Len())
		}
		// New elements start as singletons.
		for i := prev; i < n; i++ {
			if got := c.Find(i); got != i {
				t.Fatalf("new element %d has root %d, want itself", i, got)
			}
		}
		// Union across the boundary and within the new range.
		for k := 0; k < 8; k++ {
			union(rng.Intn(prev), prev+rng.Intn(n-prev))
		}
	}
	for _, p := range pairs {
		ref.Union(p[0], p[1])
	}
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			if c.Same(i, j) != ref.Same(i, j) {
				t.Fatalf("Same(%d,%d) = %v disagrees with sequential reference", i, j, c.Same(i, j))
			}
		}
	}
}

// TestConcurrentGrowNoShrink: growing to a smaller or equal size is a no-op
// and preserves the partition.
func TestConcurrentGrowNoShrink(t *testing.T) {
	c := NewConcurrent(10)
	c.Union(2, 9)
	c.Grow(5)
	if c.Len() != 10 {
		t.Fatalf("Grow shrank the structure to %d", c.Len())
	}
	c.Grow(10)
	if c.Len() != 10 || !c.Same(2, 9) {
		t.Fatal("no-op Grow disturbed the partition")
	}
}

// TestConcurrentGrowAllocatesLogarithmically: 10,000 single-element Grows
// (the serving layer's one Grow per committing pass) allocate O(log n)
// times, not once per call, and leave every new element a singleton.
func TestConcurrentGrowAllocatesLogarithmically(t *testing.T) {
	const grows = 10_000
	var c *Concurrent
	allocs := testing.AllocsPerRun(1, func() {
		c = NewConcurrent(1)
		for n := 2; n <= grows+1; n++ {
			c.Grow(n)
		}
	})
	if limit := float64(3 * bits.Len(grows)); allocs > limit { // two per doubling, plus set-up
		t.Fatalf("%d single-element Grows allocated %.0f times, want at most %.0f", grows, allocs, limit)
	}
	if c.Len() != grows+1 {
		t.Fatalf("Len = %d, want %d", c.Len(), grows+1)
	}
	for i := 0; i <= grows; i++ {
		if c.Find(i) != i {
			t.Fatalf("element %d has root %d, want itself", i, c.Find(i))
		}
	}
}

// TestConcurrentGrowDuringFinds exercises the documented contract: readers
// hammer Find/Same while a single writer goroutine alternates Grow and
// Union (never concurrently with each other). Run under -race by the CI
// sweep; the final partition must match a sequential replay.
func TestConcurrentGrowDuringFinds(t *testing.T) {
	const (
		readers = 8
		start   = 64
		final   = 1024
	)
	c := NewConcurrent(start)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := c.Len()
				x := rng.Intn(n)
				root := c.Find(x)
				if root > x {
					// The ordered-link invariant: roots never exceed members.
					panic("Find returned an upward root")
				}
				c.Same(rng.Intn(n), rng.Intn(n))
			}
		}(int64(r))
	}

	// Single writer: Grow then a burst of Unions, repeatedly.
	rng := rand.New(rand.NewSource(42))
	var pairs [][2]int
	for n := start; n < final; n *= 2 {
		c.Grow(2 * n)
		for k := 0; k < 4*n; k++ {
			a, b := rng.Intn(2*n), rng.Intn(2*n)
			c.Union(a, b)
			pairs = append(pairs, [2]int{a, b})
		}
	}
	close(stop)
	wg.Wait()

	ref := New(final)
	for _, p := range pairs {
		ref.Union(p[0], p[1])
	}
	refRoot := make(map[int]int)
	for i := 0; i < final; i++ {
		rr, cr := ref.Find(i), c.Find(i)
		if prev, ok := refRoot[rr]; ok {
			if prev != cr {
				t.Fatalf("element %d: concurrent root %d splits sequential class %d (root %d)", i, cr, rr, prev)
			}
		} else {
			refRoot[rr] = cr
		}
	}
	if len(refRoot) != len(uniqueRoots(c, final)) {
		t.Fatalf("class counts differ: sequential %d, concurrent %d", len(refRoot), len(uniqueRoots(c, final)))
	}
}

func uniqueRoots(c *Concurrent, n int) map[int]bool {
	roots := make(map[int]bool)
	for i := 0; i < n; i++ {
		roots[c.Find(i)] = true
	}
	return roots
}
