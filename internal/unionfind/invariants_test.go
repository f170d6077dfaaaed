//go:build invariants

package unionfind

import (
	"sync"
	"testing"
)

// TestAcyclicAfterConcurrentUnions hammers the lock-free structure from
// several goroutines, then walks every parent link: assertAcyclic panics on
// any upward pointer.
func TestAcyclicAfterConcurrentUnions(t *testing.T) {
	const n = 512
	c := NewConcurrent(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i < n; i++ {
				c.Union(i, (i*13+w*31)%n)
			}
		}(w)
	}
	wg.Wait()
	assertAcyclic(c)
}

// TestAssertAcyclicCatchesUpwardLink corrupts the forest with an upward
// parent pointer and checks the invariant trips.
func TestAssertAcyclicCatchesUpwardLink(t *testing.T) {
	c := NewConcurrent(8)
	c.arr()[2].Store(5)
	defer func() {
		if recover() == nil {
			t.Fatal("assertAcyclic did not catch the upward link")
		}
	}()
	assertAcyclic(c)
}
