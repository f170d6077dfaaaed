package unionfind

import "sync/atomic"

// Concurrent is a lock-free disjoint-set forest over [0, n) safe for Union
// and Find from many goroutines (in the style of Jayanti & Tarjan, "Concurrent
// Disjoint Set Union": roots are linked with a single CAS, Find halves paths).
// Links always point a higher-indexed root at a lower-indexed one, so the
// parent order is a strict decreasing chain — no cycles, no rank array to
// maintain concurrently.
//
// The final partition equals a sequential union-find fed the same pairs in
// any order (set union is associative and commutative), which is what lets
// the parallel Phase III reporting produce the exact clustering of the
// serial backend.
//
// The parent array lives behind an atomic pointer, with the element count
// beside it, so Grow can extend the element universe while readers are in
// flight — the resident-service use case, where lookups keep serving while
// an insert batch admits new sequences. See Grow for the exact concurrency
// contract.
type Concurrent struct {
	parent atomic.Pointer[[]atomic.Int32] // backing array, len = capacity
	n      atomic.Int64                   // elements in use: parent's prefix [0, n)
}

// NewConcurrent returns a concurrent union-find over n singleton elements.
func NewConcurrent(n int) *Concurrent {
	c := &Concurrent{}
	p := make([]atomic.Int32, n)
	for i := range p {
		p[i].Store(int32(i))
	}
	c.parent.Store(&p)
	c.n.Store(int64(n))
	return c
}

// arr returns the current parent array, the in-use prefix of the backing
// array. Every operation loads it exactly once and works on that snapshot.
// The count is loaded before the array and Grow stores the array before the
// count, so the snapshot's array always holds its count's elements. Grow
// only ever writes elements past every snapshot's length, or copies into a
// fresh array, so a snapshot is always an internally consistent forest.
func (c *Concurrent) arr() []atomic.Int32 {
	n := c.n.Load()
	return (*c.parent.Load())[:n]
}

// Len returns the number of elements in the structure.
func (c *Concurrent) Len() int { return int(c.n.Load()) }

// Grow extends the structure to n elements; the new elements [old n, n) are
// singletons. Growing to a smaller or equal size is a no-op. Within the
// backing array's spare capacity Grow writes only [old n, n), which no
// snapshot indexes; past it, the forest is copied into an array of double
// the capacity (or n, if larger), so a run of single-element Grows copies
// and allocates O(log n) times in all.
//
// Concurrency contract: Grow is safe against concurrent Find/Same (readers
// keep walking their snapshot, a correct view of the forest — at worst a
// path-halving shortcut they CAS into a replaced array is lost, which never
// changes any root), but it must NOT run concurrently with Union or another
// Grow: a link CASed into the old array while Grow copies would be silently
// dropped, and two Grows would write the same spare elements. The serving
// layer upholds this by funneling every Union and Grow through its single
// scheduler goroutine while lookups Find freely.
func (c *Concurrent) Grow(n int) {
	old := c.arr()
	if n <= len(old) {
		return
	}
	p := *c.parent.Load()
	if n > len(p) {
		grown := make([]atomic.Int32, max(n, 2*len(p)))
		for i := range old {
			grown[i].Store(old[i].Load())
		}
		c.parent.Store(&grown)
		p = grown
	}
	for i := len(old); i < n; i++ {
		p[i].Store(int32(i))
	}
	c.n.Store(int64(n))
}

// Find returns the canonical representative of x's set, halving the path as
// it walks. Safe for concurrent use with Union, Grow and other Finds.
func (c *Concurrent) Find(x int) int {
	return findIn(c.arr(), x)
}

func findIn(parent []atomic.Int32, x int) int {
	for {
		p := int(parent[x].Load())
		if p == x {
			return x
		}
		gp := int(parent[p].Load())
		if gp == p {
			return p
		}
		// Path halving: point x at its grandparent. Losing the race only
		// means another goroutine already shortened this path.
		parent[x].CompareAndSwap(int32(p), int32(gp))
		x = gp
	}
}

// Union merges the sets containing x and y, returning false if they were
// already joined. Safe for concurrent use with Find and other Unions, but
// not with Grow (see Grow).
func (c *Concurrent) Union(x, y int) bool {
	parent := c.arr()
	for {
		rx, ry := findIn(parent, x), findIn(parent, y)
		if rx == ry {
			return false
		}
		if rx > ry {
			rx, ry = ry, rx
		}
		// Link the higher root under the lower; the CAS fails — and the
		// whole operation retries — if ry stopped being a root meanwhile.
		if parent[ry].CompareAndSwap(int32(ry), int32(rx)) {
			return true
		}
	}
}

// Same reports whether x and y are in the same set. Only meaningful after
// all concurrent Unions have completed.
func (c *Concurrent) Same(x, y int) bool { return c.Find(x) == c.Find(y) }
