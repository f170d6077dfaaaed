//go:build invariants

package unionfind

import "fmt"

// assertAcyclic verifies the concurrent forest's structural invariant after
// the parallel phase has quiesced: every parent link points at an equal or
// lower index, so parent chains strictly decrease and cycles are impossible
// (the property Union's ordered CAS linking maintains). Compiled only under
// -tags invariants; the invariants-build tests call it once their
// concurrent Unions have joined.
func assertAcyclic(c *Concurrent) {
	parent := c.arr()
	for i := range parent {
		if p := int(parent[i].Load()); p > i {
			panic(fmt.Sprintf("unionfind: parent[%d] = %d points upward: the ordered-link invariant is violated", i, p))
		}
	}
}
