// Package graph provides the graph substrate for gpClust: compressed
// sparse-row (CSR) undirected graphs, connected components, degree and
// component statistics (Table II of the paper), synthetic generators that
// plant dense subgraphs, and simple edge-list I/O.
//
// The similarity graph G = (V, E) is undirected: (v_i, v_j) ∈ E iff the
// corresponding sequences have significant similarity. Vertices are dense
// uint32 ids in [0, n).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected graph in CSR (adjacency-list) form. Neighbor lists
// are sorted and contain no duplicates or self loops. Both directions of
// every edge are stored, so NumEdges() = len(Adj)/2.
type Graph struct {
	// Offsets has length NumVertices()+1; the neighbors of v are
	// Adj[Offsets[v]:Offsets[v+1]].
	Offsets []int64
	// Adj is the concatenation of all adjacency lists.
	Adj []uint32
}

// NumVertices returns n, the number of vertices (including singletons).
func (g *Graph) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns m, the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.Adj)) / 2 }

// Degree returns |Γ(v)|.
func (g *Graph) Degree(v uint32) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns Γ(v) as a shared (read-only) slice.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// HasEdge reports whether (u,v) ∈ E using binary search on Γ(u).
func (g *Graph) HasEdge(u, v uint32) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Edge is one undirected edge; by convention U < V in normalized form.
type Edge struct {
	U, V uint32
}

// Builder accumulates edges and produces a normalized Graph. Duplicate edges
// and self loops are dropped. The zero value is ready to use.
type Builder struct {
	n     uint32
	edges []Edge
}

// NewBuilder returns a builder that will produce a graph with at least n
// vertices (ids seen in edges can grow it further).
func NewBuilder(n int) *Builder {
	return &Builder{n: uint32(n)}
}

// MaxVertexID is the largest permitted vertex id: ids must stay below the
// min-wise hashing prime (2^31 - 1) for h(v) = (Av+B) mod P to remain a
// permutation of the id space.
const MaxVertexID = 1<<31 - 2

// AddEdge records the undirected edge (u,v). Self loops are ignored.
// Vertex ids above MaxVertexID violate the package contract and panic.
func (b *Builder) AddEdge(u, v uint32) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if v > MaxVertexID {
		panic(fmt.Sprintf("graph: vertex id %d exceeds MaxVertexID %d", v, MaxVertexID))
	}
	if v+1 > b.n {
		b.n = v + 1
	}
	b.edges = append(b.edges, Edge{u, v})
}

// Build produces the CSR graph. The builder may be reused afterwards but
// retains its edges.
func (b *Builder) Build() *Graph {
	// Sort and dedupe normalized edges.
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].U != b.edges[j].U {
			return b.edges[i].U < b.edges[j].U
		}
		return b.edges[i].V < b.edges[j].V
	})
	uniq := b.edges[:0:len(b.edges)]
	var prev Edge
	for i, e := range b.edges {
		if i > 0 && e == prev {
			continue
		}
		uniq = append(uniq, e)
		prev = e
	}
	b.edges = uniq

	n := int(b.n)
	deg := make([]int64, n+1)
	for _, e := range b.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adj := make([]uint32, deg[n])
	cursor := make([]int64, n)
	copy(cursor, deg[:n])
	for _, e := range b.edges {
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	g := &Graph{Offsets: deg, Adj: adj}
	// Neighbor lists are sorted because edges were sorted by (U,V) and each
	// vertex receives neighbors in increasing order of the other endpoint...
	// except the mixture of U-side and V-side insertions breaks that; sort
	// each list to guarantee the invariant.
	for v := 0; v < n; v++ {
		lst := adj[g.Offsets[v]:g.Offsets[v+1]]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
	}
	return g
}

// FromEdges is a convenience constructor from an edge slice.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// Validate checks CSR invariants (sorted unique neighbor lists, symmetry,
// no self loops) and returns a descriptive error on the first violation.
// Intended for tests and for validating externally loaded graphs.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.Offsets) != n+1 {
		return fmt.Errorf("graph: offsets length %d != n+1", len(g.Offsets))
	}
	if g.Offsets[0] != 0 || g.Offsets[n] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: offset endpoints [%d,%d] do not span adj of length %d",
			g.Offsets[0], g.Offsets[n], len(g.Adj))
	}
	// Offsets must be checked before any Neighbors slicing: on graphs
	// loaded from untrusted bytes, hostile offsets would otherwise panic.
	for v := 0; v < n; v++ {
		if g.Offsets[v] < 0 || g.Offsets[v] > g.Offsets[v+1] || g.Offsets[v+1] > int64(len(g.Adj)) {
			return fmt.Errorf("graph: offsets not monotone in [0,%d] at vertex %d: %d, %d",
				len(g.Adj), v, g.Offsets[v], g.Offsets[v+1])
		}
	}
	for v := 0; v < n; v++ {
		lst := g.Neighbors(uint32(v))
		for i, u := range lst {
			if int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == uint32(v) {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if i > 0 && lst[i-1] >= u {
				return fmt.Errorf("graph: unsorted/duplicate neighbor list at %d", v)
			}
			if !g.HasEdge(u, uint32(v)) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", v, u)
			}
		}
	}
	return nil
}

// NonSingletonVertices returns the ids of vertices with degree ≥ 1. The paper
// drops singleton vertices before clustering ("2,921 vertices are singleton
// vertices, and they will be ignored").
func (g *Graph) NonSingletonVertices() []uint32 {
	var out []uint32
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) > 0 {
			out = append(out, uint32(v))
		}
	}
	return out
}
