package graph

// ConnectedComponents labels every vertex with its connected component using
// an iterative BFS (no recursion, safe for paper-scale graphs). It returns
// the label slice (labels dense in [0, count)) and the component count.
// Singleton vertices each form their own component.
func ConnectedComponents(g *Graph) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []uint32
	next := int32(0)
	for start := 0; start < n; start++ {
		if labels[start] != -1 {
			continue
		}
		labels[start] = next
		queue = append(queue[:0], uint32(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if labels[u] == -1 {
					labels[u] = next
					queue = append(queue, u)
				}
			}
		}
		next++
	}
	return labels, int(next)
}

// ComponentSizes returns the size of each component given its labeling.
func ComponentSizes(labels []int32, count int) []int {
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	return sizes
}

// LargestComponent returns the size of the largest connected component
// (the "Largest CC size" column of Table II).
func LargestComponent(g *Graph) int {
	labels, count := ConnectedComponents(g)
	max := 0
	for _, s := range ComponentSizes(labels, count) {
		if s > max {
			max = s
		}
	}
	return max
}

// InducedSubgraph extracts the subgraph induced by the given vertex set,
// returning the subgraph and the mapping from new ids to original ids.
// pClust uses connected-component decomposition to break the input into
// independent subproblems; this is the extraction primitive for that.
func InducedSubgraph(g *Graph, vertices []uint32) (*Graph, []uint32) {
	remap := make(map[uint32]uint32, len(vertices))
	orig := make([]uint32, len(vertices))
	for i, v := range vertices {
		remap[v] = uint32(i)
		orig[i] = v
	}
	b := NewBuilder(len(vertices))
	for i, v := range vertices {
		for _, u := range g.Neighbors(v) {
			if j, ok := remap[u]; ok && uint32(i) < j {
				b.AddEdge(uint32(i), j)
			}
		}
	}
	return b.Build(), orig
}
