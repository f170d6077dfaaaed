package core

import (
	"fmt"
	"runtime"

	"gpclust/internal/graph"
	"gpclust/internal/obs"
	"gpclust/internal/sched"
)

// ClusterByComponent runs the full pClust strategy of Section I-B: first
// decompose the input graph into connected components ("to break down the
// large problem instance into subproblems of much smaller size"), then
// shingle each component independently and merge the results. Components
// are processed by a worker pool (the shared-memory parallelization of
// Rytsareva et al., which the paper cites as the OpenMP pClust).
//
// Clusters can only form within a connected component, so decomposition is
// exact with respect to cluster support; the reported partition is
// statistically equivalent to (not bit-identical with) the whole-graph
// ClusterSerial run, because the per-component vertex relabeling draws a
// different — equally valid — realization of the random permutations.
// Timings are the aggregate serial work; the per-component parallelism is a
// real-wall-clock optimization, not a virtual-clock one.
func ClusterByComponent(g *graph.Graph, o Options, workers int) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	led := sched.NewLedger(nil, o.Obs)
	ph := led.Phase(obs.NameRead)
	led.Charge(obs.NameRead, graphDiskNs(g))
	led.EndPhase(ph)
	labels, count := graph.ConnectedComponents(g)
	members := graph.ComponentMembers(labels, count)

	type subResult struct {
		res  *Result
		orig []uint32
		err  error
	}
	results := make([]subResult, count)
	sched.ParallelFor(workers, count, func(_, c int) {
		if len(members[c]) == 1 {
			return // singleton component: trivially its own cluster
		}
		sub, orig := graph.InducedSubgraph(g, members[c])
		// Sub-runs record nothing: concurrent per-component spans would
		// interleave on one timeline and per-component gauges would clobber
		// each other; the merged result is charged and recorded once below.
		subO := o
		subO.Obs = nil
		res, err := ClusterSerial(sub, subO)
		results[c] = subResult{res: res, orig: orig, err: err}
	})

	merged := &Result{Backend: "serial-decomposed"}
	var clusters [][]uint32
	var shingleNs, cpuNs float64
	for c := 0; c < count; c++ {
		r := results[c]
		if len(members[c]) == 1 {
			clusters = append(clusters, []uint32{members[c][0]})
			continue
		}
		if r.err != nil {
			return nil, fmt.Errorf("core: component %d: %w", c, r.err)
		}
		for _, cl := range r.res.Clustering.Clusters {
			mapped := make([]uint32, len(cl))
			for i, v := range cl {
				mapped[i] = r.orig[v]
			}
			clusters = append(clusters, mapped)
		}
		// Aggregate the virtual-clock components and pass statistics.
		shingleNs += r.res.Timings.ShingleNs
		cpuNs += r.res.Timings.CPUNs
		merged.Pass1.Lists += r.res.Pass1.Lists
		merged.Pass1.Elements += r.res.Pass1.Elements
		merged.Pass1.Tuples += r.res.Pass1.Tuples
		merged.Pass1.Shingles += r.res.Pass1.Shingles
		merged.Pass1.SkippedShort += r.res.Pass1.SkippedShort
		merged.Pass1.SharedLists += r.res.Pass1.SharedLists
		merged.Pass2.Lists += r.res.Pass2.Lists
		merged.Pass2.Elements += r.res.Pass2.Elements
		merged.Pass2.Tuples += r.res.Pass2.Tuples
		merged.Pass2.Shingles += r.res.Pass2.Shingles
	}
	merged.Pass1.Batches = 1
	merged.Pass2.Batches = 1
	ph = led.Phase("components")
	led.Charge(obs.NameShingle, shingleNs)
	led.Charge("components", cpuNs)
	led.EndPhase(ph)
	merged.Timings = hostTimings(led)

	// Each mapped cluster is sorted because InducedSubgraph preserves id
	// order; order the cluster list deterministically.
	sortClusters(clusters)
	merged.Clustering = Clustering{N: n, Clusters: clusters}
	recordRunMetrics(o.Obs, merged)
	return merged, nil
}
