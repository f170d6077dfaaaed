package core

import (
	"gpclust/internal/graph"
	"gpclust/internal/minwise"
	"gpclust/internal/sched"
)

// ClusterSerial runs the serial pClust shingling pipeline of Section III-B:
// two shingling passes (min-wise permutations, on-the-fly insertion-sort
// top-s selection) followed by Phase III reporting. Its virtual runtime is
// the "Serial runtime" column of Table I.
func ClusterSerial(g *graph.Graph, o Options) (*Result, error) {
	return clusterHost(g, o, "serial", 1)
}

// ClusterParallel is the multi-core host backend: ClusterSerial's pipeline
// on a pool of Options.Workers goroutines (default GOMAXPROCS). Each
// shingling pass fills its per-trial tuple streams and sorts them across
// the pool; Phase III reporting runs serially. Clustering, Timings and
// PassStats are bit-identical to ClusterSerial's for every worker count:
// the virtual cost model prices operations, not cores, so the pool's
// speedup shows in Result.Wall only.
func ClusterParallel(g *graph.Graph, o Options) (*Result, error) {
	workers := o.workerCount()
	res, err := clusterHost(g, o, "parallel", workers)
	if err != nil {
		return nil, err
	}
	res.Workers = workers
	return res, nil
}

// clusterHost is the host shingling pipeline both host backends run, with
// the trial-parallel work of each pass spread over workers goroutines. One
// account charges every operation, so the virtual clock is the same for
// every worker count.
func clusterHost(g *graph.Graph, o Options, backend string, workers int) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	fam1, fam2 := o.families()
	acct := &cpuAccount{}
	res := &Result{Backend: backend}

	// Disk I/O: loading the graph from its binary on-disk form.
	acct.diskBytes = graphDiskBytes(g)

	sw := sched.NewStopwatch()
	in := FromGraph(g)
	gi := runPassHost(in, fam1, o.S1, workers, acct, &res.Pass1)
	res.Pass1.Batches = 1
	res.Wall.Pass1Ns = sw.Lap()
	s1, a1 := acct.serialNs(), acct.aggNs()

	pass2In := gi.filterMinLen(o.S2)
	res.Pass1.SharedLists = pass2In.NumLists()
	gii := runPassHost(pass2In, fam2, o.S2, workers, acct, &res.Pass2)
	res.Pass2.Batches = 1
	res.Wall.Pass2Ns = sw.Lap()

	res.Clustering = reportClusters(g.NumVertices(), gi, gii, o.Mode, acct)
	res.Wall.ReportNs = sw.Lap()
	res.Wall.TotalNs = sw.Total()

	shingleNs := acct.serialNs()
	cpuNs := acct.aggNs() + acct.reportNs()
	res.Timings = Timings{
		ShingleNs: shingleNs,
		CPUNs:     cpuNs,
		DiskIONs:  acct.diskNs(),
		TotalNs:   shingleNs + cpuNs + acct.diskNs(),
	}
	recordHostTimeline(o.Obs, acct.diskNs(),
		[2][2]float64{{s1, a1}, {shingleNs - s1, acct.aggNs() - a1}}, acct.reportNs())
	recordRunMetrics(o.Obs, res)
	return res, nil
}

// runPassHost generates c shingles for every list of at least s elements
// and groups them into the next-level shingle graph. The top-s selection is
// the paper's "on-the-fly enumeration of Γ_j(u) ... keeping track of an
// s-sized array that records the minimum s elements ... through a simple
// insertion sort". Every long list emits exactly one tuple per trial, so
// the c per-trial streams are windows of one exactly sized block; trial j's
// stream is filled in list order by whichever worker claims j.
func runPassHost(in *SegGraph, fam minwise.Family, s, workers int, acct *cpuAccount, stats *PassStats) *SegGraph {
	stats.Lists = in.NumLists()
	stats.Elements = int64(len(in.Data))

	c := fam.Size()
	var long []int
	for i := 0; i < in.NumLists(); i++ {
		n := int(in.Offsets[i+1] - in.Offsets[i])
		if n < s {
			stats.SkippedShort++
			continue
		}
		long = append(long, i)
		acct.serialOps += int64(c) * shingleListOps(n, s)
	}
	stats.Tuples = int64(c) * int64(len(long))

	n := len(long)
	block := make([]tuple, c*n)
	tuplesByTrial := make([][]tuple, c)
	sched.ParallelFor(workers, c, func(_, j int) {
		minima := getMinima(s)
		defer putMinima(minima)
		h := fam.Pairs[j]
		ts := block[j*n : (j+1)*n : (j+1)*n]
		for k, i := range long {
			minwise.MinS(h, in.List(i), minima)
			ts[k] = tuple{key: shingleKey(uint32(j), minima), owner: in.Owner(i)}
		}
		tuplesByTrial[j] = ts
	})
	return buildShingleGraph(tuplesByTrial, workers, acct, stats)
}

// shingleListOps is the cost-model charge for shingling one list once: hash
// + compare per element, plus the occasional shift, charged as 2 ops per
// element plus s² for the seed sort.
func shingleListOps(listLen, s int) int64 {
	return int64(listLen)*2 + int64(s*s)
}

// graphDiskBytes is the size of the graph's binary on-disk representation
// (see graph.WriteBinary), used to model the Disk I/O column.
func graphDiskBytes(g *graph.Graph) int64 {
	return 20 + int64(len(g.Offsets))*8 + int64(len(g.Adj))*4
}
