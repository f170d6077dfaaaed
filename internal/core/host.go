package core

import (
	"gpclust/internal/graph"
	"gpclust/internal/minwise"
	"gpclust/internal/obs"
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
// the trial-parallel work of each pass spread over workers goroutines. The
// pools join before their work is charged to the run's one ledger, so the
// virtual clock is the same for every worker count.
func clusterHost(g *graph.Graph, o Options, backend string, workers int) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	fam1, fam2 := o.families()
	led := sched.NewLedger(nil, o.Obs)
	res := &Result{Backend: backend}

	// Disk I/O: loading the graph from its binary on-disk form.
	ph := led.Phase(obs.NameRead)
	led.Charge(obs.NameRead, graphDiskNs(g))
	led.EndPhase(ph)

	sw := sched.NewStopwatch()
	in := FromGraph(g)
	ph = led.Phase("shingle-pass1")
	gi := runPassHost(in, fam1, o.S1, workers, led, &res.Pass1)
	led.EndPhase(ph)
	res.Pass1.Batches = 1
	res.Wall.Pass1Ns = sw.Lap()

	ph = led.Phase("shingle-pass2")
	pass2In := gi.filterMinLen(o.S2)
	res.Pass1.SharedLists = pass2In.NumLists()
	gii := runPassHost(pass2In, fam2, o.S2, workers, led, &res.Pass2)
	led.EndPhase(ph)
	res.Pass2.Batches = 1
	res.Wall.Pass2Ns = sw.Lap()

	ph = led.Phase("report")
	var ops int64
	res.Clustering, ops = reportClusters(g.NumVertices(), gi, gii, o.Mode)
	led.Charge("report", float64(ops)*ReportNsPerOp)
	led.EndPhase(ph)
	res.Wall.ReportNs = sw.Lap()
	res.Wall.TotalNs = sw.Total()

	res.Timings = hostTimings(led)
	recordRunMetrics(o.Obs, res)
	return res, nil
}

// hostTimings is a host-only run's Timings: the ledger's columns, and their
// sum as the total.
func hostTimings(led *sched.Ledger) Timings {
	sp := led.Split()
	return Timings{ShingleNs: sp.ShingleNs, CPUNs: sp.CPUNs, DiskIONs: sp.DiskIONs,
		TotalNs: sp.ShingleNs + sp.CPUNs + sp.DiskIONs}
}

// runPassHost generates c shingles for every list of at least s elements
// and groups them into the next-level shingle graph. The top-s selection is
// the paper's "on-the-fly enumeration of Γ_j(u) ... keeping track of an
// s-sized array that records the minimum s elements ... through a simple
// insertion sort". Every long list emits exactly one tuple per trial, so
// the c per-trial streams are windows of one exactly sized block; trial j's
// stream is filled in list order by whichever worker claims j. The
// shingling and the aggregation are charged to led.
func runPassHost(in *SegGraph, fam minwise.Family, s, workers int, led *sched.Ledger, stats *PassStats) *SegGraph {
	stats.Lists = in.NumLists()
	stats.Elements = int64(len(in.Data))

	c := fam.Size()
	var long []int
	var shingleOps int64
	for i := 0; i < in.NumLists(); i++ {
		n := int(in.Offsets[i+1] - in.Offsets[i])
		if n < s {
			stats.SkippedShort++
			continue
		}
		long = append(long, i)
		shingleOps += int64(c) * shingleListOps(n, s)
	}
	led.Charge(obs.NameShingle, float64(shingleOps)*SerialShingleNsPerOp)
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
	out, aggOps := buildShingleGraph(tuplesByTrial, workers, stats)
	led.Charge("aggregate", float64(aggOps)*AggregateNsPerOp)
	return out
}

// shingleListOps is the cost-model charge for shingling one list once: hash
// + compare per element, plus the occasional shift, charged as 2 ops per
// element plus s² for the seed sort.
func shingleListOps(listLen, s int) int64 {
	return int64(listLen)*2 + int64(s*s)
}

// graphDiskNs prices loading the graph's binary on-disk representation
// (see graph.WriteBinary) at DiskBytesPerSec: the Disk I/O column.
func graphDiskNs(g *graph.Graph) float64 {
	bytes := 20 + int64(len(g.Offsets))*8 + int64(len(g.Adj))*4
	return float64(bytes) / DiskBytesPerSec * 1e9
}
