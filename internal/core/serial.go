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
	if err := o.Validate(); err != nil {
		return nil, err
	}
	fam1, fam2 := o.families()
	acct := &cpuAccount{}
	res := &Result{Backend: "serial"}

	// Disk I/O: loading the graph from its binary on-disk form.
	acct.diskBytes = graphDiskBytes(g)

	sw := sched.NewStopwatch()
	in := FromGraph(g)
	gi := runPassSerial(in, fam1, o.S1, acct, &res.Pass1)
	res.Pass1.Batches = 1
	res.Wall.Pass1Ns = sw.Lap()
	s1, a1 := acct.serialNs(), acct.aggNs()

	pass2In := gi.filterMinLen(o.S2)
	res.Pass1.SharedLists = pass2In.NumLists()
	gii := runPassSerial(pass2In, fam2, o.S2, acct, &res.Pass2)
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

// runPassSerial generates c shingles for every list of at least s elements
// and groups them into the next-level shingle graph. The top-s selection is
// the paper's "on-the-fly enumeration of Γ_j(u) ... keeping track of an
// s-sized array that records the minimum s elements ... through a simple
// insertion sort".
func runPassSerial(in *SegGraph, fam minwise.Family, s int, acct *cpuAccount, stats *PassStats) *SegGraph {
	stats.Lists = in.NumLists()
	stats.Elements = int64(len(in.Data))

	tuplesByTrial := make([][]tuple, fam.Size())
	minima := getMinima(s)
	defer putMinima(minima)
	for i := 0; i < in.NumLists(); i++ {
		lst := in.List(i)
		if len(lst) < s {
			stats.SkippedShort++
			continue
		}
		owner := in.Owner(i)
		for j, h := range fam.Pairs {
			minwise.MinS(h, lst, minima)
			acct.serialOps += shingleListOps(len(lst), s)
			tuplesByTrial[j] = append(tuplesByTrial[j], tuple{
				key:   shingleKey(uint32(j), minima),
				owner: owner,
			})
			stats.Tuples++
		}
	}
	return buildShingleGraph(tuplesByTrial, 1, acct, stats)
}

// shingleListOps is the cost-model charge for shingling one list once: hash
// + compare per element, plus the occasional shift, charged as 2 ops per
// element plus s² for the seed sort. The serial and parallel backends share
// it so their virtual accounts price identical work identically.
func shingleListOps(listLen, s int) int64 {
	return int64(listLen)*2 + int64(s*s)
}

// graphDiskBytes is the size of the graph's binary on-disk representation
// (see graph.WriteBinary), used to model the Disk I/O column.
func graphDiskBytes(g *graph.Graph) int64 {
	return 20 + int64(len(g.Offsets))*8 + int64(len(g.Adj))*4
}
