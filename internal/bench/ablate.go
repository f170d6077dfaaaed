package bench

import (
	"fmt"
	"io"

	"gpclust/internal/core"
	"gpclust/internal/gos"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/mcl"
	"gpclust/internal/metrics"
	"gpclust/internal/sched"
)

// AblationRow is one configuration's outcome in an ablation sweep.
type AblationRow struct {
	Label   string
	Value   float64
	Unit    string
	Comment string
}

// AblateBatchSize sweeps the device batch budget, exercising Algorithm 2's
// partitioned processing: smaller batches mean more H2D replays, more split
// lists and more kernel launches.
func AblateBatchSize(scale float64, o core.Options, budgets []int) ([]AblationRow, error) {
	g, _ := graph.Planted(Paper20KConfig(scale))
	var rows []AblationRow
	for _, b := range budgets {
		opt := o
		opt.Plan.BudgetWords = b
		dev := gpusim.MustNew(gpusim.K20Config())
		r, err := core.ClusterGPU(g, dev, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: batch %d: %w", b, err)
		}
		var plan sched.PlanReport
		plan.Add(r.Pass1.Plan)
		plan.Add(r.Pass2.Plan)
		rows = append(rows, AblationRow{
			Label: fmt.Sprintf("batch=%d words", b),
			Value: s(r.Timings.TotalNs), Unit: "s",
			Comment: fmt.Sprintf("%d batches, %d split lists, GPU %.2fs, H2D %.2fs, sched %.2fs (predicted %.2fs)",
				r.Pass1.Batches, r.Pass1.SplitLists, s(r.Timings.GPUNs), s(r.Timings.H2DNs),
				s(plan.ActualNs), s(plan.PredictedNs)),
		})
	}
	return rows, nil
}

// AblateFullSort compares the fused top-s selection kernel with Algorithm
// 1's literal segmented-sort-then-select.
func AblateFullSort(scale float64, o core.Options) ([]AblationRow, error) {
	g, _ := graph.Planted(Paper20KConfig(scale))
	fused := o
	fused.Plan.FullSort = false
	devF := gpusim.MustNew(gpusim.K20Config())
	rf, err := core.ClusterGPU(g, devF, fused)
	if err != nil {
		return nil, err
	}
	full := o
	full.Plan.FullSort = true
	devS := gpusim.MustNew(gpusim.K20Config())
	rs, err := core.ClusterGPU(g, devS, full)
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		{"fused top-s GPU", s(rf.Timings.GPUNs), "s", "selection kernel (identical output)"},
		{"full-sort GPU", s(rs.Timings.GPUNs), "s", "Algorithm 1 literally: segmented sort + select"},
		{"sort overhead", s(rs.Timings.GPUNs - rf.Timings.GPUNs), "s", "device work saved by fusing"},
	}, nil
}

// AblateShingleParams sweeps (s, c), the knobs the paper credits for
// gpClust's higher sensitivity ("contributed by the high configurable s and
// c parameters used in our approach").
func AblateShingleParams(scale float64, base core.Options, minSize int) ([]AblationRow, error) {
	g, gt := graph.Planted(QualityConfig(scale))
	n := g.NumVertices()
	type setting struct {
		s1, c1 int
	}
	settings := []setting{{2, 25}, {2, 100}, {2, 200}, {3, 200}, {4, 200}, {1, 100}}
	var rows []AblationRow
	for _, st := range settings {
		o := base
		o.S1, o.C1 = st.s1, st.c1
		dev := gpusim.MustNew(gpusim.K20Config())
		r, err := core.ClusterGPU(g, dev, o)
		if err != nil {
			return nil, err
		}
		big := r.Clustering.ClustersOfSizeAtLeast(minSize)
		labels := metrics.LabelsFromClusters(big, n, minSize)
		c := metrics.PairConfusion(labels, gt.SuperFamily, n)
		rows = append(rows, AblationRow{
			Label: fmt.Sprintf("s1=%d c1=%d", st.s1, st.c1),
			Value: 100 * c.Sensitivity(), Unit: "% SE",
			Comment: fmt.Sprintf("PPV %.2f%%, %d clusters ≥ %d", 100*c.PPV(), len(big), minSize),
		})
	}
	return rows, nil
}

// AblateReportModes compares the union-find partition with the overlapping
// connected-component reporting (Phase III's two options).
func AblateReportModes(scale float64, o core.Options) ([]AblationRow, error) {
	g, _ := graph.Planted(Paper20KConfig(scale))
	uf := o
	uf.Mode = core.ReportUnionFind
	devU := gpusim.MustNew(gpusim.K20Config())
	ru, err := core.ClusterGPU(g, devU, uf)
	if err != nil {
		return nil, err
	}
	ov := o
	ov.Mode = core.ReportOverlapping
	devO := gpusim.MustNew(gpusim.K20Config())
	ro, err := core.ClusterGPU(g, devO, ov)
	if err != nil {
		return nil, err
	}
	covered := map[uint32]bool{}
	dupes := 0
	for _, cl := range ro.Clustering.Clusters {
		for _, v := range cl {
			if covered[v] {
				dupes++
			}
			covered[v] = true
		}
	}
	return []AblationRow{
		{"union-find clusters", float64(ru.NumClusters()), "", "strict partition (the paper's choice)"},
		{"overlapping clusters", float64(ro.NumClusters()), "", fmt.Sprintf("%d vertices appear in ≥ 2 clusters", dupes)},
	}, nil
}

// AblateGOSK sweeps the GOS baseline's fixed k, the parameter whose
// inflexibility the paper criticizes.
func AblateGOSK(scale float64, minSize int) ([]AblationRow, error) {
	g, gt := graph.Planted(QualityConfig(scale))
	n := g.NumVertices()
	var rows []AblationRow
	for _, k := range []int{3, 5, 10, 20} {
		clusters, err := gos.Cluster(g, gos.Options{K: k, RequireEdge: true})
		if err != nil {
			return nil, err
		}
		big := filterBySize(clusters, minSize)
		labels := metrics.LabelsFromClusters(big, n, minSize)
		c := metrics.PairConfusion(labels, gt.SuperFamily, n)
		rows = append(rows, AblationRow{
			Label: fmt.Sprintf("GOS k=%d", k),
			Value: 100 * c.Sensitivity(), Unit: "% SE",
			Comment: fmt.Sprintf("PPV %.2f%%, %d clusters ≥ %d", 100*c.PPV(), len(big), minSize),
		})
	}
	return rows, nil
}

// RenderAblation prints one sweep.
func RenderAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "Ablation — %s\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %10.3f %-5s %s\n", r.Label, r.Value, r.Unit, r.Comment)
	}
}

// AblateGPUAggregation measures the beyond-paper extension that moves the
// shingle-key computation and the per-trial tuple sorting to the device:
// Table I shows the CPU column dominating the accelerated pipeline, and
// this is the obvious next chunk of it to offload.
func AblateGPUAggregation(scale float64, o core.Options) ([]AblationRow, error) {
	g, _ := graph.Planted(Paper20KConfig(scale))
	devBase := gpusim.MustNew(gpusim.K20Config())
	base, err := core.ClusterGPU(g, devBase, o)
	if err != nil {
		return nil, err
	}
	agg := o
	agg.Plan.DeviceAggregate = true
	devAgg := gpusim.MustNew(gpusim.K20Config())
	ra, err := core.ClusterGPU(g, devAgg, agg)
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		{"CPU-aggregate total", s(base.Timings.TotalNs), "s", fmt.Sprintf("CPU %.2fs GPU %.2fs (the paper's division of labor)", s(base.Timings.CPUNs), s(base.Timings.GPUNs))},
		{"GPU-aggregate total", s(ra.Timings.TotalNs), "s", fmt.Sprintf("CPU %.2fs GPU %.2fs (key+sort on device)", s(ra.Timings.CPUNs), s(ra.Timings.GPUNs))},
		{"saved", s(base.Timings.TotalNs - ra.Timings.TotalNs), "s", "identical clustering output"},
	}, nil
}

// AblateHostParallel compares pClust with gpClust's sequential and
// double-buffered pipelined batch loops on one graph (virtual-clock speedup
// from transfer coalescing and overlap). The multi-core host backend runs
// too, as a check only: the cost model prices operations, not cores, so its
// virtual time is the serial row's, and its wall time belongs to gpbench.
// All four produce the identical clustering.
func AblateHostParallel(scale float64, o core.Options, workers int) ([]AblationRow, error) {
	g, _ := graph.Planted(Paper20KConfig(scale))
	rs, err := core.ClusterSerial(g, o)
	if err != nil {
		return nil, err
	}
	par := o
	par.Workers = workers
	rp, err := core.ClusterParallel(g, par)
	if err != nil {
		return nil, err
	}
	devSeq := gpusim.MustNew(gpusim.K20Config())
	rg, err := core.ClusterGPU(g, devSeq, o)
	if err != nil {
		return nil, err
	}
	pipe := o
	pipe.Plan.Lanes = 2
	devPipe := gpusim.MustNew(gpusim.K20Config())
	rpp, err := core.ClusterGPU(g, devPipe, pipe)
	if err != nil {
		return nil, err
	}
	for _, r := range []*core.Result{rp, rg, rpp} {
		if r.NumClusters() != rs.NumClusters() {
			return nil, fmt.Errorf("bench: %s backend clustering diverged (%d vs %d clusters)",
				r.Backend, r.NumClusters(), rs.NumClusters())
		}
	}
	return []AblationRow{
		{"serial host", s(rs.Timings.TotalNs), "s", "pClust reference, virtual clock"},
		{"gpClust sequential", s(rg.Timings.TotalNs), "s",
			fmt.Sprintf("virtual clock; H2D %.2fs D2H %.2fs", s(rg.Timings.H2DNs), s(rg.Timings.D2HNs))},
		{"gpClust pipelined", s(rpp.Timings.TotalNs), "s",
			fmt.Sprintf("coalesced+overlapped transfers; H2D %.2fs D2H %.2fs, saved %.2fs",
				s(rpp.Timings.H2DNs), s(rpp.Timings.D2HNs), s(rg.Timings.TotalNs-rpp.Timings.TotalNs))},
	}, nil
}

// MemoryRow is one scale point of the peak-memory study.
type MemoryRow struct {
	Scale         float64
	MPlusN        int64 // m + n of the input graph
	EPrime        int64 // |E'|: first-level shingle graph edges
	PeakHostBytes int64
	PeakDevBytes  int64
	Ratio         float64 // peak host bytes per max{m+n, |E'|}
}

// RunMemoryScaling measures peak memory across input scales, checking the
// paper's complexity claim: "The peak memory complexity of the algorithm is
// O(max{m + n, |E'|})" (Section III-B). The per-unit ratio should stay
// bounded as the input grows.
func RunMemoryScaling(scales []float64, o core.Options) ([]MemoryRow, error) {
	var rows []MemoryRow
	for _, sc := range scales {
		g, _ := graph.Planted(Paper2MConfig(sc))
		dev := gpusim.MustNew(gpusim.K20Config())
		r, err := core.ClusterGPU(g, dev, o)
		if err != nil {
			return nil, err
		}
		row := MemoryRow{
			Scale:         sc,
			MPlusN:        g.NumEdges() + int64(g.NumVertices()),
			EPrime:        r.Pass1.Tuples,
			PeakHostBytes: r.PeakHostBytes(),
			PeakDevBytes:  dev.PeakAllocated(),
		}
		unit := row.MPlusN
		if row.EPrime > unit {
			unit = row.EPrime
		}
		row.Ratio = float64(row.PeakHostBytes) / float64(unit)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderMemoryScaling prints the study.
func RenderMemoryScaling(w io.Writer, rows []MemoryRow) {
	fmt.Fprintf(w, "Peak memory vs O(max{m+n, |E'|}) — Section III-B complexity claim\n")
	fmt.Fprintf(w, "%8s %12s %12s %14s %14s %10s\n", "scale", "m+n", "|E'|", "peak host B", "peak dev B", "B/unit")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.4g %12d %12d %14d %14d %10.1f\n",
			r.Scale, r.MPlusN, r.EPrime, r.PeakHostBytes, r.PeakDevBytes, r.Ratio)
	}
}

// CompareMCL scores all three clustering methods — gpClust, the GOS
// k-neighbor linkage, and Markov Clustering (the algorithm metagenomic
// pipelines conventionally use where the paper uses Shingling) — against
// the planted benchmark. MCL is a beyond-paper baseline: the paper's
// novelty is precisely that Shingling is rare in this domain.
func CompareMCL(scale float64, o core.Options, gosOpt gos.Options, minSize int) ([]AblationRow, error) {
	if minSize <= 0 {
		minSize = MinClusterSize
	}
	g, gt := graph.Planted(QualityConfig(scale))
	n := g.NumVertices()

	score := func(name string, clusters [][]uint32) AblationRow {
		big := filterBySize(clusters, minSize)
		labels := metrics.LabelsFromClusters(big, n, minSize)
		c := metrics.PairConfusion(labels, gt.SuperFamily, n)
		mean, _ := metrics.DensityStats(g, big)
		return AblationRow{
			Label: name,
			Value: 100 * c.Sensitivity(), Unit: "% SE",
			Comment: fmt.Sprintf("PPV %.2f%%, density %.2f, %d clusters ≥ %d",
				100*c.PPV(), mean, len(big), minSize),
		}
	}

	dev := gpusim.MustNew(gpusim.K20Config())
	ours, err := core.ClusterGPU(g, dev, o)
	if err != nil {
		return nil, err
	}
	gosClusters, err := gos.Cluster(g, gosOpt)
	if err != nil {
		return nil, err
	}
	mclClusters, err := mcl.Cluster(g, mcl.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		score("gpClust (Shingling)", ours.Clustering.Clusters),
		score("GOS k-neighbor", gosClusters),
		score("MCL (TribeMCL-style)", mclClusters),
	}, nil
}
