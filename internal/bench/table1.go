package bench

import (
	"fmt"
	"io"

	"gpclust/internal/core"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/obs"
)

// Table1Row is one input graph's row of Table I: the serial runtime and the
// gpClust component breakdown, with the two speedups the paper reports.
type Table1Row struct {
	Name   string
	Stats  graph.Stats
	Serial *core.Result
	GPU    *core.Result

	// TotalSpeedup is serial total / gpClust total (Table I: 5.88 for the
	// 20K graph, 7.18 for the 2M graph).
	TotalSpeedup float64
	// GPUSpeedup is the speedup of the accelerated part: serial shingling
	// time / GPU kernel time (Table I: 44.86 and 373.71).
	GPUSpeedup float64

	// Obs and Timeline retain the GPU run's recorder and device trace so
	// callers (cmd/experiments -trace) can export the merged timeline.
	Obs      *obs.Recorder
	Timeline obs.DeviceTimeline
}

// RunTable1Row runs both backends on one input graph.
func RunTable1Row(name string, g *graph.Graph, o core.Options) (*Table1Row, error) {
	row := &Table1Row{Name: name, Stats: graph.ComputeStats(g)}
	var err error
	row.Serial, err = core.ClusterSerial(g, o)
	if err != nil {
		return nil, fmt.Errorf("bench: serial run of %s: %w", name, err)
	}
	dev := gpusim.MustNew(gpusim.K20Config())
	dev.EnableTracing()
	rec := obs.New()
	oGPU := o
	oGPU.Obs = rec // private recorder: keeps the caller's (if any) serial-only
	row.GPU, err = core.ClusterGPU(g, dev, oGPU)
	if err != nil {
		return nil, fmt.Errorf("bench: gpu run of %s: %w", name, err)
	}
	row.Obs = rec
	row.Timeline = obs.DeviceTimeline{Name: "device0", Events: dev.Trace()}
	if row.GPU.Timings.TotalNs > 0 {
		row.TotalSpeedup = row.Serial.Timings.TotalNs / row.GPU.Timings.TotalNs
	}
	if row.GPU.Timings.GPUNs > 0 {
		row.GPUSpeedup = row.Serial.Timings.ShingleNs / row.GPU.Timings.GPUNs
	}
	return row, nil
}

// RunTable1 reproduces Table I: the 20K-shaped and 2M-shaped graphs, serial
// vs gpClust, at the given scale of the paper's sizes. The GPU side runs
// Algorithm 1 literally (per-trial segmented sort, UseFullSort) because that
// is what the paper's Thrust implementation does; the fused top-s selection
// kernel is this repository's improvement and is quantified separately in
// the ablations.
func RunTable1(scale20K, scale2M float64, o core.Options) ([]*Table1Row, error) {
	o.UseFullSort = true
	g20, _ := graph.Planted(Paper20KConfig(scale20K))
	row20, err := RunTable1Row("20K", g20, o)
	if err != nil {
		return nil, err
	}
	g2m, _ := graph.Planted(Paper2MConfig(scale2M))
	row2m, err := RunTable1Row("2M", g2m, o)
	if err != nil {
		return nil, err
	}
	return []*Table1Row{row20, row2m}, nil
}

// RenderTable1 prints rows in the layout of Table I.
func RenderTable1(w io.Writer, rows []*Table1Row) {
	fmt.Fprintf(w, "Table I — serial runtime and gpClust component breakdown (seconds, virtual clock)\n")
	fmt.Fprintf(w, "%-6s %12s %12s | %10s %10s %10s %10s %10s %10s | %12s | %8s %8s\n",
		"graph", "#vertices", "#edges",
		"CPU", "GPU", "Data_c>g", "Data_g>c", "DiskIO", "Total", "Serial", "TotSpd", "GPUSpd")
	for _, r := range rows {
		t := r.GPU.Timings
		fmt.Fprintf(w, "%-6s %12d %12d | %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f | %12.2f | %7.2fX %7.2fX\n",
			r.Name, r.Stats.NonSingletons, r.Stats.Edges,
			s(t.CPUNs), s(t.GPUNs), s(t.H2DNs), s(t.D2HNs), s(t.DiskIONs), s(t.TotalNs),
			s(r.Serial.Timings.TotalNs), r.TotalSpeedup, r.GPUSpeedup)
	}
	fmt.Fprintf(w, "paper: 20K -> CPU 52.70 GPU 7.57 c>g 1.26 g>c 4.82 IO 0.40 total 66.75 serial 392.32 (5.88X, 44.86X)\n")
	fmt.Fprintf(w, "paper: 2M  -> CPU 2685.06 GPU 447.97 c>g 5.99 g>c 108.19 IO 28.77 total 3275.98 serial 23537.80 (7.18X, 373.71X)\n")
}

// RunTable2 reproduces Table II: the input-graph statistics of the
// 2M-sequence similarity graph.
func RunTable2(scale float64) graph.Stats {
	g, _ := graph.Planted(Paper2MConfig(scale))
	return graph.ComputeStats(g)
}

// RenderTable2 prints the Table II row next to the paper's.
func RenderTable2(w io.Writer, st graph.Stats, scale float64) {
	fmt.Fprintf(w, "Table II — input graph statistics (scale %.4g of the paper's 2M)\n", scale)
	fmt.Fprintf(w, "%12s %12s %12s %12s\n", "#vertices", "#edges", "avg degree", "largest CC")
	fmt.Fprintf(w, "%12d %12d %7.0f±%-4.0f %12d\n",
		st.NonSingletons, st.Edges, st.AvgDegree, st.StdDegree, st.LargestCC)
	fmt.Fprintf(w, "paper (full scale): 1,562,984 vertices, 56,919,738 edges, 73±153, largest CC 10,707\n")
}

// s converts simulated ns to seconds.
func s(ns float64) float64 { return ns / 1e9 }
