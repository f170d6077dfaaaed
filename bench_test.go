// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section IV). Each benchmark runs the corresponding experiment at a
// CI-friendly scale and reports the reproduced quantities as custom metrics
// (speedups, sensitivities, densities), so `go test -bench=. -benchmem`
// doubles as a results sheet. cmd/experiments runs the same experiments at
// larger scales with full rendering.
package gpclust_test

import (
	"testing"

	"gpclust/internal/bench"
	"gpclust/internal/core"
	"gpclust/internal/gos"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
)

// benchOptions trims the trial counts so a single benchmark iteration stays
// in seconds; cmd/experiments uses the paper's c1=200/c2=100.
func benchOptions() core.Options {
	o := core.DefaultOptions()
	o.C1, o.C2 = 50, 25
	return o
}

// BenchmarkTable1_20KGraph reproduces Table I's 20K-sequence row: serial
// pClust vs gpClust on the 20K-shaped similarity graph.
func BenchmarkTable1_20KGraph(b *testing.B) {
	o := benchOptions()
	o.Plan.FullSort = true // the paper's literal Algorithm 1 implementation
	g, _ := graph.Planted(bench.Paper20KConfig(0.5))
	b.ResetTimer()
	var row *bench.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = bench.RunTable1Row("20K", g, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.TotalSpeedup, "total-speedup-X")
	b.ReportMetric(row.GPUSpeedup, "gpu-speedup-X")
	b.ReportMetric(row.GPU.Timings.GPUNs/1e9, "gpu-sec")
	b.ReportMetric(row.Serial.Timings.TotalNs/1e9, "serial-sec")
}

// BenchmarkTable1_2MGraph reproduces Table I's 2M-sequence row at 1/100
// scale; the GPU-part speedup grows with workload exactly as the paper's
// 44.86X → 373.71X progression (the occupancy effect of Section IV-C).
func BenchmarkTable1_2MGraph(b *testing.B) {
	o := benchOptions()
	o.Plan.FullSort = true
	g, _ := graph.Planted(bench.Paper2MConfig(0.01))
	b.ResetTimer()
	var row *bench.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = bench.RunTable1Row("2M", g, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.TotalSpeedup, "total-speedup-X")
	b.ReportMetric(row.GPUSpeedup, "gpu-speedup-X")
	b.ReportMetric(row.GPU.Timings.D2HNs/1e9, "d2h-sec")
}

// BenchmarkTable2_GraphStats reproduces Table II: building and measuring
// the 2M-shaped input similarity graph.
func BenchmarkTable2_GraphStats(b *testing.B) {
	var st graph.Stats
	for i := 0; i < b.N; i++ {
		st = bench.RunTable2(0.01)
	}
	b.ReportMetric(st.AvgDegree, "avg-degree")
	b.ReportMetric(st.StdDegree, "std-degree")
	b.ReportMetric(float64(st.LargestCC), "largest-cc")
}

func runQualityBench(b *testing.B, scale float64) *bench.QualityResult {
	b.Helper()
	var q *bench.QualityResult
	for i := 0; i < b.N; i++ {
		var err error
		q, err = bench.RunQuality(scale, bench.QualityOptions(), gos.DefaultOptions(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	return q
}

// BenchmarkTable3_Quality reproduces Table III: PPV/NPV/SP/SE of gpClust and
// the GOS k-neighbor baseline against the planted benchmark families.
func BenchmarkTable3_Quality(b *testing.B) {
	q := runQualityBench(b, 0.005)
	b.ReportMetric(100*q.GPClust.PPV(), "gpclust-PPV-%")
	b.ReportMetric(100*q.GPClust.Sensitivity(), "gpclust-SE-%")
	b.ReportMetric(100*q.GOS.PPV(), "gos-PPV-%")
	b.ReportMetric(100*q.GOS.Sensitivity(), "gos-SE-%")
}

// BenchmarkTable4_Partitions reproduces Table IV: partition statistics and
// cluster densities for benchmark, GOS and gpClust.
func BenchmarkTable4_Partitions(b *testing.B) {
	q := runQualityBench(b, 0.005)
	b.ReportMetric(float64(q.GPClustStats.Groups), "gpclust-groups")
	b.ReportMetric(float64(q.GOSStats.Groups), "gos-groups")
	b.ReportMetric(float64(q.BenchStats.Groups), "bench-groups")
	b.ReportMetric(q.GPClustDensity, "gpclust-density")
	b.ReportMetric(q.GOSDensity, "gos-density")
	b.ReportMetric(q.BenchDensity, "bench-density")
}

// BenchmarkFig5a_GroupSizeDist reproduces Figure 5(a): the group-size
// histograms of the two partitions.
func BenchmarkFig5a_GroupSizeDist(b *testing.B) {
	q := runQualityBench(b, 0.005)
	total := 0
	for _, c := range q.GroupHistGPClust {
		total += c
	}
	b.ReportMetric(float64(total), "gpclust-groups≥20")
	total = 0
	for _, c := range q.GroupHistGOS {
		total += c
	}
	b.ReportMetric(float64(total), "gos-groups≥20")
}

// BenchmarkFig5b_SeqDist reproduces Figure 5(b): the per-bin sequence
// counts of the two partitions.
func BenchmarkFig5b_SeqDist(b *testing.B) {
	q := runQualityBench(b, 0.005)
	var total int64
	for _, c := range q.SeqHistGPClust {
		total += c
	}
	b.ReportMetric(float64(total), "gpclust-seqs")
	total = 0
	for _, c := range q.SeqHistGOS {
		total += c
	}
	b.ReportMetric(float64(total), "gos-seqs")
}

// BenchmarkLargeScale_PacificOcean reproduces the headline demonstration:
// the 11M-vertex / 640M-edge Pacific Ocean graph (scaled), "in about 94
// minutes".
func BenchmarkLargeScale_PacificOcean(b *testing.B) {
	o := benchOptions()
	o.Plan.FullSort = true
	var r *bench.LargeScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.RunLargeScale(0.001, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Minutes, "virtual-minutes")
	b.ReportMetric(float64(r.Stats.Edges), "edges")
}

// BenchmarkAblation_BatchSize sweeps Algorithm 2's device batch budget.
func BenchmarkAblation_BatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblateBatchSize(0.1, benchOptions(), []int{0, 100_000, 20_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_FullSort compares the fused top-s kernel with the
// literal segmented-sort-then-select of Algorithm 1.
func BenchmarkAblation_FullSort(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.AblateFullSort(0.1, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Value, "fused-gpu-sec")
	b.ReportMetric(rows[1].Value, "fullsort-gpu-sec")
}

// BenchmarkAblation_ShingleParams sweeps (s1, c1), the sensitivity knobs of
// Section IV-D.
func BenchmarkAblation_ShingleParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblateShingleParams(0.002, bench.QualityOptions(), 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ReportModes compares Phase III's two reporting options.
func BenchmarkAblation_ReportModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblateReportModes(0.1, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_GOSK sweeps the GOS baseline's fixed k.
func BenchmarkAblation_GOSK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblateGOSK(0.002, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClusterHost measures a host backend's real wall time and allocations
// on the 20K-scale graph (workers = 0 selects the serial backend).
func benchClusterHost(b *testing.B, workers int) {
	o := benchOptions()
	g, _ := graph.Planted(bench.Paper20KConfig(0.5))
	b.ReportAllocs()
	b.ResetTimer()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		if workers == 0 {
			res, err = core.ClusterSerial(g, o)
		} else {
			o.Workers = workers
			res, err = core.ClusterParallel(g, o)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Wall.TotalNs)/1e6, "wall-ms")
	b.ReportMetric(float64(res.NumClusters()), "clusters")
}

// BenchmarkClusterSerial_20K is the single-core host baseline for the
// ClusterParallel benchmarks below; b.N wall time is the comparison metric.
func BenchmarkClusterSerial_20K(b *testing.B) { benchClusterHost(b, 0) }

// BenchmarkClusterParallel_* runs the multi-core host backend at several
// pool sizes. On a multi-core machine wall time must drop vs the serial
// baseline from 2 workers up; allocs/op stays flat as workers grow, since
// each pass's tuple streams are one exactly sized block whatever the pool
// size and the minima and radix scratch come from sync.Pools.
func BenchmarkClusterParallel_W1(b *testing.B) { benchClusterHost(b, 1) }
func BenchmarkClusterParallel_W2(b *testing.B) { benchClusterHost(b, 2) }
func BenchmarkClusterParallel_W4(b *testing.B) { benchClusterHost(b, 4) }
func BenchmarkClusterParallel_W8(b *testing.B) { benchClusterHost(b, 8) }

// BenchmarkGPU_PipelinedVsSequentialBatches compares the strictly
// sequential batch loop with the double-buffered pipelined loop on a
// multi-batch plan; the virtual-clock totals are reported as metrics and
// the pipelined one must be lower (transfer coalescing + overlap).
func BenchmarkGPU_PipelinedVsSequentialBatches(b *testing.B) {
	o := benchOptions()
	o.Plan.BudgetWords = 20_000 // force several batches at this scale
	g, _ := graph.Planted(bench.Paper20KConfig(0.5))
	b.ReportAllocs()
	b.ResetTimer()
	var seq, pipe *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		seq, err = core.ClusterGPU(g, gpusim.MustNew(gpusim.K20Config()), o)
		if err != nil {
			b.Fatal(err)
		}
		op := o
		op.Plan.Lanes = 2
		pipe, err = core.ClusterGPU(g, gpusim.MustNew(gpusim.K20Config()), op)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(seq.Timings.TotalNs/1e9, "seq-virtual-sec")
	b.ReportMetric(pipe.Timings.TotalNs/1e9, "pipelined-virtual-sec")
	b.ReportMetric((seq.Timings.TotalNs-pipe.Timings.TotalNs)/1e9, "saved-virtual-sec")
	if pipe.Timings.TotalNs >= seq.Timings.TotalNs {
		b.Fatalf("pipelined virtual total %.2fs not below sequential %.2fs",
			pipe.Timings.TotalNs/1e9, seq.Timings.TotalNs/1e9)
	}
}

// BenchmarkAblation_HostParallel runs the execution-strategy comparison
// (serial, sequential gpClust, pipelined gpClust; the parallel host backend
// runs as an equality check).
func BenchmarkAblation_HostParallel(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.AblateHostParallel(0.1, benchOptions(), 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Value, "serial-virtual-sec")
	b.ReportMetric(rows[1].Value, "gpu-seq-virtual-sec")
	b.ReportMetric(rows[2].Value, "gpu-pipelined-virtual-sec")
}

// BenchmarkAblation_GPUAggregation measures the beyond-paper extension that
// moves shingle-key computation and tuple sorting onto the device.
func BenchmarkAblation_GPUAggregation(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.AblateGPUAggregation(0.1, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Value, "cpu-agg-sec")
	b.ReportMetric(rows[1].Value, "gpu-agg-sec")
}
