package core

import (
	"reflect"
	"testing"

	"gpclust/internal/gpusim"
)

func TestPipelinedMatchesSerialAcrossBatchSizes(t *testing.T) {
	g, _ := plantedTestGraph(400, 73)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Plan.Lanes = 2
	for _, batchWords := range []int{0, 50_000, 5_000, 700, 24} {
		o.Plan.BudgetWords = batchWords
		dev := gpusim.MustNew(gpusim.K20Config())
		gpu, err := ClusterGPU(g, dev, o)
		if err != nil {
			t.Fatalf("budget=%d: %v", batchWords, err)
		}
		if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
			t.Fatalf("budget=%d: pipelined clustering differs from serial (batches=%d splits=%d)",
				batchWords, gpu.Pass1.Batches, gpu.Pass1.SplitLists)
		}
		if gpu.Pass1.Tuples != serial.Pass1.Tuples {
			t.Fatalf("budget=%d: tuple count differs", batchWords)
		}
		if batchWords == 24 && gpu.Pass1.SplitLists == 0 {
			t.Fatal("tiny batches produced no split lists; pipelined split-merge untested")
		}
		if dev.AllocatedBuffers() != 0 {
			t.Fatalf("budget=%d: %d device buffers leaked", batchWords, dev.AllocatedBuffers())
		}
	}
}

func TestPipelinedReducesVirtualTime(t *testing.T) {
	g, _ := plantedTestGraph(800, 79)
	o := testOptions()
	o.Plan.BudgetWords = 6_000 // force a multi-batch plan so cross-batch overlap matters

	devSeq := gpusim.MustNew(gpusim.K20Config())
	seq, err := ClusterGPU(g, devSeq, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Plan.Lanes = 2
	devPipe := gpusim.MustNew(gpusim.K20Config())
	pipe, err := ClusterGPU(g, devPipe, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Clustering, pipe.Clustering) {
		t.Fatal("pipelined clustering differs from sequential")
	}
	if seq.Pass1.Batches < 2 {
		t.Fatalf("only %d batch(es); pipeline test needs several", seq.Pass1.Batches)
	}
	if pipe.Timings.TotalNs >= seq.Timings.TotalNs {
		t.Fatalf("pipelined total %.2fms not below sequential %.2fms",
			pipe.Timings.TotalNs/1e6, seq.Timings.TotalNs/1e6)
	}
	// Transfer overlap must be visible in the breakdown: the engines'
	// summed busy time exceeds the end-to-end pipelined time.
	tp := pipe.Timings
	summed := tp.CPUNs + tp.GPUNs + tp.H2DNs + tp.D2HNs + tp.DiskIONs
	if summed <= tp.TotalNs {
		t.Fatalf("no overlap visible: components sum to %.2fms, total %.2fms",
			summed/1e6, tp.TotalNs/1e6)
	}
}

func TestPipelinedSingleBatchStillOverlapsTrials(t *testing.T) {
	// Even with one batch the pipelined path enqueues all trials on a
	// stream, so it must still match and not regress the sequential time.
	g, _ := plantedTestGraph(300, 83)
	o := testOptions()
	devSeq := gpusim.MustNew(gpusim.K20Config())
	seq, err := ClusterGPU(g, devSeq, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Plan.Lanes = 2
	devPipe := gpusim.MustNew(gpusim.K20Config())
	pipe, err := ClusterGPU(g, devPipe, o)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Pass1.Batches != 1 || pipe.Pass1.Batches != 1 {
		t.Fatalf("expected single-batch plans, got %d/%d", seq.Pass1.Batches, pipe.Pass1.Batches)
	}
	if !reflect.DeepEqual(seq.Clustering, pipe.Clustering) {
		t.Fatal("single-batch pipelined clustering differs")
	}
	if pipe.Timings.TotalNs >= seq.Timings.TotalNs {
		t.Fatalf("pipelined total %.2fms not below sequential %.2fms",
			pipe.Timings.TotalNs/1e6, seq.Timings.TotalNs/1e6)
	}
}

func TestPipelinedFullSort(t *testing.T) {
	g, _ := plantedTestGraph(300, 89)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Plan.Lanes = 2
	o.Plan.FullSort = true
	o.Plan.BudgetWords = 4_000
	dev := gpusim.MustNew(gpusim.K20Config())
	gpu, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
		t.Fatal("pipelined full-sort clustering differs from serial")
	}
}

func TestPipelinedSmallDevice(t *testing.T) {
	// The derived budget must leave room for both lanes on a tiny device.
	g, _ := plantedTestGraph(800, 97)
	o := testOptions()
	o.Plan.Lanes = 2
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpusim.SmallConfig()
	cfg.GlobalMemBytes = 32 << 10
	dev := gpusim.MustNew(cfg)
	gpu, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Pass1.Batches < 2 {
		t.Fatalf("tiny device used %d batch(es)", gpu.Pass1.Batches)
	}
	if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
		t.Fatal("pipelined tiny-device clustering differs from serial")
	}
}

// TestPipelinedGPUAggregateMatchesSerial: device aggregation runs as a
// per-trial step on each lane, so the pipelined plan gives the serial
// partition across batch sizes that split lists.
func TestPipelinedGPUAggregateMatchesSerial(t *testing.T) {
	o := testOptions()
	o.Plan.DeviceAggregate = true
	o.Plan.Lanes = 2
	checkGPUAggregatePlans(t, o)
}
