package core

import (
	"reflect"
	"testing"

	"gpclust/internal/gpusim"
)

func TestGPUAggregateMatchesSerial(t *testing.T) {
	g, _ := plantedTestGraph(500, 61)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	o.GPUAggregate = true
	dev := gpusim.MustNew(gpusim.K20Config())
	gpu, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
		t.Fatal("GPU-aggregated clustering differs from serial")
	}
	if serial.Pass1.Tuples != gpu.Pass1.Tuples || serial.Pass2.Tuples != gpu.Pass2.Tuples {
		t.Fatalf("tuple counts differ: %d/%d vs %d/%d",
			gpu.Pass1.Tuples, gpu.Pass2.Tuples, serial.Pass1.Tuples, serial.Pass2.Tuples)
	}
	if dev.AllocatedBuffers() != 0 {
		t.Fatalf("%d device buffers leaked", dev.AllocatedBuffers())
	}
}

func TestGPUAggregateAcrossBatchesWithSplits(t *testing.T) {
	g, _ := plantedTestGraph(400, 67)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	o.GPUAggregate = true
	for _, batchWords := range []int{5_000, 700, 24} {
		o.BatchWords = batchWords
		dev := gpusim.MustNew(gpusim.K20Config())
		gpu, err := ClusterGPU(g, dev, o)
		if err != nil {
			t.Fatalf("BatchWords=%d: %v", batchWords, err)
		}
		if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
			t.Fatalf("BatchWords=%d: GPU-aggregated clustering differs (batches=%d splits=%d)",
				batchWords, gpu.Pass1.Batches, gpu.Pass1.SplitLists)
		}
	}
}

func TestGPUAggregateReducesCPUTime(t *testing.T) {
	g, _ := plantedTestGraph(2000, 71)
	o := testOptions()
	devBase := gpusim.MustNew(gpusim.K20Config())
	base, err := ClusterGPU(g, devBase, o)
	if err != nil {
		t.Fatal(err)
	}
	o.GPUAggregate = true
	devAgg := gpusim.MustNew(gpusim.K20Config())
	agg, err := ClusterGPU(g, devAgg, o)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Timings.CPUNs >= base.Timings.CPUNs {
		t.Fatalf("GPU aggregation did not reduce CPU time: %.2fms vs %.2fms",
			agg.Timings.CPUNs/1e6, base.Timings.CPUNs/1e6)
	}
	// The device does more work instead.
	if agg.Timings.GPUNs <= base.Timings.GPUNs {
		t.Fatalf("GPU aggregation did not increase device time: %.2fms vs %.2fms",
			agg.Timings.GPUNs/1e6, base.Timings.GPUNs/1e6)
	}
}

// TestGPUAggregateFullSortMatchesSerial: device aggregation is a per-trial
// step after whichever trial kernels the plan runs, so it composes with
// Algorithm 1's full sort, sequential or pipelined, across batch sizes that
// split lists.
func TestGPUAggregateFullSortMatchesSerial(t *testing.T) {
	o := testOptions()
	o.GPUAggregate = true
	o.UseFullSort = true
	checkGPUAggregatePlans(t, o)
	o.PipelineBatches = true
	checkGPUAggregatePlans(t, o)
}

// checkGPUAggregatePlans runs the options on one batch and on a budget
// that splits lists across batches, and requires the serial partition, the
// serial tuple counts and a clean device every time.
func checkGPUAggregatePlans(t *testing.T, o Options) {
	t.Helper()
	g := plantedHubGraph()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, batchWords := range []int{0, 2_000} {
		o.BatchWords = batchWords
		dev := gpusim.MustNew(gpusim.K20Config())
		gpu, err := ClusterGPU(g, dev, o)
		if err != nil {
			t.Fatalf("BatchWords=%d: %v", batchWords, err)
		}
		if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
			t.Fatalf("BatchWords=%d: clustering differs from serial (batches=%d splits=%d)",
				batchWords, gpu.Pass1.Batches, gpu.Pass1.SplitLists)
		}
		if gpu.Pass1.Tuples != serial.Pass1.Tuples || gpu.Pass2.Tuples != serial.Pass2.Tuples {
			t.Fatalf("BatchWords=%d: tuple counts %d/%d, serial %d/%d", batchWords,
				gpu.Pass1.Tuples, gpu.Pass2.Tuples, serial.Pass1.Tuples, serial.Pass2.Tuples)
		}
		if batchWords == 2_000 && gpu.Pass1.SplitLists == 0 {
			t.Fatal("the 2,000-word budget split no lists; the split-list merge is untested")
		}
		if dev.AllocatedBuffers() != 0 {
			t.Fatalf("BatchWords=%d: %d device buffers leaked", batchWords, dev.AllocatedBuffers())
		}
	}
}

func TestMergeSortedStreams(t *testing.T) {
	a := []tuple{{1, 1}, {3, 2}, {5, 0}}
	b := []tuple{{2, 9}, {3, 1}, {9, 9}}
	res := []tuple{{4, 4}, {0, 0}} // unsorted residue
	out, ops := mergeSortedStreams([][]tuple{a, b}, res)
	want := []tuple{{0, 0}, {1, 1}, {2, 9}, {3, 1}, {3, 2}, {4, 4}, {5, 0}, {9, 9}}
	if len(out) != len(want) || ops != int64(len(want)) {
		t.Fatalf("merged %d tuples in %d ops, want %d", len(out), ops, len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, out[i], want[i])
		}
	}
	if got, _ := mergeSortedStreams(nil, nil); len(got) != 0 {
		t.Fatal("empty merge not empty")
	}
	if got, _ := mergeSortedStreams([][]tuple{a}, nil); len(got) != 3 {
		t.Fatal("single-stream merge wrong")
	}
}
