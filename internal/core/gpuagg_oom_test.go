package core

import (
	"reflect"
	"testing"

	"gpclust/internal/gpusim"
)

func TestGPUAggregateOnTinyDevice(t *testing.T) {
	g, _ := plantedTestGraph(800, 97)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Plan.DeviceAggregate = true
	cfg := gpusim.SmallConfig()
	cfg.GlobalMemBytes = 48 << 10 // 12K words: forces many batches
	dev := gpusim.MustNew(cfg)
	gpu, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Pass1.Batches < 2 {
		t.Fatalf("tiny device used %d batches", gpu.Pass1.Batches)
	}
	if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
		t.Fatal("tiny-device GPU-agg clustering differs from serial")
	}
	if dev.AllocatedBuffers() != 0 {
		t.Fatalf("%d buffers leaked", dev.AllocatedBuffers())
	}
}
