//go:build invariants

package core

import (
	"testing"

	"gpclust/internal/gpusim"
)

// TestAssertDeviceCleanPanics pins the invariants-build behavior: a leaked
// buffer at teardown is a panic, not a silent accounting drift.
func TestAssertDeviceCleanPanics(t *testing.T) {
	d := gpusim.MustNew(gpusim.K20Config())
	d.MustMalloc(4)
	defer func() {
		if recover() == nil {
			t.Fatal("assertDeviceClean did not panic on a leaked buffer")
		}
	}()
	assertDeviceClean(d)
}

// TestInvariantsGPUSweep drives every GPU pipeline variant under the
// invariants build: each run ends in assertDeviceClean, so any allocation
// without a Free reachable on the taken path fails here.
func TestInvariantsGPUSweep(t *testing.T) {
	g, _ := plantedTestGraph(400, 7)
	variants := []struct {
		name string
		mod  func(*Options)
	}{
		{"sync", func(o *Options) {}},
		{"pipeline", func(o *Options) { o.Plan.Lanes = 2 }},
		{"gpuagg", func(o *Options) { o.Plan.DeviceAggregate = true }},
		{"gpuagg pipeline", func(o *Options) { o.Plan.DeviceAggregate, o.Plan.Lanes = true, 2 }},
		{"smallbatch", func(o *Options) { o.Plan.BudgetWords = 4096 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			o := testOptions()
			v.mod(&o)
			dev := gpusim.MustNew(gpusim.K20Config())
			if _, err := ClusterGPU(g, dev, o); err != nil {
				t.Fatalf("ClusterGPU(%s): %v", v.name, err)
			}
		})
	}
}
