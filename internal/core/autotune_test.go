package core

import (
	"reflect"
	"testing"

	"gpclust/internal/gpusim"
	"gpclust/internal/sched"
)

func checkPlan(t *testing.T, label string, p sched.PlanReport, wantAuto bool) {
	t.Helper()
	if p.AutoTuned != wantAuto {
		t.Fatalf("%s: AutoTuned=%v, want %v (%s)", label, p.AutoTuned, wantAuto, p.String())
	}
	if p.BudgetWords <= 0 || p.Lanes <= 0 || p.Batches <= 0 {
		t.Fatalf("%s: degenerate plan %s", label, p.String())
	}
	if p.PredictedNs <= 0 {
		t.Fatalf("%s: no cost prediction recorded: %s", label, p.String())
	}
	if p.ActualNs <= 0 {
		t.Fatalf("%s: no scheduler window measured: %s", label, p.String())
	}
	if d := p.DriftFrac(); d > 0.25 {
		t.Fatalf("%s: cost-model drift %.0f%% exceeds the 25%% gate (%s)",
			label, d*100, p.String())
	}
}

// TestAutoTuneMatchesSerial is the headline contract of -batch auto: the
// tuner only moves virtual time, never the clustering.
func TestAutoTuneMatchesSerial(t *testing.T) {
	g, _ := plantedTestGraph(400, 73)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	o.AutoTune = true
	dev := gpusim.MustNew(gpusim.K20Config())
	gpu, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
		t.Fatal("auto-tuned clustering differs from serial")
	}
	checkPlan(t, "pass1", gpu.Pass1.Plan, true)
	checkPlan(t, "pass2", gpu.Pass2.Plan, true)
	if dev.AllocatedBuffers() != 0 {
		t.Fatalf("%d device buffers leaked", dev.AllocatedBuffers())
	}
}

// TestAutoTuneModeLanes pins the lane sets each mode exposes to the tuner:
// pipelined runs must pick >=2 lanes; device aggregation is a per-trial
// step of every plan, so the tuner may pick any lane count for it.
func TestAutoTuneModeLanes(t *testing.T) {
	g, _ := plantedTestGraph(400, 73)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func(*Options)
		minLane int
		maxLane int
	}{
		{"pipelined", func(o *Options) { o.PipelineBatches = true }, 2, 4},
		{"gpuagg", func(o *Options) { o.GPUAggregate = true }, 1, 4},
		{"gpuagg pipelined", func(o *Options) { o.GPUAggregate, o.PipelineBatches = true, true }, 2, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oc := o
			oc.AutoTune = true
			tc.mutate(&oc)
			dev := gpusim.MustNew(gpusim.K20Config())
			gpu, err := ClusterGPU(g, dev, oc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
				t.Fatal("auto-tuned clustering differs from serial")
			}
			for _, p := range []sched.PlanReport{gpu.Pass1.Plan, gpu.Pass2.Plan} {
				if p.Lanes < tc.minLane || p.Lanes > tc.maxLane {
					t.Fatalf("chose %d lanes, want in [%d,%d] (%s)",
						p.Lanes, tc.minLane, tc.maxLane, p.String())
				}
			}
			if dev.AllocatedBuffers() != 0 {
				t.Fatalf("%d device buffers leaked", dev.AllocatedBuffers())
			}
		})
	}
}

// TestPredictCostFixedPlan: a fixed budget, run without tuning — the path
// the fixed rows of the autotune ablation run — is still priced and held to
// the same drift gate as the tuner.
func TestPredictCostFixedPlan(t *testing.T) {
	g, _ := plantedTestGraph(400, 73)
	o := testOptions()
	o.BatchWords = 40_000
	dev := gpusim.MustNew(gpusim.K20Config())
	gpu, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, "pass1", gpu.Pass1.Plan, false)
	checkPlan(t, "pass2", gpu.Pass2.Plan, false)
	if gpu.Pass1.Plan.BudgetWords != 40_000 {
		t.Fatalf("fixed budget not honoured: %s", gpu.Pass1.Plan.String())
	}

	// The pipelined fixed path is priced by the lane-overlap predictor.
	o.PipelineBatches = true
	devPipe := gpusim.MustNew(gpusim.K20Config())
	pipe, err := ClusterGPU(g, devPipe, o)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, "pipelined pass1", pipe.Pass1.Plan, false)
	if pipe.Pass1.Plan.Lanes < 2 {
		t.Fatalf("pipelined fixed plan reports %d lanes", pipe.Pass1.Plan.Lanes)
	}
}

// TestAutoTuneNotWorseThanLegacy: the candidate sweep is a superset of the
// legacy budget derivation, so the tuned run can never be slower than the
// legacy default on the same workload and mode.
func TestAutoTuneNotWorseThanLegacy(t *testing.T) {
	g, _ := plantedTestGraph(600, 7)
	o := testOptions()

	devLegacy := gpusim.MustNew(gpusim.K20Config())
	legacy, err := ClusterGPU(g, devLegacy, o)
	if err != nil {
		t.Fatal(err)
	}
	o.AutoTune = true
	devAuto := gpusim.MustNew(gpusim.K20Config())
	auto, err := ClusterGPU(g, devAuto, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Clustering, auto.Clustering) {
		t.Fatal("auto-tuned clustering differs from legacy")
	}
	legacyNs := legacy.Pass1.Plan.ActualNs + legacy.Pass2.Plan.ActualNs
	autoNs := auto.Pass1.Plan.ActualNs + auto.Pass2.Plan.ActualNs
	if autoNs > legacyNs {
		t.Fatalf("auto-tuned scheduler windows %.3fms exceed legacy %.3fms",
			autoNs/1e6, legacyNs/1e6)
	}
}

// TestAutoTuneGPUAggregateLanes: with device aggregation in every plan the
// tuner may pick a pipelined plan for it, and on this graph it does. The
// tuned and a fixed pipelined plan both give the serial partition, and
// both are held to the drift gate.
func TestAutoTuneGPUAggregateLanes(t *testing.T) {
	g, _ := plantedTestGraph(2000, 73)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	o.GPUAggregate = true
	auto, fixed := o, o
	auto.AutoTune = true
	fixed.PipelineBatches, fixed.BatchWords = true, 20_000
	for _, tc := range []struct {
		name     string
		o        Options
		wantAuto bool
	}{{"auto", auto, true}, {"fixed pipelined", fixed, false}} {
		dev := gpusim.MustNew(gpusim.K20Config())
		gpu, err := ClusterGPU(g, dev, tc.o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
			t.Fatalf("%s: clustering differs from serial", tc.name)
		}
		checkPlan(t, tc.name+" pass1", gpu.Pass1.Plan, tc.wantAuto)
		checkPlan(t, tc.name+" pass2", gpu.Pass2.Plan, tc.wantAuto)
		if gpu.Pass1.Plan.Lanes < 2 {
			t.Fatalf("%s: pass 1 ran %d lane(s); the test needs a pipelined plan (%s)",
				tc.name, gpu.Pass1.Plan.Lanes, gpu.Pass1.Plan.String())
		}
		if dev.AllocatedBuffers() != 0 {
			t.Fatalf("%s: %d device buffers leaked", tc.name, dev.AllocatedBuffers())
		}
	}
}

func TestShingleLaneSet(t *testing.T) {
	if got := shingleLaneSet(Options{}); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("default lane set %v", got)
	}
	if got := shingleLaneSet(Options{PipelineBatches: true}); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("pipelined lane set %v", got)
	}
	if got := shingleLaneSet(Options{GPUAggregate: true}); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("gpu-aggregate lane set %v", got)
	}
	agg := Options{GPUAggregate: true, PipelineBatches: true}
	if got := shingleLaneSet(agg); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("pipelined gpu-aggregate lane set %v", got)
	}
}

func TestMinShingleBudget(t *testing.T) {
	// 3 words fixed + 2*(s+2) staging + 2 output slack, +9 for the
	// aggregate path's extra device state.
	if got := minShingleBudget(4, false); got != 3+2*6+2 {
		t.Fatalf("minShingleBudget(4,false)=%d", got)
	}
	if got := minShingleBudget(4, true); got != 3+2*6+9+2 {
		t.Fatalf("minShingleBudget(4,true)=%d", got)
	}
}

func TestKernelThreadShapes(t *testing.T) {
	// One thread per segment, 256-wide blocks.
	if got := topsThreads(300); got != 512 {
		t.Fatalf("topsThreads(300)=%d, want 512", got)
	}
	if got := topsThreads(0); got != 256 {
		t.Fatalf("topsThreads(0)=%d, want one clamped block", got)
	}
}
