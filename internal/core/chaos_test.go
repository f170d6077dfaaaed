package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
)

// chaosBackend is one GPU execution strategy under chaos test. run builds
// fresh devices, attaches the injector (nil for a clean run) to every one
// of them, and clusters g.
type chaosBackend struct {
	name string
	run  func(inj gpusim.FaultInjector, g *graph.Graph, o Options) (*Result, error)
}

func chaosBackends(batchWords int) []chaosBackend {
	mk := func(mut func(*Options)) func(inj gpusim.FaultInjector, g *graph.Graph, o Options) (*Result, error) {
		return func(inj gpusim.FaultInjector, g *graph.Graph, o Options) (*Result, error) {
			mut(&o)
			dev := gpusim.MustNew(gpusim.K20Config())
			dev.SetFaultInjector(inj)
			res, err := ClusterGPU(g, dev, o)
			if err != nil {
				return nil, err
			}
			if err := dev.LeakCheck(); err != nil {
				return nil, err
			}
			return res, nil
		}
	}
	return []chaosBackend{
		{"gpu", mk(func(o *Options) { o.Plan.BudgetWords = batchWords })},
		{"gpu agg", mk(func(o *Options) { o.Plan.BudgetWords = batchWords; o.Plan.DeviceAggregate = true })},
		{"gpu pipelined", mk(func(o *Options) { o.Plan.BudgetWords = batchWords; o.Plan.Lanes = 2 })},
		{"gpu agg pipelined", mk(func(o *Options) {
			o.Plan.BudgetWords = batchWords
			o.Plan.DeviceAggregate = true
			o.Plan.Lanes = 2
		})},
	}
}

// TestChaosSweepAllBackends is the acceptance harness: over ≥ 20 seeded
// random fault schedules, every GPU backend must recover to the
// byte-identical fault-free clustering, and Result.Faults must be nonzero
// exactly when injected faults actually failed operations.
func TestChaosSweepAllBackends(t *testing.T) {
	g, _ := plantedTestGraph(240, 11)
	o := testOptions()
	const batchWords = 2_000 // force several batches and split lists

	for _, b := range chaosBackends(batchWords) {
		clean, err := b.run(nil, g, o)
		if err != nil {
			t.Fatalf("%s clean run: %v", b.name, err)
		}
		if clean.Faults.Any() {
			t.Fatalf("%s clean run reported recovery actions: %s", b.name, clean.Faults)
		}
		for seed := int64(1); seed <= 20; seed++ {
			inj := faults.NewInjector(faults.RandSchedule(seed, 5))
			res, err := b.run(inj, g, o)
			if err != nil {
				t.Fatalf("%s seed %d (schedule %q): %v",
					b.name, seed, faults.RandSchedule(seed, 5).String(), err)
			}
			if !reflect.DeepEqual(clean.Clustering, res.Clustering) {
				t.Fatalf("%s seed %d: recovered clustering differs from fault-free run (faults: %s, fired: %s)",
					b.name, seed, res.Faults, inj)
			}
			failed := inj.TotalFailures() > 0
			if res.Faults.Any() != failed {
				t.Fatalf("%s seed %d: Faults.Any()=%v but injector failed %d ops (schedule %q)",
					b.name, seed, res.Faults.Any(), inj.TotalFailures(),
					faults.RandSchedule(seed, 5).String())
			}
		}
	}
}

// TestChaosRecoveryLadder drives each rung of the ladder deliberately.
func TestChaosRecoveryLadder(t *testing.T) {
	g, _ := plantedTestGraph(200, 3)
	o := testOptions()
	o.Plan.BudgetWords = 2_000
	clean, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		schedule string
		check    func(t *testing.T, r *Result)
	}{
		{"transfer retry", "h2d op=2 count=2; d2h op=5", func(t *testing.T, r *Result) {
			if r.Faults.TransferRetries == 0 {
				t.Fatalf("no transfer retries recorded: %s", r.Faults)
			}
		}},
		{"kernel retry", "kernel op=3", func(t *testing.T, r *Result) {
			if r.Faults.KernelRetries == 0 {
				t.Fatalf("no kernel retries recorded: %s", r.Faults)
			}
		}},
		{"transient oom", "malloc op=2 count=2", func(t *testing.T, r *Result) {
			if r.Faults.OOMRetries == 0 {
				t.Fatalf("no OOM retries recorded: %s", r.Faults)
			}
		}},
		{"oom split", "malloc op=1 count=9", func(t *testing.T, r *Result) {
			if r.Faults.OOMSplits == 0 {
				t.Fatalf("persistent OOM did not split the batch: %s", r.Faults)
			}
		}},
		{"host fallback", "h2d op=1 count=40", func(t *testing.T, r *Result) {
			if r.Faults.HostFallbacks == 0 {
				t.Fatalf("exhausted budget did not fall back to host: %s", r.Faults)
			}
			if r.Timings.ShingleNs == 0 {
				t.Fatal("host fallback charged no host shingling time")
			}
		}},
		{"slow sm only", "slowsm op=1 count=5 x=6", func(t *testing.T, r *Result) {
			if r.Faults.Any() {
				t.Fatalf("latency spike needed no recovery but recorded: %s", r.Faults)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := faults.Parse(tc.schedule)
			if err != nil {
				t.Fatal(err)
			}
			dev := gpusim.MustNew(gpusim.K20Config())
			dev.SetFaultInjector(faults.NewInjector(sched))
			res, err := ClusterGPU(g, dev, o)
			if err != nil {
				t.Fatalf("schedule %q: %v", tc.schedule, err)
			}
			if !reflect.DeepEqual(clean.Clustering, res.Clustering) {
				t.Fatalf("schedule %q: clustering differs from serial (faults: %s)", tc.schedule, res.Faults)
			}
			tc.check(t, res)
			if err := dev.LeakCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosPipelinedRestartAndDegrade forces the pipelined pass through
// its restart rung and all the way to the sequential degradation.
func TestChaosPipelinedRestartAndDegrade(t *testing.T) {
	g, _ := plantedTestGraph(200, 7)
	o := testOptions()
	o.Plan.BudgetWords = 2_000
	o.Plan.Lanes = 2
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}

	// One transient fault: a single restart recovers.
	sched, err := faults.Parse("h2d op=3")
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.MustNew(gpusim.K20Config())
	dev.SetFaultInjector(faults.NewInjector(sched))
	res, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Restarts == 0 {
		t.Fatalf("pipelined fault did not restart the pass: %s", res.Faults)
	}
	if !reflect.DeepEqual(serial.Clustering, res.Clustering) {
		t.Fatal("restarted pipelined clustering differs from serial")
	}

	// Persistent faults: restarts exhaust, the pass degrades to the
	// one-lane plan's per-batch ladder, which falls back to the host.
	sched, err = faults.Parse("h2d op=1 count=500")
	if err != nil {
		t.Fatal(err)
	}
	dev = gpusim.MustNew(gpusim.K20Config())
	dev.SetFaultInjector(faults.NewInjector(sched))
	res, err = ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Restarts == 0 || res.Faults.HostFallbacks == 0 {
		t.Fatalf("persistent pipelined faults should restart then degrade: %s", res.Faults)
	}
	if !reflect.DeepEqual(serial.Clustering, res.Clustering) {
		t.Fatal("degraded pipelined clustering differs from serial")
	}
}

// TestChaosNoFallbackTypedError: with the host fallback disabled, a fault
// storm beyond the retry budget must surface as a clean typed error —
// never a panic or a partial result.
func TestChaosNoFallbackTypedError(t *testing.T) {
	g, _ := plantedTestGraph(150, 19)
	o := testOptions()
	o.Plan.BudgetWords = 2_000
	o.NoHostFallback = true
	o.FaultRetries = 2

	for _, schedule := range []string{
		"h2d op=1 count=1000000",
		"d2h op=1 count=1000000",
		"kernel op=1 count=1000000",
		"malloc op=1 count=1000000",
	} {
		sched, err := faults.Parse(schedule)
		if err != nil {
			t.Fatal(err)
		}
		dev := gpusim.MustNew(gpusim.K20Config())
		dev.SetFaultInjector(faults.NewInjector(sched))
		_, err = ClusterGPU(g, dev, o)
		if err == nil {
			t.Fatalf("schedule %q: run succeeded with fallback disabled under a fault storm", schedule)
		}
		if !errors.Is(err, ErrRetryBudget) {
			t.Fatalf("schedule %q: error %v does not wrap ErrRetryBudget", schedule, err)
		}
		if err := dev.LeakCheck(); err != nil {
			t.Fatalf("schedule %q: device left dirty after typed failure: %v", schedule, err)
		}
	}
}

// TestChaosPropertyAnySchedule is the satellite property test: ANY
// schedule yields either the bit-identical clean clustering or a clean
// typed error — never a panic, never a silently different result.
func TestChaosPropertyAnySchedule(t *testing.T) {
	g, _ := plantedTestGraph(150, 23)
	o := testOptions()
	o.Plan.BudgetWords = 1_500
	clean, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(100); seed < 130; seed++ {
		sched := faults.RandSchedule(seed, 8)
		// Make a third of the sweeps adversarial fault storms.
		if seed%3 == 0 {
			sched.Events = append(sched.Events, faults.Event{
				Kind: gpusim.FaultKind(int(seed) % int(gpusim.NumFaultKinds)), Op: 1, Count: 100_000, Slow: 2,
			})
		}
		for _, nofb := range []bool{false, true} {
			oo := o
			oo.NoHostFallback = nofb
			dev := gpusim.MustNew(gpusim.K20Config())
			dev.SetFaultInjector(faults.NewInjector(sched))
			res, err := ClusterGPU(g, dev, oo)
			name := fmt.Sprintf("seed %d nofallback=%v (%q)", seed, nofb, sched.String())
			if err != nil {
				if !nofb {
					t.Fatalf("%s: run with host fallback enabled must always recover, got %v", name, err)
				}
				if !errors.Is(err, ErrRetryBudget) {
					t.Fatalf("%s: error %v does not wrap ErrRetryBudget", name, err)
				}
				continue
			}
			if !reflect.DeepEqual(clean.Clustering, res.Clustering) {
				t.Fatalf("%s: clustering differs from clean run (faults: %s)", name, res.Faults)
			}
		}
	}
}
