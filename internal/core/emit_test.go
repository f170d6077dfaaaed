package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
)

// timingsBits flattens a Timings into its fields' bits, so two runs compare
// bit for bit (math.Float64bits for the virtual times).
func timingsBits(t Timings) []uint64 {
	v := reflect.ValueOf(t)
	bits := make([]uint64, v.NumField())
	for i := range bits {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			bits[i] = math.Float64bits(f.Float())
		default:
			bits[i] = uint64(f.Int())
		}
	}
	return bits
}

// TestClusterGPUEmitAnyWorkers runs ClusterGPU with the lane items' tuple
// emission on pools of 1, 2 and 5 workers, on GOMAXPROCS workers, and on
// GOMAXPROCS workers with GOMAXPROCS(1). Every run must give the same
// clustering, bit-equal Timings and equal pass statistics, tuple and
// shingle counts and plan reports included. Two plans: the auto-tuned one
// on a planted graph of the benchmark's shape, whose two lanes carry
// several trials per item, and a pipelined plan whose small batches split
// lists, so completed split lists emit after the pool joins.
func TestClusterGPUEmitAnyWorkers(t *testing.T) {
	cfg := graph.PlantedConfig{NumVertices: 200, MinFamily: 40, MaxFamily: 40, Alpha: 2.5,
		FamilyFraction: 0.854, IntraDensity: 0.75, FamiliesPerSuper: 3, CrossDensity: 0.01,
		NoiseEdges: 10, Seed: 20}
	shingleShaped, _ := graph.Planted(cfg)
	auto := DefaultOptions()
	auto.AutoTune = true
	piped := testOptions()
	piped.Plan.Lanes = 2
	piped.Plan.BudgetWords = 100

	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		o     Options
		check func(*testing.T, Result)
	}{
		{"auto", shingleShaped, auto, func(t *testing.T, r Result) {
			if p := r.Pass1.Plan; p.Lanes != 2 || p.Batches != 1 {
				t.Logf("auto plan: pass 1 %+v, pass 2 %+v", r.Pass1.Plan, r.Pass2.Plan)
				t.Fatalf("auto plan ran %d lanes over %d batches, want 2 lanes and 1 batch", p.Lanes, p.Batches)
			}
		}},
		{"split", shingleShaped, piped, func(t *testing.T, r Result) {
			if r.Pass1.SplitLists == 0 {
				t.Fatalf("small batches split no list; the post-join emission is untested: %+v", r.Pass1)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers, procs int) Result {
				t.Helper()
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				o := tc.o
				o.Workers = workers
				res, err := ClusterGPU(tc.g, gpusim.MustNew(gpusim.K20Config()), o)
				if err != nil {
					t.Fatalf("Workers=%d GOMAXPROCS=%d: %v", workers, procs, err)
				}
				return *res
			}
			want := run(1, 0)
			tc.check(t, want)
			for _, wp := range [][2]int{{2, 0}, {5, 0}, {0, 0}, {0, 1}} {
				got := run(wp[0], wp[1])
				if !reflect.DeepEqual(got.Clustering, want.Clustering) {
					t.Errorf("Workers=%d GOMAXPROCS=%d: clustering differs from one worker's", wp[0], wp[1])
				}
				if !reflect.DeepEqual(timingsBits(got.Timings), timingsBits(want.Timings)) {
					t.Errorf("Workers=%d GOMAXPROCS=%d: timings %+v, one worker %+v", wp[0], wp[1], got.Timings, want.Timings)
				}
				for i, p := range [][2]PassStats{{got.Pass1, want.Pass1}, {got.Pass2, want.Pass2}} {
					if !reflect.DeepEqual(p[0], p[1]) {
						t.Errorf("Workers=%d GOMAXPROCS=%d: pass %d stats %+v, one worker %+v", wp[0], wp[1], i+1, p[0], p[1])
					}
				}
			}
		})
	}
}
