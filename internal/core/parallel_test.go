package core

import (
	"reflect"
	"sync"
	"testing"

	"gpclust/internal/graph"
)

func TestParallelMatchesSerial(t *testing.T) {
	g, _ := plantedTestGraph(600, 43)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 8, 33} {
		o.Workers = workers
		par, err := ClusterParallel(g, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial.Clustering, par.Clustering) {
			t.Fatalf("workers=%d: clustering differs from serial", workers)
		}
		if par.Pass1.Tuples != serial.Pass1.Tuples || par.Pass2.Tuples != serial.Pass2.Tuples {
			t.Fatalf("workers=%d: tuple counts differ (%d/%d vs %d/%d)", workers,
				par.Pass1.Tuples, par.Pass2.Tuples, serial.Pass1.Tuples, serial.Pass2.Tuples)
		}
		if par.Pass1.Shingles != serial.Pass1.Shingles || par.Pass2.Shingles != serial.Pass2.Shingles {
			t.Fatalf("workers=%d: shingle counts differ", workers)
		}
		if par.Pass1.SkippedShort != serial.Pass1.SkippedShort {
			t.Fatalf("workers=%d: SkippedShort differs", workers)
		}
		if par.Backend != "parallel" {
			t.Fatalf("backend = %q", par.Backend)
		}
	}
}

func TestParallelWorkersResolved(t *testing.T) {
	g, _ := plantedTestGraph(200, 47)
	o := testOptions()
	o.Workers = 3
	res, err := ClusterParallel(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 3 {
		t.Fatalf("Result.Workers = %d, want 3", res.Workers)
	}
	o.Workers = 0
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Timings.ShingleNs <= 0 {
		t.Fatal("serial shingle time missing")
	}
	// The pool divides the same virtual work, it does not invent any:
	// shingle time never exceeds the serial figure (TestGoldenHostVirtualTime
	// pins the two equal).
	if res.Timings.ShingleNs > serial.Timings.ShingleNs+1 {
		t.Fatalf("parallel shingle %.0fns above serial total %.0fns",
			res.Timings.ShingleNs, serial.Timings.ShingleNs)
	}
	if res.Timings.TotalNs <= 0 || res.Timings.DiskIONs != serial.Timings.DiskIONs {
		t.Fatal("parallel timings malformed")
	}
}

func TestParallelWallClockRecorded(t *testing.T) {
	g, _ := plantedTestGraph(300, 53)
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return ClusterSerial(g, testOptions()) },
		func() (*Result, error) { return ClusterParallel(g, testOptions()) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		w := res.Wall
		if w.TotalNs <= 0 || w.Pass1Ns <= 0 || w.Pass2Ns <= 0 {
			t.Fatalf("%s: wall times not recorded: %+v", res.Backend, w)
		}
		if w.TotalNs < w.Pass1Ns+w.Pass2Ns {
			t.Fatalf("%s: wall total %d below phase sum", res.Backend, w.TotalNs)
		}
	}
}

func TestParallelOverlappingMatchesSerial(t *testing.T) {
	g, _ := plantedTestGraph(400, 59)
	o := testOptions()
	o.Mode = ReportOverlapping
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		o.Workers = workers
		par, err := ClusterParallel(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Clustering, par.Clustering) {
			t.Fatalf("workers=%d: overlapping clustering differs from serial", workers)
		}
	}
}

func TestParallelEmptyAndTinyGraphs(t *testing.T) {
	o := testOptions()
	o.Workers = 4
	// All singletons.
	g := graph.FromEdges(10, nil)
	res, err := ClusterParallel(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clustering.Clusters) != 10 {
		t.Fatalf("%d clusters for 10 singletons", len(res.Clustering.Clusters))
	}
	// Degrees below s: everything skipped, still a full partition.
	g = graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	o.S1 = 3
	res, err = ClusterParallel(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass1.SkippedShort != 4 || len(res.Clustering.Clusters) != 6 {
		t.Fatalf("skipped=%d clusters=%d, want 4/6", res.Pass1.SkippedShort, len(res.Clustering.Clusters))
	}
}

func TestParallelInvalidWorkers(t *testing.T) {
	o := testOptions()
	o.Workers = -2
	g, _ := plantedTestGraph(100, 61)
	if _, err := ClusterParallel(g, o); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestParallelConcurrentAggregationRace drives several full parallel runs
// simultaneously with oversubscribed pools so `go test -race` sweeps the
// trial-parallel shingling, the per-trial sorts and the sync.Pool reuse
// under maximum interleaving.
func TestParallelConcurrentAggregationRace(t *testing.T) {
	g, _ := plantedTestGraph(400, 67)
	o := testOptions()
	o.Workers = 8
	want, err := ClusterParallel(g, o)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ClusterParallel(g, o)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(want.Clustering, res.Clustering) {
				t.Error("concurrent run produced a different clustering")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestParallelDeterministic(t *testing.T) {
	g, _ := plantedTestGraph(300, 71)
	o := testOptions()
	o.Workers = 5
	r1, err := ClusterParallel(g, o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ClusterParallel(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Clustering, r2.Clustering) {
		t.Fatal("same options produced different clusterings across runs")
	}
}
