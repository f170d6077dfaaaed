// Command gpclust clusters a protein-sequence similarity graph into family
// "core sets" with the Shingling heuristic — serially (pClust), across a
// host worker pool (-backend parallel -workers N), or on the simulated GPU
// (gpClust) — and prints the Table I-style timing breakdown from the
// virtual clock plus the real wall-clock phase times.
//
// Input is an edge-list file ("u v" per line, "# vertices N" header) or the
// binary format written by genseq/pgraph (auto-detected). Output is one
// cluster per line: whitespace-separated vertex ids, largest cluster first.
//
// Usage:
//
//	gpclust -in graph.txt -backend gpu -pipeline -out clusters.txt
//	gpclust -in graph.bin -backend parallel -workers 8
//	gpclust -in graph.bin -backend serial -c1 200 -c2 100
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"gpclust/internal/core"
	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/obs"
	"gpclust/internal/sched"
)

// cliFlags holds the command line.
type cliFlags struct {
	in, out, backend         string
	s1, c1, s2, c2           int
	seed                     int64
	overlap                  bool
	pipeline, gpuagg, packed bool
	batch                    string
	profile                  bool
	trace, metrics           string
	workers, minOut          int
	faults                   string
	retries                  int
	noFB                     bool
}

// newFlags registers the command's flags on fs.
func newFlags(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{}
	fs.StringVar(&f.in, "in", "", "input graph file (edge list or gpclust binary; required)")
	fs.StringVar(&f.out, "out", "", "output cluster file (default stdout)")
	fs.StringVar(&f.backend, "backend", "gpu", "clustering backend: gpu|serial|parallel")
	fs.IntVar(&f.s1, "s1", 2, "first-level shingle size")
	fs.IntVar(&f.c1, "c1", 200, "first-level shingle count")
	fs.IntVar(&f.s2, "s2", 2, "second-level shingle size")
	fs.IntVar(&f.c2, "c2", 100, "second-level shingle count")
	fs.Int64Var(&f.seed, "seed", 1, "random seed for the hash families")
	fs.BoolVar(&f.overlap, "overlap", false, "report overlapping connected-component clusters instead of the union-find partition")
	fs.BoolVar(&f.pipeline, "pipeline", false, "pipeline batches across two lanes with coalesced transfers (gpu backend)")
	fs.BoolVar(&f.gpuagg, "gpuagg", false, "aggregate shingles on the device (gpu backend)")
	fs.BoolVar(&f.profile, "profile", false, "print a per-kernel profile of the run (gpu backend)")
	fs.StringVar(&f.trace, "trace", "", "write a merged chrome://tracing timeline (host phases + every device) to this file (gpu backend)")
	fs.StringVar(&f.metrics, "metrics", "", "write OpenMetrics counters for the run to this file (any backend)")
	fs.StringVar(&f.batch, "batch", "auto", "device batch budget in 32-bit words; \"auto\" lets the cost model pick budget and lanes, 0 is the largest budget that fits device memory")
	fs.BoolVar(&f.packed, "packed", true, "stage adjacency batches as bit-packed device images (gpu backend)")
	fs.IntVar(&f.workers, "workers", 0, "host worker-pool size of the parallel backend's shingling and the gpu backend's aggregation (0 = GOMAXPROCS)")
	fs.IntVar(&f.minOut, "minsize", 1, "only print clusters with at least this many members")
	fs.StringVar(&f.faults, "faults", "", "inject device faults from this schedule, e.g. 'h2d op=3; malloc at=2ms count=2' (gpu backend)")
	fs.IntVar(&f.retries, "retries", 0, "per-batch fault retry budget (0 = library default; must be >= 0; gpu backend)")
	fs.BoolVar(&f.noFB, "nofallback", false, "fail instead of degrading to host execution when the fault retry budget is exhausted (gpu backend)")
	return f
}

// options maps the flags to the run's Options, or returns a usage error.
// Each plan flag sets one Plan field: -batch the budget (or AutoTune),
// -pipeline the lanes, -gpuagg device aggregation and -packed the image.
func (f *cliFlags) options() (core.Options, error) {
	if f.retries < 0 {
		// Negative FaultRetries is the library's explicit disable-retries
		// sentinel; from the command line it is almost always a typo, so
		// reject it rather than silently turning recovery off.
		return core.Options{}, fmt.Errorf("-retries must be >= 0 (got %d; 0 means the default budget)", f.retries)
	}
	switch f.backend {
	case "gpu", "parallel":
	case "serial":
		if f.workers != 0 {
			return core.Options{}, fmt.Errorf("-workers requires -backend parallel or gpu")
		}
	default:
		return core.Options{}, fmt.Errorf("unknown backend %q", f.backend)
	}
	if f.backend != "gpu" {
		for _, g := range []struct {
			set  bool
			name string
		}{
			{f.pipeline, "-pipeline"}, {f.gpuagg, "-gpuagg"},
			{f.profile, "-profile"}, {f.trace != "", "-trace"},
			{f.faults != "", "-faults"}, {f.retries != 0, "-retries"}, {f.noFB, "-nofallback"},
			{!f.packed, "-packed=false"},
		} {
			if g.set {
				return core.Options{}, fmt.Errorf("%s requires -backend gpu", g.name)
			}
		}
	}
	budget, auto, err := sched.ParseBudget("-batch", f.batch)
	if err != nil {
		return core.Options{}, err
	}
	o := core.Options{
		S1: f.s1, C1: f.c1, S2: f.s2, C2: f.c2,
		Seed:           f.seed,
		Mode:           core.ReportUnionFind,
		Plan:           sched.Plan{BudgetWords: budget, Packed: f.packed, DeviceAggregate: f.gpuagg},
		AutoTune:       auto,
		Workers:        f.workers,
		FaultRetries:   f.retries,
		NoHostFallback: f.noFB,
	}
	if f.pipeline {
		o.Plan.Lanes = 2
	}
	if f.overlap {
		o.Mode = core.ReportOverlapping
	}
	return o, nil
}

func main() {
	f := newFlags(flag.CommandLine)
	flag.Parse()
	if f.in == "" {
		fmt.Fprintln(os.Stderr, "gpclust: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	o, err := f.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpclust:", err)
		os.Exit(2)
	}
	var inj *faults.Injector
	if f.faults != "" {
		sch, err := faults.Parse(f.faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpclust:", err)
			os.Exit(2)
		}
		inj = faults.NewInjector(sch)
	}

	g, err := loadGraph(f.in)
	fatal(err)
	st := graph.ComputeStats(g)
	fmt.Fprintf(os.Stderr, "gpclust: loaded %s\n", st)

	var rec *obs.Recorder
	if f.trace != "" || f.metrics != "" {
		rec = obs.New()
		o.Obs = rec
		if inj != nil {
			inj.SetRecorder(rec)
		}
	}

	var res *core.Result
	switch f.backend {
	case "serial":
		res, err = core.ClusterSerial(g, o)
	case "parallel":
		res, err = core.ClusterParallel(g, o)
		if err == nil {
			fmt.Fprintf(os.Stderr, "gpclust: parallel backend used %d workers\n", res.Workers)
		}
	case "gpu":
		dev := gpusim.MustNew(gpusim.K20Config())
		if inj != nil {
			dev.SetFaultInjector(inj)
		}
		if f.profile {
			dev.EnableProfiling()
		}
		if f.trace != "" {
			dev.EnableTracing()
		}
		res, err = core.ClusterGPU(g, dev, o)
		if err == nil && f.profile {
			fmt.Fprintln(os.Stderr, "gpclust: kernel profile:")
			dev.WriteProfile(os.Stderr)
		}
		if err == nil && f.trace != "" {
			tl := []obs.DeviceTimeline{{Name: "device0", Events: dev.Trace()}}
			tf, terr := os.Create(f.trace)
			fatal(terr)
			fatal(obs.WriteMergedTrace(tf, rec, tl))
			fatal(tf.Close())
			fmt.Fprintf(os.Stderr, "gpclust: merged timeline written to %s (open in chrome://tracing or Perfetto)\n", f.trace)
		}
	}
	fatal(err)

	if f.metrics != "" {
		mf, merr := os.Create(f.metrics)
		fatal(merr)
		fatal(rec.WriteOpenMetrics(mf))
		fatal(mf.Close())
		fmt.Fprintf(os.Stderr, "gpclust: metrics written to %s\n", f.metrics)
	}

	if inj != nil {
		fmt.Fprintf(os.Stderr, "gpclust: injected faults: %s; recovery: %s\n", inj, &res.Faults)
	} else if res.Faults.Any() {
		fmt.Fprintf(os.Stderr, "gpclust: fault recovery: %s\n", &res.Faults)
	}
	fmt.Fprintf(os.Stderr, "gpclust: %d clusters; timings (virtual clock): %s\n",
		res.NumClusters(), res.Timings.String())
	fmt.Fprintf(os.Stderr, "gpclust: wall clock: %s\n", res.Wall.String())
	fmt.Fprintf(os.Stderr, "gpclust: pass1 %d lists / %d shingles, pass2 %d lists / %d shingles, %d batches\n",
		res.Pass1.Lists, res.Pass1.Shingles, res.Pass2.Lists, res.Pass2.Shingles, res.Pass1.Batches)
	if res.Pass1.Plan.Batches > 0 {
		fmt.Fprintf(os.Stderr, "gpclust: pass1 %s\n", res.Pass1.Plan)
	}
	if res.Pass2.Plan.Batches > 0 {
		fmt.Fprintf(os.Stderr, "gpclust: pass2 %s\n", res.Pass2.Plan)
	}

	w := io.Writer(os.Stdout)
	closeOut := func() error { return nil }
	if f.out != "" {
		of, err := os.Create(f.out)
		fatal(err)
		// Closed explicitly after the flush: on the write path a Close
		// failure means lost output and must reach the user.
		closeOut = of.Close
		w = of
	}
	bw := bufio.NewWriter(w)
	for _, cl := range res.Clustering.Clusters {
		if len(cl) < f.minOut {
			continue
		}
		for i, v := range cl {
			if i > 0 {
				fmt.Fprint(bw, " ")
			}
			fmt.Fprint(bw, v)
		}
		fmt.Fprintln(bw)
	}
	fatal(bw.Flush())
	fatal(closeOut())
}

// loadGraph auto-detects the binary magic, falling back to the text
// edge-list parser.
func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //gpclint:ignore unchecked-error read-only file, Close reports nothing actionable
	br := bufio.NewReaderSize(f, 1<<20)
	magic, err := br.Peek(4)
	if err == nil && string(magic) == "GPC1" {
		return graph.ReadBinary(br)
	}
	return graph.ReadEdgeList(br)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpclust:", err)
		os.Exit(1)
	}
}
