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
	"strconv"

	"gpclust/internal/core"
	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/obs"
)

func main() {
	var (
		in       = flag.String("in", "", "input graph file (edge list or gpclust binary; required)")
		out      = flag.String("out", "", "output cluster file (default stdout)")
		backend  = flag.String("backend", "gpu", "clustering backend: gpu|serial|parallel")
		s1       = flag.Int("s1", 2, "first-level shingle size")
		c1       = flag.Int("c1", 200, "first-level shingle count")
		s2       = flag.Int("s2", 2, "second-level shingle size")
		c2       = flag.Int("c2", 100, "second-level shingle count")
		seed     = flag.Int64("seed", 1, "random seed for the hash families")
		overlap  = flag.Bool("overlap", false, "report overlapping connected-component clusters instead of the union-find partition")
		pipeline = flag.Bool("pipeline", false, "double-buffer batches across streams with coalesced transfers (gpu backend)")
		gpuagg   = flag.Bool("gpuagg", false, "aggregate shingles on the device (gpu backend)")
		profile  = flag.Bool("profile", false, "print a per-kernel profile of the run (gpu backend)")
		trace    = flag.String("trace", "", "write a merged chrome://tracing timeline (host phases + every device) to this file (gpu backend)")
		metrics  = flag.String("metrics", "", "write OpenMetrics counters for the run to this file (any backend)")
		batch    = flag.String("batch", "auto", "device batch budget in 32-bit words; \"auto\" lets the cost model pick budget and lanes, 0 derives from device memory")
		packed   = flag.Bool("packed", true, "stage adjacency batches as bit-packed device images (gpu backend)")
		workers  = flag.Int("workers", 0, "parallel backend: worker-pool size (0 = GOMAXPROCS); serial backend: cluster connected components in parallel with this many workers (0 = whole-graph run)")
		minOut   = flag.Int("minsize", 1, "only print clusters with at least this many members")
		faultSch = flag.String("faults", "", "inject device faults from this schedule, e.g. 'h2d op=3; malloc at=2ms count=2' (gpu backend)")
		retries  = flag.Int("retries", 0, "per-batch fault retry budget (0 = library default; must be >= 0; gpu backend)")
		noFB     = flag.Bool("nofallback", false, "fail instead of degrading to host execution when the fault retry budget is exhausted (gpu backend)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "gpclust: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if *retries < 0 {
		// Negative FaultRetries is the library's explicit disable-retries
		// sentinel; from the command line it is almost always a typo, so
		// reject it rather than silently turning recovery off.
		fmt.Fprintf(os.Stderr, "gpclust: -retries must be >= 0 (got %d; 0 means the default budget)\n", *retries)
		os.Exit(2)
	}
	if *backend != "gpu" {
		for _, f := range []struct {
			set  bool
			name string
		}{
			{*pipeline, "-pipeline"}, {*gpuagg, "-gpuagg"},
			{*profile, "-profile"}, {*trace != "", "-trace"},
			{*faultSch != "", "-faults"}, {*retries != 0, "-retries"}, {*noFB, "-nofallback"},
			{!*packed, "-packed=false"},
		} {
			if f.set {
				fmt.Fprintf(os.Stderr, "gpclust: %s requires -backend gpu\n", f.name)
				os.Exit(2)
			}
		}
	}
	var inj *faults.Injector
	if *faultSch != "" {
		sched, err := faults.Parse(*faultSch)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpclust:", err)
			os.Exit(2)
		}
		inj = faults.NewInjector(sched)
	}

	g, err := loadGraph(*in)
	fatal(err)
	st := graph.ComputeStats(g)
	fmt.Fprintf(os.Stderr, "gpclust: loaded %s\n", st)

	batchWords, autoTune, err := parseBatchWords(*batch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpclust:", err)
		os.Exit(2)
	}
	o := core.Options{
		S1: *s1, C1: *c1, S2: *s2, C2: *c2,
		Seed:            *seed,
		Mode:            core.ReportUnionFind,
		PipelineBatches: *pipeline,
		GPUAggregate:    *gpuagg,
		BatchWords:      batchWords,
		AutoTune:        autoTune,
		Packed:          *packed,
		FaultRetries:    *retries,
		NoHostFallback:  *noFB,
	}
	if *overlap {
		o.Mode = core.ReportOverlapping
	}
	var rec *obs.Recorder
	if *trace != "" || *metrics != "" {
		rec = obs.New()
		o.Obs = rec
		if inj != nil {
			inj.SetRecorder(rec)
		}
	}

	var res *core.Result
	switch *backend {
	case "serial":
		if *workers > 0 {
			res, err = core.ClusterByComponent(g, o, *workers)
		} else {
			res, err = core.ClusterSerial(g, o)
		}
	case "parallel":
		o.Workers = *workers
		res, err = core.ClusterParallel(g, o)
		if err == nil {
			fmt.Fprintf(os.Stderr, "gpclust: parallel backend used %d workers\n", res.Workers)
		}
	case "gpu":
		dev := gpusim.MustNew(gpusim.K20Config())
		if inj != nil {
			dev.SetFaultInjector(inj)
		}
		if *profile {
			dev.EnableProfiling()
		}
		if *trace != "" {
			dev.EnableTracing()
		}
		res, err = core.ClusterGPU(g, dev, o)
		if err == nil && *profile {
			fmt.Fprintln(os.Stderr, "gpclust: kernel profile:")
			dev.WriteProfile(os.Stderr)
		}
		if err == nil && *trace != "" {
			tl := []obs.DeviceTimeline{{Name: "device0", Events: dev.Trace()}}
			tf, terr := os.Create(*trace)
			fatal(terr)
			fatal(obs.WriteMergedTrace(tf, rec, tl))
			fatal(tf.Close())
			fmt.Fprintf(os.Stderr, "gpclust: merged timeline written to %s (open in chrome://tracing or Perfetto)\n", *trace)
		}
	default:
		fmt.Fprintf(os.Stderr, "gpclust: unknown backend %q\n", *backend)
		os.Exit(2)
	}
	fatal(err)

	if *metrics != "" {
		mf, merr := os.Create(*metrics)
		fatal(merr)
		fatal(rec.WriteOpenMetrics(mf))
		fatal(mf.Close())
		fmt.Fprintf(os.Stderr, "gpclust: metrics written to %s\n", *metrics)
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
	if *out != "" {
		f, err := os.Create(*out)
		fatal(err)
		// Closed explicitly after the flush: on the write path a Close
		// failure means lost output and must reach the user.
		closeOut = f.Close
		w = f
	}
	bw := bufio.NewWriter(w)
	for _, cl := range res.Clustering.Clusters {
		if len(cl) < *minOut {
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

// parseBatchWords maps the -batch value to (budget, autoTune): "auto" lets
// the cost-model auto-tuner pick budget and lane count, "0" keeps the
// legacy free-memory derivation, and a positive integer fixes the
// per-batch budget.
func parseBatchWords(s string) (int, bool, error) {
	if s == "auto" {
		return 0, true, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false, fmt.Errorf("-batch must be \"auto\" or a non-negative word count, got %q", s)
	}
	return n, false, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpclust:", err)
		os.Exit(1)
	}
}
