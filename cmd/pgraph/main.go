// Command pgraph builds a protein-sequence similarity graph from FASTA
// input, the way the paper's pGraph substrate does: candidate pairs from
// exact maximal matches (generalized suffix structure), verified with
// Smith–Waterman over BLOSUM62, emitted as the edge list gpclust consumes.
//
// Usage:
//
//	pgraph -in orfs.fa -out graph.txt
//	pgraph -in orfs.fa -out graph.bin -minmatch 12 -score 1.2
//	pgraph -in orfs.fa -out graph.txt -gpu
//	pgraph -in orfs.fa -out graph.txt -gpu -filter lsh
//	pgraph -in orfs.fa -out graph.txt -filter lsh -bands 64 -rows 1
//
// With -gpu the Smith–Waterman verification runs as batched score-only
// kernels on the simulated device (bit-identical edge set to the host
// path), and stderr reports the paper's Table-I-style component split:
// CPU filter, GPU SW, Data_c→g, Data_g→c.
//
// -filter lsh swaps the exact suffix-structure candidate filter for
// MinHash/LSH banding (with -gpu, signatures, band hashing and bucket
// grouping run on the device) and verifies LSH candidates only: -bands and
// -rows shape the S-curve that trades recall for fewer candidates.
//
// Without -gpu the verification runs on a pool of -workers goroutines. The
// virtual clock prices DP cells, not cores, so the graph and every virtual
// figure are the same for any -workers; only the wall time moves.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/obs"
	"gpclust/internal/pgraph"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
)

// cliFlags holds the command line.
type cliFlags struct {
	in, out        string
	minMatch       int
	score          float64
	workers        int
	gpu            bool
	batchWords     string
	packed, noBin  bool
	filter         string
	bands, rows    int
	faults         string
	retries        int
	noFB           bool
	trace, metrics string
}

// newFlags registers the command's flags on fs.
func newFlags(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{}
	fs.StringVar(&f.in, "in", "", "input FASTA file (required)")
	fs.StringVar(&f.out, "out", "", "output graph path (default stdout; .bin suffix selects binary)")
	fs.IntVar(&f.minMatch, "minmatch", 12, "exact-match seed length for candidate pairs")
	fs.Float64Var(&f.score, "score", 1.2, "Smith-Waterman score threshold per residue of the shorter sequence")
	fs.IntVar(&f.workers, "workers", 0, "alignment workers (0 = GOMAXPROCS)")
	fs.BoolVar(&f.gpu, "gpu", false, "verify candidate pairs on the simulated GPU (batched Smith-Waterman)")
	fs.StringVar(&f.batchWords, "batchwords", "auto", "with -gpu: per-batch device budget in words; \"auto\" lets the cost model pick the budget, 0 is the largest budget that fits device memory")
	fs.BoolVar(&f.packed, "packed", true, "with -gpu: stage batch residues as a 5-bit packed device image the SW kernel decodes in place (auto-tuned plans weigh it against the byte layout)")
	fs.BoolVar(&f.noBin, "nobin", false, "with -gpu: disable length binning of pairs (more warp divergence)")
	fs.StringVar(&f.filter, "filter", "exact", "candidate filter: exact (suffix oracle) or lsh (MinHash banding in its place)")
	fs.IntVar(&f.bands, "bands", 0, "with -filter lsh: band count (0 = the tuned shape)")
	fs.IntVar(&f.rows, "rows", 0, "with -filter lsh: signature rows per band (0 = the tuned shape)")
	fs.StringVar(&f.faults, "faults", "", "with -gpu: inject device faults from this schedule, e.g. 'h2d op=3; malloc at=2ms count=2'")
	fs.IntVar(&f.retries, "retries", 0, "with -gpu: per-batch fault retry budget (0 = library default; must be >= 0)")
	fs.BoolVar(&f.noFB, "nofallback", false, "with -gpu: fail instead of degrading to host scoring when the fault retry budget is exhausted")
	fs.StringVar(&f.trace, "trace", "", "with -gpu: write a merged chrome://tracing timeline (host phases + device) to this file")
	fs.StringVar(&f.metrics, "metrics", "", "write OpenMetrics counters for the build to this file (any backend)")
	return f
}

// config maps the flags to the build's Config, or returns a usage error.
// Each plan flag sets one Plan field: -batchwords the budget (or
// AutoTune), -packed the residue image and -nobin length binning.
func (f *cliFlags) config() (pgraph.Config, error) {
	if f.retries < 0 {
		// Negative FaultRetries is the library's explicit disable-retries
		// sentinel; from the command line it is almost always a typo, so
		// reject it rather than silently turning recovery off.
		return pgraph.Config{}, fmt.Errorf("-retries must be >= 0 (got %d; 0 means the default budget)", f.retries)
	}
	if !f.gpu {
		for _, g := range []struct {
			set  bool
			name string
		}{
			{f.batchWords != "auto", "-batchwords"}, {f.noBin, "-nobin"},
			{f.faults != "", "-faults"}, {f.retries != 0, "-retries"}, {f.noFB, "-nofallback"},
			{f.trace != "", "-trace"}, {!f.packed, "-packed=false"},
		} {
			if g.set {
				return pgraph.Config{}, fmt.Errorf("%s requires -gpu", g.name)
			}
		}
	}
	for _, g := range []struct {
		v    int
		name string
	}{{f.bands, "-bands"}, {f.rows, "-rows"}} {
		if g.v < 0 {
			return pgraph.Config{}, fmt.Errorf("%s must be >= 0 (got %d; 0 means the tuned shape)", g.name, g.v)
		}
	}
	if math.IsNaN(f.score) || math.IsInf(f.score, 0) || f.score < 0 {
		return pgraph.Config{}, fmt.Errorf("-score must be finite and >= 0 (got %g)", f.score)
	}
	if f.filter != pgraph.FilterExact && f.filter != pgraph.FilterLSH {
		return pgraph.Config{}, fmt.Errorf("-filter must be %q or %q, got %q",
			pgraph.FilterExact, pgraph.FilterLSH, f.filter)
	}
	if f.filter == pgraph.FilterExact {
		// The library enforces the same rule; rejecting here names the flags.
		for _, g := range []struct {
			set  bool
			name string
		}{
			{f.bands != 0, "-bands"}, {f.rows != 0, "-rows"},
		} {
			if g.set {
				return pgraph.Config{}, fmt.Errorf("%s requires -filter lsh", g.name)
			}
		}
	}
	budget, auto, err := sched.ParseBudget("-batchwords", f.batchWords)
	if err != nil {
		return pgraph.Config{}, err
	}
	cfg := pgraph.DefaultConfig()
	cfg.MinExactMatch = f.minMatch
	cfg.MinScorePerResidue = f.score
	cfg.Workers = f.workers
	cfg.Filter = f.filter
	cfg.LSHBands = f.bands
	cfg.LSHRows = f.rows
	cfg.GPU = f.gpu
	cfg.Plan.BudgetWords, cfg.AutoTune = budget, auto
	cfg.Plan.Packed = f.packed
	cfg.Plan.LengthBin = !f.noBin
	cfg.FaultRetries = f.retries
	cfg.NoHostFallback = f.noFB
	return cfg, nil
}

func main() {
	f := newFlags(flag.CommandLine)
	flag.Parse()
	if f.in == "" {
		fmt.Fprintln(os.Stderr, "pgraph: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := f.config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgraph:", err)
		os.Exit(2)
	}
	var inj *faults.Injector
	if f.faults != "" {
		sch, err := faults.Parse(f.faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pgraph:", err)
			os.Exit(2)
		}
		inj = faults.NewInjector(sch)
	}

	in, err := os.Open(f.in)
	fatal(err)
	seqs, err := seq.ReadFASTA(in)
	fatal(in.Close())
	fatal(err)

	if inj != nil || (f.gpu && f.trace != "") {
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		if inj != nil {
			cfg.Device.SetFaultInjector(inj)
		}
		if f.trace != "" {
			cfg.Device.EnableTracing()
		}
	}
	var rec *obs.Recorder
	if f.trace != "" || f.metrics != "" {
		rec = obs.New()
		cfg.Obs = rec
		if inj != nil {
			inj.SetRecorder(rec)
		}
	}

	g, st, err := pgraph.Build(seqs, cfg)
	fatal(err)
	if f.trace != "" {
		tf, terr := os.Create(f.trace)
		fatal(terr)
		fatal(obs.WriteMergedTrace(tf, rec,
			[]obs.DeviceTimeline{{Name: "device0", Events: cfg.Device.Trace()}}))
		fatal(tf.Close())
		fmt.Fprintf(os.Stderr, "pgraph: merged timeline written to %s (open in chrome://tracing or Perfetto)\n", f.trace)
	}
	if f.metrics != "" {
		mf, merr := os.Create(f.metrics)
		fatal(merr)
		fatal(rec.WriteOpenMetrics(mf))
		fatal(mf.Close())
		fmt.Fprintf(os.Stderr, "pgraph: metrics written to %s\n", f.metrics)
	}
	if inj != nil {
		fmt.Fprintf(os.Stderr, "pgraph: injected faults: %s; recovery: %s\n", inj, &st.Faults)
	} else if st.Faults.Any() {
		fmt.Fprintf(os.Stderr, "pgraph: fault recovery: %s\n", &st.Faults)
	}
	fmt.Fprintf(os.Stderr, "pgraph: %d sequences, %d candidate pairs (%s filter), %d edges (%s backend)\n",
		st.Sequences, st.Candidates, st.Filter, st.Edges, st.Backend)
	if st.Backend == "gpu" {
		fmt.Fprintf(os.Stderr,
			"pgraph: CPU filter %.3fs | GPU SW %.3fs | Data_c→g %.3fs | Data_g→c %.3fs | total %.3fs virtual (%d batches, divergence %.1f%%), wall %dms\n",
			st.FilterNs/1e9, st.AlignNs/1e9, st.H2DNs/1e9, st.D2HNs/1e9, st.TotalNs/1e9,
			st.GPUBatches, 100*st.Divergence, st.WallNs/1e6)
		if st.LSHPlan.Batches > 0 {
			fmt.Fprintf(os.Stderr, "pgraph: lsh %s\n", st.LSHPlan)
		}
		if st.Plan.Batches > 0 {
			fmt.Fprintf(os.Stderr, "pgraph: %s\n", st.Plan)
		}
	} else {
		fmt.Fprintf(os.Stderr,
			"pgraph: CPU filter %.3fs | SW %.3fs (%d workers) | total %.3fs virtual, wall %dms\n",
			st.FilterNs/1e9, st.AlignNs/1e9, st.Workers, st.TotalNs/1e9, st.WallNs/1e6)
	}

	if f.out == "" {
		fatal(graph.WriteEdgeList(os.Stdout, g))
		return
	}
	of, err := os.Create(f.out)
	fatal(err)
	if strings.HasSuffix(f.out, ".bin") {
		fatal(graph.WriteBinary(of, g))
	} else {
		fatal(graph.WriteEdgeList(of, g))
	}
	fatal(of.Close())
}

// fatal exits 1 on a non-nil error, printed with one "pgraph:" prefix
// (library errors already carry it).
func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgraph:", strings.TrimPrefix(err.Error(), "pgraph: "))
		os.Exit(1)
	}
}
