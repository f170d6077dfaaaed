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
	"strconv"
	"strings"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/obs"
	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
)

func main() {
	var (
		in       = flag.String("in", "", "input FASTA file (required)")
		out      = flag.String("out", "", "output graph path (default stdout; .bin suffix selects binary)")
		minMatch = flag.Int("minmatch", 12, "exact-match seed length for candidate pairs")
		score    = flag.Float64("score", 1.2, "Smith-Waterman score threshold per residue of the shorter sequence")
		workers  = flag.Int("workers", 0, "alignment workers (0 = GOMAXPROCS)")
		gpu      = flag.Bool("gpu", false, "verify candidate pairs on the simulated GPU (batched Smith-Waterman)")
		batchW   = flag.String("batchwords", "auto", "with -gpu: per-batch device budget in words; \"auto\" lets the cost model pick the budget, 0 derives from device memory")
		packed   = flag.Bool("packed", true, "with -gpu: stage batch residues as a 5-bit packed device image the SW kernel decodes in place (auto-tuned plans weigh it against the byte layout)")
		noBin    = flag.Bool("nobin", false, "with -gpu: disable length binning of pairs (more warp divergence)")
		filter   = flag.String("filter", "exact", "candidate filter: exact (suffix oracle) or lsh (MinHash banding in its place)")
		bands    = flag.Int("bands", 0, "with -filter lsh: band count (0 = the tuned shape)")
		rows     = flag.Int("rows", 0, "with -filter lsh: signature rows per band (0 = the tuned shape)")
		faultSch = flag.String("faults", "", "with -gpu: inject device faults from this schedule, e.g. 'h2d op=3; malloc at=2ms count=2'")
		retries  = flag.Int("retries", 0, "with -gpu: per-batch fault retry budget (0 = library default; must be >= 0)")
		noFB     = flag.Bool("nofallback", false, "with -gpu: fail instead of degrading to host scoring when the fault retry budget is exhausted")
		trace    = flag.String("trace", "", "with -gpu: write a merged chrome://tracing timeline (host phases + device) to this file")
		metrics  = flag.String("metrics", "", "write OpenMetrics counters for the build to this file (any backend)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "pgraph: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if *retries < 0 {
		// Negative FaultRetries is the library's explicit disable-retries
		// sentinel; from the command line it is almost always a typo, so
		// reject it rather than silently turning recovery off.
		fmt.Fprintf(os.Stderr, "pgraph: -retries must be >= 0 (got %d; 0 means the default budget)\n", *retries)
		os.Exit(2)
	}
	if !*gpu {
		for _, f := range []struct {
			set  bool
			name string
		}{
			{*batchW != "auto", "-batchwords"}, {*noBin, "-nobin"},
			{*faultSch != "", "-faults"}, {*retries != 0, "-retries"}, {*noFB, "-nofallback"},
			{*trace != "", "-trace"}, {!*packed, "-packed=false"},
		} {
			if f.set {
				fmt.Fprintf(os.Stderr, "pgraph: %s requires -gpu\n", f.name)
				os.Exit(2)
			}
		}
	}
	for _, f := range []struct {
		v    int
		name string
	}{{*bands, "-bands"}, {*rows, "-rows"}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "pgraph: %s must be >= 0 (got %d; 0 means the tuned shape)\n", f.name, f.v)
			os.Exit(2)
		}
	}
	if math.IsNaN(*score) || math.IsInf(*score, 0) || *score < 0 {
		fmt.Fprintf(os.Stderr, "pgraph: -score must be finite and >= 0 (got %g)\n", *score)
		os.Exit(2)
	}
	if *filter != pgraph.FilterExact && *filter != pgraph.FilterLSH {
		fmt.Fprintf(os.Stderr, "pgraph: -filter must be %q or %q, got %q\n",
			pgraph.FilterExact, pgraph.FilterLSH, *filter)
		os.Exit(2)
	}
	if *filter == pgraph.FilterExact {
		// The library enforces the same rule; rejecting here names the flags.
		for _, f := range []struct {
			set  bool
			name string
		}{
			{*bands != 0, "-bands"}, {*rows != 0, "-rows"},
		} {
			if f.set {
				fmt.Fprintf(os.Stderr, "pgraph: %s requires -filter lsh\n", f.name)
				os.Exit(2)
			}
		}
	}
	batchWords, autoTune, err := parseBatchWords(*batchW)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgraph:", err)
		os.Exit(2)
	}
	var inj *faults.Injector
	if *faultSch != "" {
		sched, err := faults.Parse(*faultSch)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pgraph:", err)
			os.Exit(2)
		}
		inj = faults.NewInjector(sched)
	}

	f, err := os.Open(*in)
	fatal(err)
	seqs, err := seq.ReadFASTA(f)
	fatal(f.Close())
	fatal(err)

	cfg := pgraph.DefaultConfig()
	cfg.MinExactMatch = *minMatch
	cfg.MinScorePerResidue = *score
	cfg.Workers = *workers
	cfg.Filter = *filter
	cfg.LSHBands = *bands
	cfg.LSHRows = *rows
	cfg.GPU = *gpu
	cfg.GPUBatchWords, cfg.AutoTune = batchWords, autoTune
	cfg.Packed = *packed
	cfg.NoLengthBin = *noBin
	cfg.FaultRetries = *retries
	cfg.NoHostFallback = *noFB
	if inj != nil || (*gpu && *trace != "") {
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		if inj != nil {
			cfg.Device.SetFaultInjector(inj)
		}
		if *trace != "" {
			cfg.Device.EnableTracing()
		}
	}
	var rec *obs.Recorder
	if *trace != "" || *metrics != "" {
		rec = obs.New()
		cfg.Obs = rec
		if inj != nil {
			inj.SetRecorder(rec)
		}
	}

	g, st, err := pgraph.Build(seqs, cfg)
	fatal(err)
	if *trace != "" {
		tf, terr := os.Create(*trace)
		fatal(terr)
		fatal(obs.WriteMergedTrace(tf, rec,
			[]obs.DeviceTimeline{{Name: "device0", Events: cfg.Device.Trace()}}))
		fatal(tf.Close())
		fmt.Fprintf(os.Stderr, "pgraph: merged timeline written to %s (open in chrome://tracing or Perfetto)\n", *trace)
	}
	if *metrics != "" {
		mf, merr := os.Create(*metrics)
		fatal(merr)
		fatal(rec.WriteOpenMetrics(mf))
		fatal(mf.Close())
		fmt.Fprintf(os.Stderr, "pgraph: metrics written to %s\n", *metrics)
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

	if *out == "" {
		fatal(graph.WriteEdgeList(os.Stdout, g))
		return
	}
	of, err := os.Create(*out)
	fatal(err)
	if strings.HasSuffix(*out, ".bin") {
		fatal(graph.WriteBinary(of, g))
	} else {
		fatal(graph.WriteEdgeList(of, g))
	}
	fatal(of.Close())
}

// parseBatchWords maps the -batchwords value to (budget, autoTune):
// "auto" lets the cost-model auto-tuner pick the budget, "0" keeps the
// legacy free-memory derivation, and a positive integer fixes the
// per-batch budget.
func parseBatchWords(s string) (int, bool, error) {
	if s == "auto" {
		return 0, true, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false, fmt.Errorf("-batchwords must be \"auto\" or a non-negative word count, got %q", s)
	}
	return n, false, nil
}

// fatal exits 1 on a non-nil error, printed with one "pgraph:" prefix
// (library errors already carry it).
func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgraph:", strings.TrimPrefix(err.Error(), "pgraph: "))
		os.Exit(1)
	}
}
