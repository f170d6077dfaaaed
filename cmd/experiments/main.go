// Command experiments regenerates every table and figure of the paper's
// evaluation section (Tables I–IV, Figure 5, the large-scale demonstration)
// plus the ablation studies listed in DESIGN.md.
//
// Scales are fractions of the paper's input sizes (1.0 = the paper's 20K/2M/
// 11M-vertex graphs); defaults keep the full suite to a few minutes of wall
// time on one core. All timing numbers come from the simulator's virtual
// clock and are therefore machine-independent.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp table1 -scale20k 1.0 -scale2m 0.05
//	experiments -exp quality -scalequality 0.01
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gpclust/internal/bench"
	"gpclust/internal/core"
	"gpclust/internal/gos"
	"gpclust/internal/obs"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment: table1|table2|table3|table4|fig5|quality|qualityscaling|largescale|memory|theory|pgraph|autotune|packing|lsh|faults|serve|ablations|all")
		scale20k     = flag.Float64("scale20k", 1.0, "scale of the paper's 20K graph for Table I")
		scale2m      = flag.Float64("scale2m", 0.02, "scale of the paper's 2M graph for Tables I–II")
		scaleQuality = flag.Float64("scalequality", 0.005, "scale of the 2M graph for Tables III–IV / Figure 5")
		scaleLarge   = flag.Float64("scalelarge", 0.002, "scale of the 11M-vertex Pacific Ocean graph")
		c1           = flag.Int("c1", 200, "first-level shingle count (paper: 200)")
		c2           = flag.Int("c2", 100, "second-level shingle count (paper: 100)")
		gosK         = flag.Int("gosk", 10, "GOS baseline shared-neighbor threshold (paper: 10)")
		minSize      = flag.Int("minsize", 20, "cluster-size cutoff for the quality study (paper: 20)")
		seed         = flag.Int64("seed", 1, "random seed")
		pgraphN      = flag.Int("pgraphn", 0, "ORF count for the pgraph backend ablation (0: default)")
		pgraphBatch  = flag.Int("pgraphbatch", 0, "per-batch word budget for the pgraph ablation (0: default)")
		benchJSON    = flag.String("benchjson", "", "with -exp pgraph/autotune/packing/lsh: also write the machine-readable points as JSON to this file")
		retryBack    = flag.Float64("retrybackoff", 0, "base fault-retry backoff in virtual ns (0 = library default)")
		traceOut     = flag.String("trace", "", "with -exp table1: write the 20K GPU run's merged chrome://tracing timeline to this file")
		metricsOut   = flag.String("metrics", "", "write OpenMetrics counters accumulated across the runs to this file")
	)
	flag.Parse()
	if *retryBack < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -retrybackoff must be >= 0 (got %g)\n", *retryBack)
		os.Exit(2)
	}
	if *traceOut != "" && *exp != "table1" {
		fmt.Fprintln(os.Stderr, "experiments: -trace requires -exp table1")
		os.Exit(2)
	}

	perfOpts := core.DefaultOptions()
	perfOpts.C1, perfOpts.C2 = *c1, *c2
	perfOpts.Seed = *seed
	perfOpts.RetryBackoffNs = *retryBack
	var rec *obs.Recorder
	if *metricsOut != "" {
		rec = obs.New()
		perfOpts.Obs = rec
	}

	qualOpts := bench.QualityOptions()
	qualOpts.Seed = *seed

	gosOpt := gos.DefaultOptions()
	gosOpt.K = *gosK

	out := os.Stdout
	runQuality := func() *bench.QualityResult {
		q, err := bench.RunQuality(*scaleQuality, qualOpts, gosOpt, *minSize)
		fatal(err)
		return q
	}

	switch *exp {
	case "table1":
		rows, err := bench.RunTable1(*scale20k, *scale2m, perfOpts)
		fatal(err)
		bench.RenderTable1(out, rows)
		if *traceOut != "" {
			tf, terr := os.Create(*traceOut)
			fatal(terr)
			fatal(obs.WriteMergedTrace(tf, rows[0].Obs, []obs.DeviceTimeline{rows[0].Timeline}))
			fatal(tf.Close())
			fmt.Fprintf(os.Stderr, "experiments: merged timeline written to %s\n", *traceOut)
		}
	case "table2":
		bench.RenderTable2(out, bench.RunTable2(*scale2m), *scale2m)
	case "table3":
		bench.RenderTable3(out, runQuality())
	case "table4":
		bench.RenderTable4(out, runQuality())
	case "fig5":
		bench.RenderFig5(out, runQuality())
	case "quality":
		q := runQuality()
		bench.RenderTable3(out, q)
		fmt.Fprintln(out)
		bench.RenderTable4(out, q)
		fmt.Fprintln(out)
		bench.RenderFig5(out, q)
	case "largescale":
		r, err := bench.RunLargeScale(*scaleLarge, perfOpts)
		fatal(err)
		bench.RenderLargeScale(out, r)
	case "qualityscaling":
		rows, err := bench.RunQualityScaling([]float64{0.003, 0.005, 0.01}, qualOpts, gosOpt, *minSize)
		fatal(err)
		bench.RenderQualityScaling(out, rows)
	case "theory":
		for _, s := range []int{1, 2, 3} {
			bench.RenderMinwiseTheory(out, s, bench.RunMinwiseTheory(s, 200, 20000, *seed))
			fmt.Fprintln(out)
		}
	case "memory":
		rows, err := bench.RunMemoryScaling([]float64{0.002, 0.005, 0.01, 0.02}, perfOpts)
		fatal(err)
		bench.RenderMemoryScaling(out, rows)
	case "pgraph":
		rows, points, err := bench.AblatePGraphBackend(*pgraphN, *pgraphBatch)
		fatal(err)
		bench.RenderAblation(out, "pGraph Smith-Waterman verification backends (Table I trajectory)", rows)
		if *benchJSON != "" {
			blob, err := json.MarshalIndent(points, "", "  ")
			fatal(err)
			fatal(os.WriteFile(*benchJSON, append(blob, '\n'), 0o644))
		}
	case "autotune":
		smallPerf := perfOpts
		smallPerf.C1, smallPerf.C2 = 100, 50
		rows, points, err := bench.AblateAutoTune(0.25, smallPerf, *pgraphN)
		fatal(err)
		bench.RenderAblation(out, "auto-tuned vs fixed batch plans (cost-model argmin)", rows)
		if *benchJSON != "" {
			blob, err := json.MarshalIndent(points, "", "  ")
			fatal(err)
			fatal(os.WriteFile(*benchJSON, append(blob, '\n'), 0o644))
		}
	case "packing":
		smallPerf := perfOpts
		smallPerf.C1, smallPerf.C2 = 100, 50
		rows, points, err := bench.AblatePacking(0.25, smallPerf, *pgraphN)
		fatal(err)
		bench.RenderAblation(out, "packed device images decoded in place (H2D volume vs decode cost)", rows)
		if *benchJSON != "" {
			blob, err := json.MarshalIndent(points, "", "  ")
			fatal(err)
			fatal(os.WriteFile(*benchJSON, append(blob, '\n'), 0o644))
		}
	case "lsh":
		rows, points, err := bench.AblateLSH(*pgraphN)
		fatal(err)
		bench.RenderAblation(out, "LSH banding candidate filter (recall vs candidate volume)", rows)
		if *benchJSON != "" {
			blob, err := json.MarshalIndent(points, "", "  ")
			fatal(err)
			fatal(os.WriteFile(*benchJSON, append(blob, '\n'), 0o644))
		}
	case "faults":
		smallPerf := perfOpts
		smallPerf.C1, smallPerf.C2 = 100, 50
		rows, err := bench.AblateFaults(0.25, smallPerf)
		fatal(err)
		bench.RenderAblation(out, "fault injection and recovery (identical clustering under device faults)", rows)
	case "serve":
		rows, point, err := bench.AblateServe(*pgraphN)
		fatal(err)
		bench.RenderAblation(out, "resident incremental serving (gpclust-serve vs from-scratch re-cluster)", rows)
		if *benchJSON != "" {
			blob, err := json.MarshalIndent(point, "", "  ")
			fatal(err)
			fatal(os.WriteFile(*benchJSON, append(blob, '\n'), 0o644))
		}
	case "ablations":
		runAblations(out, *scaleQuality, perfOpts, *minSize)
	case "all":
		fmt.Fprintln(out, "== Table II ==")
		bench.RenderTable2(out, bench.RunTable2(*scale2m), *scale2m)
		fmt.Fprintln(out, "\n== Table I ==")
		rows, err := bench.RunTable1(*scale20k, *scale2m, perfOpts)
		fatal(err)
		bench.RenderTable1(out, rows)
		fmt.Fprintln(out, "\n== Tables III & IV, Figure 5 ==")
		q := runQuality()
		bench.RenderTable3(out, q)
		fmt.Fprintln(out)
		bench.RenderTable4(out, q)
		fmt.Fprintln(out)
		bench.RenderFig5(out, q)
		fmt.Fprintln(out, "\n== Large-scale demonstration ==")
		r, err := bench.RunLargeScale(*scaleLarge, perfOpts)
		fatal(err)
		bench.RenderLargeScale(out, r)
		fmt.Fprintln(out, "\n== Quality stability across scales ==")
		qrows, err := bench.RunQualityScaling([]float64{0.003, 0.005, 0.01}, qualOpts, gosOpt, *minSize)
		fatal(err)
		bench.RenderQualityScaling(out, qrows)
		fmt.Fprintln(out, "\n== Peak memory (Section III-B complexity claim) ==")
		mrows, err := bench.RunMemoryScaling([]float64{0.002, 0.005, 0.01}, perfOpts)
		fatal(err)
		bench.RenderMemoryScaling(out, mrows)
		fmt.Fprintln(out, "\n== Min-wise theory validation ==")
		bench.RenderMinwiseTheory(out, 2, bench.RunMinwiseTheory(2, 200, 20000, *seed))
		fmt.Fprintln(out, "\n== Ablations ==")
		runAblations(out, *scaleQuality, perfOpts, *minSize)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if *metricsOut != "" {
		mf, err := os.Create(*metricsOut)
		fatal(err)
		fatal(rec.WriteOpenMetrics(mf))
		fatal(mf.Close())
		fmt.Fprintf(os.Stderr, "experiments: metrics written to %s\n", *metricsOut)
	}
}

func runAblations(out *os.File, qualityScale float64, perfOpts core.Options, minSize int) {
	smallPerf := perfOpts
	smallPerf.C1, smallPerf.C2 = 100, 50

	// The gpClust sequential and pipelined rows of the execution-strategy
	// ablation are the paper's Section V comparison.
	strategies, err := bench.AblateHostParallel(0.25, smallPerf, 0)
	fatal(err)
	bench.RenderAblation(out, "synchronous vs overlapped transfer (paper Section V)", strategies[1:])

	rows, err := bench.AblateBatchSize(0.25, smallPerf, []int{0, 2_000_000, 200_000, 40_000})
	fatal(err)
	bench.RenderAblation(out, "device batch budget (Algorithm 2 partitioning)", rows)

	rows, _, err = bench.AblateAutoTune(0.25, smallPerf, 0)
	fatal(err)
	bench.RenderAblation(out, "auto-tuned vs fixed batch plans (cost-model argmin)", rows)

	rows, _, err = bench.AblatePacking(0.25, smallPerf, 0)
	fatal(err)
	bench.RenderAblation(out, "packed device images decoded in place (H2D volume vs decode cost)", rows)

	rows, _, err = bench.AblateLSH(0)
	fatal(err)
	bench.RenderAblation(out, "LSH banding candidate filter (recall vs candidate volume)", rows)

	rows, err = bench.AblateFullSort(0.25, smallPerf)
	fatal(err)
	bench.RenderAblation(out, "fused top-s selection vs literal Algorithm 1 segmented sort", rows)

	rows, err = bench.AblateGPUAggregation(0.25, smallPerf)
	fatal(err)
	bench.RenderAblation(out, "CPU-side vs device-side shingle aggregation (beyond-paper extension)", rows)

	bench.RenderAblation(out, "execution strategies: serial vs parallel host vs sequential vs pipelined gpClust", strategies)

	rows, err = bench.AblateFaults(0.25, smallPerf)
	fatal(err)
	bench.RenderAblation(out, "fault injection and recovery (identical clustering under device faults)", rows)

	rows, _, err = bench.AblatePGraphBackend(0, 0)
	fatal(err)
	bench.RenderAblation(out, "pGraph Smith-Waterman verification backends (Table I trajectory)", rows)

	rows, _, err = bench.AblateServe(0)
	fatal(err)
	bench.RenderAblation(out, "resident incremental serving (gpclust-serve vs from-scratch re-cluster)", rows)

	rows, err = bench.AblateShingleParams(qualityScale, bench.QualityOptions(), minSize)
	fatal(err)
	bench.RenderAblation(out, "shingle parameters s, c (sensitivity driver, Section IV-D)", rows)

	rows, err = bench.AblateReportModes(0.25, smallPerf)
	fatal(err)
	bench.RenderAblation(out, "Phase III reporting: union-find partition vs overlapping components", rows)

	rows, err = bench.AblateGOSK(qualityScale, minSize)
	fatal(err)
	bench.RenderAblation(out, "GOS baseline fixed k", rows)

	rows, err = bench.CompareMCL(qualityScale, bench.QualityOptions(), gos.DefaultOptions(), minSize)
	fatal(err)
	bench.RenderAblation(out, "extended baseline: Markov Clustering (the conventional choice)", rows)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
