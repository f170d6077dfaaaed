// Benchcheck validates a BENCH_pr9.json produced by scripts/bench.sh: the
// file must parse, every backend point must agree on the accepted edge
// count and include the GPU sequential backend, the auto-tune ablation
// must show the cost-model plan winning — per workload the auto point's
// virtual total is at or below every fixed setting's, all outputs
// agree, and every priced point's prediction lands within 25% of the
// measured scheduler window — the packing ablation must show the
// packed image beating the unpacked one per workload with the
// gpclust image cutting the H2D byte volume by at least 30%, and the LSH
// ablation must show the default banding shape holding ≥ 0.95 edge recall
// with strictly fewer candidates than the exact filter, at no more than
// twice exact's virtual total (every priced LSH plan inside the drift
// gate).
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"gpclust/internal/bench"
)

// maxDriftFrac is the cost-model accuracy gate: |predicted - measured| must
// stay within this fraction of the measured scheduler window on every
// priced point of the bench corpus.
const maxDriftFrac = 0.25

type benchFile struct {
	PR       int                        `json:"pr"`
	Backends []bench.PGraphBackendPoint `json:"pgraph_backends"`
	Autotune []bench.AutoTunePoint      `json:"autotune"`
	Packing  []bench.PackingPoint       `json:"packing"`
	LSH      []bench.LSHPoint           `json:"lsh"`
}

// validate checks the whole file and never indexes before checking
// presence: a truncated or hand-edited file yields an error naming the
// missing piece, not a panic.
func validate(f benchFile) error {
	if len(f.Backends) == 0 {
		return fmt.Errorf("no pgraph backend points")
	}
	if len(f.Backends) < 3 {
		return fmt.Errorf("incomplete ablation: %d backend points, want at least 3", len(f.Backends))
	}
	sawSequential := false
	for i, p := range f.Backends {
		if p.Backend == "" {
			return fmt.Errorf("backend point %d has no backend name", i)
		}
		if p.VirtualNs <= 0 {
			return fmt.Errorf("backend %q reports non-positive virtual total %.3f", p.Backend, p.VirtualNs)
		}
		if p.Edges != f.Backends[0].Edges {
			return fmt.Errorf("backend %q accepted %d edges, %q accepted %d",
				p.Backend, p.Edges, f.Backends[0].Backend, f.Backends[0].Edges)
		}
		sawSequential = sawSequential || p.Backend == "gpu sequential"
	}
	if !sawSequential {
		return fmt.Errorf("missing gpu sequential backend point")
	}
	if err := validateAutotune(f.Autotune); err != nil {
		return err
	}
	if err := validatePacking(f.Packing); err != nil {
		return err
	}
	return validateLSH(f.LSH)
}

// lshRecallFloor is the LSH PR's operating-point gate: the default banding
// shape must recover at least this fraction of the exact filter's edges.
const lshRecallFloor = 0.95

// lshCostCap is the LSH filter's end-to-end cost gate: the default banding
// point's virtual total may be at most this multiple of the exact point's.
// The one-launch signature kernel put it near 1.5×; the per-permutation
// launches it replaced ran at 28×.
const lshCostCap = 2.0

// validateLSH enforces the LSH candidate-filter PR's acceptance criteria on
// the filter sweep.
func validateLSH(points []bench.LSHPoint) error {
	if len(points) == 0 {
		return fmt.Errorf("no lsh points")
	}
	var exact, def *bench.LSHPoint
	for i := range points {
		p := &points[i]
		if p.Setting == "" || p.Filter == "" {
			return fmt.Errorf("lsh point %d has no setting/filter", i)
		}
		if p.VirtualNs <= 0 {
			return fmt.Errorf("lsh %q reports non-positive virtual total %.3f", p.Setting, p.VirtualNs)
		}
		if p.Candidates <= 0 {
			return fmt.Errorf("lsh %q admitted %d candidates", p.Setting, p.Candidates)
		}
		if p.EdgeRecall < 0 || p.EdgeRecall > 1 || p.FScore < 0 || p.FScore > 1 {
			return fmt.Errorf("lsh %q scores out of range (recall %.3f, F %.3f)",
				p.Setting, p.EdgeRecall, p.FScore)
		}
		if p.Filter == "exact" {
			if exact != nil {
				return fmt.Errorf("lsh sweep has two exact baselines")
			}
			exact = p
		}
		if p.Default {
			if def != nil {
				return fmt.Errorf("lsh sweep has two default points")
			}
			def = p
		}
		if p.PredictedNs > 0 {
			if p.SchedNs <= 0 {
				return fmt.Errorf("lsh %q prices a zero-length scheduler window", p.Setting)
			}
			if drift := math.Abs(p.PredictedNs-p.SchedNs) / p.SchedNs; drift > maxDriftFrac {
				return fmt.Errorf("lsh %q cost-model drift %.0f%% exceeds %.0f%% (predicted %.3fms, measured %.3fms)",
					p.Setting, 100*drift, 100*maxDriftFrac, p.PredictedNs/1e6, p.SchedNs/1e6)
			}
		}
	}
	if exact == nil {
		return fmt.Errorf("lsh sweep has no exact baseline")
	}
	if def == nil {
		return fmt.Errorf("lsh sweep has no default point")
	}
	if def.EdgeRecall < lshRecallFloor {
		return fmt.Errorf("lsh default %q edge recall %.4f below the %.2f floor",
			def.Setting, def.EdgeRecall, lshRecallFloor)
	}
	if def.Candidates >= exact.Candidates {
		return fmt.Errorf("lsh default %q admitted %d candidates, not below exact's %d",
			def.Setting, def.Candidates, exact.Candidates)
	}
	if def.VirtualNs > lshCostCap*exact.VirtualNs {
		return fmt.Errorf("lsh default %q virtual total %.3fms exceeds %.0f× exact's %.3fms",
			def.Setting, def.VirtualNs/1e6, lshCostCap, exact.VirtualNs/1e6)
	}
	return nil
}

// gpclustPackingCut is the packing PR's byte-volume gate: the gpclust packed
// image must ship at most this fraction of the unpacked H2D bytes. The
// image packs adjacency values at the graph's MinBits width, so the cut is
// well past 30% on any realistic graph.
const gpclustPackingCut = 0.70

// validatePacking enforces the packed-image PR's acceptance criteria on the
// {unpacked, packed} sweep.
func validatePacking(points []bench.PackingPoint) error {
	if len(points) == 0 {
		return fmt.Errorf("no packing points")
	}
	byCell := map[string]map[bool]bench.PackingPoint{}
	first := map[string]bench.PackingPoint{}
	for i, p := range points {
		if p.Workload == "" || p.Setting == "" {
			return fmt.Errorf("packing point %d has no workload/setting", i)
		}
		if p.VirtualNs <= 0 {
			return fmt.Errorf("packing %s %q reports non-positive virtual total %.3f",
				p.Workload, p.Setting, p.VirtualNs)
		}
		if p.H2DBytes <= 0 {
			return fmt.Errorf("packing %s %q shipped %d H2D bytes", p.Workload, p.Setting, p.H2DBytes)
		}
		if g, ok := first[p.Workload]; !ok {
			first[p.Workload] = p
		} else if p.Output != g.Output {
			return fmt.Errorf("packing %s %q produced output %d, %q produced %d",
				p.Workload, p.Setting, p.Output, g.Setting, g.Output)
		}
		if byCell[p.Workload] == nil {
			byCell[p.Workload] = map[bool]bench.PackingPoint{}
		}
		byCell[p.Workload][p.Packed] = p
		if p.Packed && p.PredictedNs > 0 {
			if p.SchedNs <= 0 {
				return fmt.Errorf("packing %s %q prices a zero-length scheduler window",
					p.Workload, p.Setting)
			}
			if drift := math.Abs(p.PredictedNs-p.SchedNs) / p.SchedNs; drift > maxDriftFrac {
				return fmt.Errorf("packing %s %q cost-model drift %.0f%% exceeds %.0f%% (predicted %.3fms, measured %.3fms)",
					p.Workload, p.Setting, 100*drift, 100*maxDriftFrac,
					p.PredictedNs/1e6, p.SchedNs/1e6)
			}
		}
	}
	for _, w := range []string{"gpclust", "pgraph"} {
		cells := byCell[w]
		base, okBase := cells[false]
		best, okBest := cells[true]
		if !okBase || !okBest {
			return fmt.Errorf("packing workload %q is missing the unpacked or packed point", w)
		}
		if best.VirtualNs >= base.VirtualNs {
			return fmt.Errorf("packing %s: packed virtual total %.3fms is not below unpacked %.3fms",
				w, best.VirtualNs/1e6, base.VirtualNs/1e6)
		}
		if best.H2DBytes >= base.H2DBytes {
			return fmt.Errorf("packing %s: packed image shipped %d H2D bytes, unpacked %d",
				w, best.H2DBytes, base.H2DBytes)
		}
		if w == "gpclust" && float64(best.H2DBytes) > gpclustPackingCut*float64(base.H2DBytes) {
			return fmt.Errorf("packing gpclust: packed image shipped %d of %d H2D bytes (%.0f%%), want at most %.0f%%",
				best.H2DBytes, base.H2DBytes,
				100*float64(best.H2DBytes)/float64(base.H2DBytes), 100*gpclustPackingCut)
		}
	}
	return nil
}

// validateAutotune enforces the auto-tuning PR's acceptance criteria on the
// auto-vs-fixed sweep.
func validateAutotune(points []bench.AutoTunePoint) error {
	if len(points) == 0 {
		return fmt.Errorf("no autotune points")
	}
	auto := map[string]bench.AutoTunePoint{}
	fixed := map[string]int{}
	first := map[string]bench.AutoTunePoint{}
	for i, p := range points {
		if p.Workload == "" || p.Setting == "" {
			return fmt.Errorf("autotune point %d has no workload/setting", i)
		}
		if p.VirtualNs <= 0 {
			return fmt.Errorf("autotune %s %q reports non-positive virtual total %.3f",
				p.Workload, p.Setting, p.VirtualNs)
		}
		if g, ok := first[p.Workload]; !ok {
			first[p.Workload] = p
		} else if p.Output != g.Output {
			return fmt.Errorf("autotune %s %q produced output %d, %q produced %d",
				p.Workload, p.Setting, p.Output, g.Setting, g.Output)
		}
		if p.Auto {
			if _, dup := auto[p.Workload]; dup {
				return fmt.Errorf("autotune workload %q has two auto points", p.Workload)
			}
			auto[p.Workload] = p
		} else {
			fixed[p.Workload]++
		}
		if p.PredictedNs > 0 {
			if p.SchedNs <= 0 {
				return fmt.Errorf("autotune %s %q prices a zero-length scheduler window",
					p.Workload, p.Setting)
			}
			if drift := math.Abs(p.PredictedNs-p.SchedNs) / p.SchedNs; drift > maxDriftFrac {
				return fmt.Errorf("autotune %s %q cost-model drift %.0f%% exceeds %.0f%% (predicted %.3fms, measured %.3fms)",
					p.Workload, p.Setting, 100*drift, 100*maxDriftFrac,
					p.PredictedNs/1e6, p.SchedNs/1e6)
			}
		}
	}
	for w := range first {
		a, ok := auto[w]
		if !ok {
			return fmt.Errorf("autotune workload %q has no auto point", w)
		}
		if fixed[w] == 0 {
			return fmt.Errorf("autotune workload %q has no fixed points to beat", w)
		}
		for _, p := range points {
			if p.Workload != w || p.Auto {
				continue
			}
			if a.VirtualNs > p.VirtualNs {
				return fmt.Errorf("autotune %s: auto virtual total %.3fms exceeds fixed %q at %.3fms",
					w, a.VirtualNs/1e6, p.Setting, p.VirtualNs/1e6)
			}
		}
	}
	return nil
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck BENCH_pr9.json")
		os.Exit(2)
	}
	blob, err := os.ReadFile(os.Args[1])
	fatal(err)
	var f benchFile
	fatal(json.Unmarshal(blob, &f))
	fatal(validate(f))

	fmt.Printf("benchcheck: ok — %d edges on every backend\n", f.Backends[0].Edges)
	for _, p := range f.Autotune {
		if p.Auto {
			fmt.Printf("benchcheck: ok — %s auto plan (budget=%d, lanes=%d) at %.1fms virtual beats every fixed setting\n",
				p.Workload, p.BudgetWords, p.Lanes, p.VirtualNs/1e6)
		}
	}
	packing := map[string]map[bool]bench.PackingPoint{}
	for _, p := range f.Packing {
		if packing[p.Workload] == nil {
			packing[p.Workload] = map[bool]bench.PackingPoint{}
		}
		packing[p.Workload][p.Packed] = p
	}
	for _, w := range []string{"gpclust", "pgraph"} {
		base, best := packing[w][false], packing[w][true]
		fmt.Printf("benchcheck: ok — %s packed %.1fms < unpacked %.1fms virtual, H2D bytes %.0f%% of unpacked\n",
			w, best.VirtualNs/1e6, base.VirtualNs/1e6,
			100*float64(best.H2DBytes)/float64(base.H2DBytes))
	}
	var lshExact bench.LSHPoint
	for _, p := range f.LSH {
		if p.Filter == "exact" {
			lshExact = p
		}
	}
	for _, p := range f.LSH {
		if p.Default {
			fmt.Printf("benchcheck: ok — lsh default %q: edge recall %.3f ≥ %.2f with %d candidates < exact's %d, %.2f× exact's virtual total\n",
				p.Setting, p.EdgeRecall, lshRecallFloor, p.Candidates, lshExact.Candidates,
				p.VirtualNs/lshExact.VirtualNs)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}
