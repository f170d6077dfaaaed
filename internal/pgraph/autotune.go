package pgraph

import (
	"gpclust/internal/gpusim"
	"gpclust/internal/sched"
	"gpclust/internal/thrust"
)

// Cost-model-driven batch planning for the verification stage. With
// Config.AutoTune (and no budget pinned by Config.Plan) the scheduler
// enumerates candidate plans — a geometric sweep of word budgets, crossed
// under Plan.Packed with the byte layout and the packed image — predicts each
// candidate's virtual time by replaying its exact operation sequence (pack,
// H2D, SW kernel, score readback) through sched.Sim, and runs the argmin.
// Kernel throughput is calibrated by probing the real SW kernel on a
// *scratch* device with the same gpusim.Config, so planning charges zero
// time on the run's own virtual clock.

// kSW is the calibrated kernel name of the batched Smith–Waterman launch
// reading byte-layout residues; kSWFused is the same launch decoding the
// bit-packed image in place.
const (
	kSW      = "sw"
	kSWFused = "swfused"
)

// probePairs caps the calibration probe's pair count; probeCells caps its
// DP-cell total so the probe stays cheap on long-sequence inputs.
const (
	probePairs = 512
	probeCells = 1 << 21
)

// swThreads is the thread count of one SW launch over np pairs (one thread
// per pair, 128-wide blocks).
func swThreads(np int) int {
	grid := (np + 127) / 128
	if grid < 1 {
		grid = 1
	}
	return grid * 128
}

// swKernelName resolves the calibrated SW-kernel entry for a layout.
func swKernelName(ly swLayout) string {
	if ly.bits > 0 {
		return kSWFused
	}
	return kSW
}

// swUnits is the divergence-aware work measure of one batch: the simulator
// serializes each warp at its slowest lane, so the batch costs
// Σ_warps 32·max(cells in warp) cell-units. Warps cover 32 consecutive
// batch-local pair indices (the 128-wide blocks never straddle a warp).
// Per-pair overheads (table staging, row decoding) are absorbed into the
// calibrated per-unit rate.
func swUnits(enc [][]byte, pairs []pairKey, order []int, p swBatch) float64 {
	total := 0.0
	for w := p.lo; w < p.hi; w += 32 {
		end := min(w+32, p.hi)
		maxCells := 0
		for k := w; k < end; k++ {
			a, b := pairs[order[k]].unpack()
			if c := len(enc[a]) * len(enc[b]); c > maxCells {
				maxCells = c
			}
		}
		total += 32 * float64(maxCells)
	}
	return total
}

// calibrateSWModel measures the simulator's charge for the SW kernel on a
// scratch device with the same config, normalized per warp-serialized
// cell-unit at full occupancy. The probe is a contiguous window of the real
// schedule centered on the median-cost pair, so its shape distribution
// matches the batches it predicts. Probe failures leave the kernel
// uncalibrated (predicted at launch cost only) — they cannot occur on a
// fresh fault-free device.
func calibrateSWModel(devCfg gpusim.Config, enc [][]byte, pairs []pairKey,
	order []int, cfg Config) *sched.Model {

	m := sched.NewModel(devCfg)
	if len(order) == 0 {
		return m
	}
	n := min(len(order), probePairs)
	lo := (len(order) - n) / 2
	end, cells := lo, 0
	for end < lo+n {
		a, b := pairs[order[end]].unpack()
		c := len(enc[a]) * len(enc[b])
		if end > lo && cells+c > probeCells {
			break
		}
		cells += c
		end++
	}
	p := swBatchFor(lo, end, enc, pairs, order)

	scratch := gpusim.MustNew(devCfg)
	table, err := uploadSWTable(scratch)
	if err != nil {
		return m
	}
	defer table.Free()

	// One probe per layout the planner may price: the byte-layout SW
	// launch, and under Plan.Packed the in-place packed decoder. Each probe
	// stages its own image so the measured traffic matches the layout.
	probeSW := func(ly swLayout) {
		buf, err := scratch.Malloc(ly.deviceWords(p))
		if err != nil {
			return
		}
		defer buf.Free()
		if scratch.CopyH2D(buf, 0, packSWBatch(p, enc, pairs, order, ly, nil)) != nil {
			return
		}
		lc := swLaunchConfig(p, cfg, table, ly, cfg.scoreLimit)
		lc.Obs = nil // scratch probe: never record
		k0 := scratch.Metrics().KernelTimeNs
		if thrust.SWScoreBatch(scratch, nil, buf, lc) != nil {
			return
		}
		body := scratch.Metrics().KernelTimeNs - k0 - devCfg.KernelLaunchNs
		m.CalibrateKernel(swKernelName(ly), body, swUnits(enc, pairs, order, p), swThreads(end-lo))
	}
	probeSW(layoutFor(false))
	if cfg.Plan.Packed {
		probeSW(layoutFor(true))
	}
	return m
}

// predictSWPlans predicts the virtual time of the scheduler window — the
// resident-table upload through the final score readback — for the given
// plans.
func predictSWPlans(m *sched.Model, enc [][]byte, pairs []pairKey, order []int,
	plans []swBatch, ly swLayout) float64 {

	sim := sched.NewSim(m, 0)
	sim.Copy(-1, swTableLen, true) // resident table upload
	for _, p := range plans {
		sim.HostWork(float64(ly.packWords(p)) * packNsPerWord)
		sim.Copy(-1, ly.dataWords(p), true)
		sim.KernelRawNs(-1, m.KernelNs(swKernelName(ly), swUnits(enc, pairs, order, p), swThreads(p.hi-p.lo)))
		sim.Copy(-1, p.hi-p.lo, false)
	}
	sim.SyncAll()
	return sim.Host
}

// tuneSW picks the batch budget and — under Plan.Packed — whether the
// batches stage the byte layout or the packed image the SW kernel decodes
// in place, by predicted virtual time: a geometric budget sweep down from
// sched.FitBudget, crossed with the layouts. ok is false when no candidate
// is feasible.
func tuneSW(m *sched.Model, freeWords int, enc [][]byte, pairs []pairKey, order []int,
	cfg Config) (sched.Plan, bool) {

	// The minimum budget must hold any single pair under the bulkiest
	// layout in the sweep: the byte layout (the packed image is never
	// larger).
	minB := 0
	for _, idx := range order {
		a, b := pairs[idx].unpack()
		if need := 5 + seqWords(enc[a]) + seqWords(enc[b]); need > minB {
			minB = need
		}
	}
	minB += swTableLen

	// The packed image is priced, not assumed: its per-cell decode
	// instructions can outweigh the H2D bytes it saves.
	packedSet := []bool{false}
	if cfg.Plan.Packed {
		packedSet = []bool{false, true}
	}
	var cands []sched.Plan
	for _, b := range sched.Budgets(sched.FitBudget(freeWords), minB) {
		for _, packed := range packedSet {
			p := cfg.Plan
			p.BudgetWords, p.Packed = b, packed
			cands = append(cands, p)
		}
	}
	type planKey struct {
		budget int
		packed bool
	}
	planCache := map[planKey][]swBatch{}
	plansFor := func(b int, packed bool) []swBatch {
		key := planKey{b, packed}
		if p, ok := planCache[key]; ok {
			return p
		}
		p, err := planSWBatches(enc, pairs, order, b, layoutFor(packed))
		if err != nil {
			p = nil
		}
		planCache[key] = p
		return p
	}
	best, _, ok := sched.Pick(cands, func(p sched.Plan) (float64, bool) {
		plans := plansFor(p.BudgetWords, p.Packed)
		// A batch's footprint (records + residues + scores) is exactly the
		// planner's charge, so the budget bounds it.
		if plans == nil || p.BudgetWords > freeWords {
			return 0, false
		}
		return predictSWPlans(m, enc, pairs, order, plans, layoutFor(p.Packed)), true
	})
	return best, ok
}

// resolveSWPlan resolves the verification plan — the tuned plan when
// Config.AutoTune leaves the budget unpinned, else Config.Plan at its
// resolved budget (also when no tuned candidate is feasible) — plans its
// batches and prices them on the calibrated model. It returns the layout
// the batches stage, the batches and the plan's report.
func resolveSWPlan(dev *gpusim.Device, enc [][]byte, pairs []pairKey, order []int,
	cfg Config) (swLayout, []swBatch, sched.PlanReport, error) {

	m := calibrateSWModel(dev.Config(), enc, pairs, order, cfg)
	freeWords := sched.FreeWords(dev)
	plan, tuned := cfg.Plan, false
	if cfg.AutoTune && plan.BudgetWords == 0 {
		var p sched.Plan
		if p, tuned = tuneSW(m, freeWords, enc, pairs, order, cfg); tuned {
			plan = p
		}
	}
	if !tuned {
		plan.BudgetWords = plan.Budget(freeWords)
	}
	ly := layoutFor(plan.Packed)
	plans, err := planSWBatches(enc, pairs, order, plan.BudgetWords, ly)
	if err != nil {
		return ly, nil, sched.PlanReport{}, err
	}
	return ly, plans, sched.PlanReport{AutoTuned: tuned, BudgetWords: plan.BudgetWords, Lanes: 1,
		Packed: plan.Packed, Batches: len(plans), PredictedNs: predictSWPlans(m, enc, pairs, order, plans, ly)}, nil
}
