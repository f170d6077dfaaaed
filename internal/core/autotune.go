package core

import (
	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
	"gpclust/internal/sched"
	"gpclust/internal/thrust"
)

// Cost-model-driven batch auto-tuning for the shingling passes. With
// Options.AutoTune (and no explicit BatchWords) the scheduler enumerates
// candidate plans — a geometric sweep of word budgets crossed with the
// feasible pipeline lane counts — predicts each candidate's virtual time by
// replaying its exact operation sequence (stage, H2D, per-trial kernels,
// D2H, CPU merge) through sched.Sim, and runs the argmin. Kernel throughput
// is calibrated by probing the real thrust kernels on a *scratch* device
// with the same gpusim.Config, so planning charges zero time on the run's
// own virtual clock and the model tracks whatever the simulator charges,
// occupancy penalty included.

// probeWords caps the calibration probe's data size.
const probeWords = 1 << 15

// Calibrated kernel names.
const (
	kAggTail = "aggtail"
	kFused   = "fused" // fused hash + top-s (or hash + sort) launch
)

// topsThreads is the thread count of a fused selection (or gather) launch:
// one thread per segment, 256-wide blocks.
func topsThreads(numSegs int) int {
	grid := (numSegs + 255) / 256
	if grid < 1 {
		grid = 1
	}
	return grid * 256
}

// calibrateShingleModel measures the simulator's charge for the pass's
// kernels on a scratch device with the same config, normalized per data
// word at full occupancy (sched.Model re-applies the occupancy penalty for
// other launch shapes). The probe's segments are shaped like the input's
// average list. Probe failures leave the affected kernel uncalibrated
// (predicted at launch cost only) — they cannot occur on a fresh
// fault-free device.
func calibrateShingleModel(cfg gpusim.Config, in *SegGraph, fam minwise.Family, s int, o Options) *sched.Model {
	m := sched.NewModel(cfg)
	n := min(len(in.Data), probeWords)
	if n == 0 {
		return m
	}
	avg := len(in.Data) / max(in.NumLists(), 1)
	avg = min(max(avg, 1), n)
	numSegs := (n + avg - 1) / avg

	scratch := gpusim.MustNew(cfg)
	// The probe image is the one the lanes stage: packed at the pass's
	// width, or plain words.
	hostData := in.Data[:n]
	if o.dataBits > 0 {
		hostData = gpusim.PackBits(hostData, o.dataBits)
	}
	dataBuf, err := scratch.Malloc(len(hostData))
	if err != nil {
		return m
	}
	defer dataBuf.Free()
	hashBuf, err := scratch.Malloc(n)
	if err != nil {
		return m
	}
	defer hashBuf.Free()
	offBuf, err := scratch.Malloc(numSegs + 1)
	if err != nil {
		return m
	}
	defer offBuf.Free()
	outBuf, err := scratch.Malloc(numSegs * s)
	if err != nil {
		return m
	}
	defer outBuf.Free()
	hostOff := make([]uint32, numSegs+1)
	for i := range hostOff {
		hostOff[i] = uint32(min(i*avg, n))
	}
	if scratch.CopyH2D(dataBuf, 0, hostData) != nil || scratch.CopyH2D(offBuf, 0, hostOff) != nil {
		return m
	}

	h := fam.Pairs[0]
	segs := thrust.Segments{Offsets: offBuf, NumSegs: numSegs}
	k0 := scratch.Metrics().KernelTimeNs
	launches := 1.0
	if !o.UseFullSort {
		if thrust.FusedHashTopS(scratch, nil, dataBuf, o.dataBits, segs, s, h, outBuf, 0) != nil {
			return m
		}
	} else {
		launches = 2 // fused sort + gather
		if thrust.FusedHashSort(scratch, nil, dataBuf, o.dataBits, segs, h, hashBuf) != nil ||
			gatherTopS(scratch, nil, hashBuf, segs, s, outBuf, 0) != nil {
			return m
		}
	}
	m.CalibrateKernel(kFused, scratch.Metrics().KernelTimeNs-k0-launches*cfg.KernelLaunchNs,
		float64(n), topsThreads(numSegs))

	if o.GPUAggregate {
		// Lump the device aggregation tail (shingle_key + sort_by_key +
		// pack) into one per-piece rate, launch overheads included — the
		// radix sort's launch count is an implementation detail, and the
		// occupancy shape is approximated by the probe's (the agg tail is a
		// small fraction of the pass, so the residual error stays well
		// inside the drift gate).
		var flagBuf, ownerBuf, keyHi, keyLo, valBuf, packed *gpusim.Buffer
		for _, dst := range []**gpusim.Buffer{&flagBuf, &ownerBuf, &keyHi, &keyLo, &valBuf} {
			if *dst, err = scratch.Malloc(numSegs); err != nil {
				return m
			}
			defer (*dst).Free()
		}
		if packed, err = scratch.Malloc(3 * numSegs); err != nil {
			return m
		}
		defer packed.Free()
		ones := make([]uint32, numSegs)
		for i := range ones {
			ones[i] = 1
		}
		if scratch.CopyH2D(flagBuf, 0, ones) != nil || scratch.CopyH2D(ownerBuf, 0, ones) != nil {
			return m
		}
		k3 := scratch.Metrics().KernelTimeNs
		if shingleKeyKernel(scratch, nil, outBuf, flagBuf, ownerBuf, numSegs, s, 0, keyHi, keyLo, valBuf) != nil ||
			thrust.SortPairs64(scratch, keyHi, keyLo, valBuf, numSegs) != nil ||
			packKernel(scratch, nil, keyHi, keyLo, valBuf, numSegs, packed) != nil {
			return m
		}
		m.CalibrateKernel(kAggTail, scratch.Metrics().KernelTimeNs-k3, float64(numSegs), 0)
	}
	return m
}

// packNs is the host cost of packing one batch's data into the device
// image; zero when the pass is unpacked.
func packNs(o Options, words int) float64 {
	if o.dataBits <= 0 {
		return 0
	}
	return float64(words) * PackNsPerOp
}

// trialKernelsNs predicts one trial's device launches over words data
// words in numSegs segments, mirroring trialKernels: the fused hash+select
// launch, or the fused sort + gather pair under UseFullSort.
func trialKernelsNs(m *sched.Model, o Options, words, numSegs int) float64 {
	launches := 1.0
	if o.UseFullSort {
		launches = 2
	}
	return launches*m.Cfg.KernelLaunchNs +
		m.KernelNsPerUnit[kFused]*float64(words)*m.SatFactor(topsThreads(numSegs))
}

// stageNs is the host cost of assembling one batch's data and offsets.
func stageNs(plan *batchPlan) float64 {
	return float64(plan.words+len(plan.pieces)) * AggregateNsPerOp
}

// emitNsPerTrial is the host cost of emitTrialTuples for one trial of the
// plan: s merge ops per piece plus 2s per split piece (trial-independent;
// the final split-list emission charges nothing).
func emitNsPerTrial(in *SegGraph, plan *batchPlan, s int) float64 {
	ops := 0
	for _, pc := range plan.pieces {
		ops += s
		if !pc.isWhole(in) {
			ops += 2 * s
		}
	}
	return float64(ops) * AggregateNsPerOp
}

// predictShinglePlans predicts the virtual time of the scheduler window —
// everything between planning and the split-list merge — by replaying the
// executor's operation sequence for the plans on the given lane count: the
// sched.RunLanes round-robin with each lane's staging and trial work, and
// under one lane the synchronous default-stream sequence (lane −1), each
// item's host merge right after its D2H.
func predictShinglePlans(m *sched.Model, in *SegGraph, fam minwise.Family, s int,
	o Options, plans []batchPlan, lanes int) float64 {

	c := fam.Size()
	sh := shapeLanes(plans, s, c, lanes, o.GPUAggregate)
	n := len(plans) * sh.groups(c)
	sync := lanes < 2

	sim := sched.NewSim(m, lanes)
	laneBatch := make([]int, lanes)
	inFlight := make([]int, lanes)
	for i := range laneBatch {
		laneBatch[i], inFlight[i] = -1, -1
	}
	// Per batch: the device aggregation shape and the host merge cost of
	// one trial.
	agg := make([]aggRows, len(plans))
	emitNs := make([]float64, len(plans))
	for i := range plans {
		if o.GPUAggregate {
			agg[i] = aggShape(in, &plans[i], s)
			emitNs[i] = float64(agg[i].valid+len(agg[i].splitRows)*2*s) * AggregateNsPerOp
		} else {
			emitNs[i] = emitNsPerTrial(in, &plans[i], s)
		}
	}
	drain := func(lane int) {
		item := inFlight[lane]
		if item < 0 {
			return
		}
		k, t0, t1 := sh.item(item, c)
		if !sync {
			sim.SyncLane(lane)
		}
		sim.HostWork(float64(t1-t0) * emitNs[k])
		inFlight[lane] = -1
	}
	staged := -1
	for item := 0; item < n; item++ {
		k, t0, t1 := sh.item(item, c)
		plan := &plans[k]
		np := len(plan.pieces)
		if t0 == 0 && staged != k {
			sim.HostWork(stageNs(plan) + packNs(o, plan.words))
			staged = k
		}
		lane, sl := item%lanes, item%lanes
		if sync {
			sl = -1 // the default stream
		}
		drain(lane)
		if laneBatch[lane] != k {
			if !sync && laneBatch[lane] < 0 && o.residentParams == nil {
				sim.Copy(sl, 2*c, true) // params table
			}
			sim.CopyPacked(sl, plan.words, o.dataBits, true) // batch image
			sim.Copy(sl, np+1, true)                         // offsets
			if o.GPUAggregate {
				sim.Copy(sl, np, true) // owners
				sim.Copy(sl, np, true) // flags
			}
			laneBatch[lane] = k
		}
		for trial := t0; trial < t1; trial++ {
			if sync && o.residentParams == nil {
				sim.Copy(sl, 2, true) // <A_j, B_j>
			}
			sim.KernelRawNs(sl, trialKernelsNs(m, o, plan.words, np))
			if o.GPUAggregate {
				sim.KernelRawNs(sl, m.KernelNsPerUnit[kAggTail]*float64(np))
				sim.Copy(sl, 3*agg[k].valid, false)
				for range agg[k].splitRows {
					sim.Copy(sl, s, false)
				}
			}
		}
		if !o.GPUAggregate {
			sim.Copy(sl, (t1-t0)*np*s, false)
		}
		inFlight[lane] = item
		if sync {
			drain(lane)
		}
	}
	for k := 0; k < lanes; k++ {
		drain((n + k) % lanes)
	}
	return sim.Host
}

// shingleLaneSet is the lane counts the auto-tuner may consider: an
// explicit PipelineBatches pins a pipelined plan.
func shingleLaneSet(o Options) []int {
	if o.PipelineBatches {
		return []int{2, 3, 4}
	}
	return []int{1, 2, 3, 4}
}

// legacyShingleBudget is the pre-auto-tune budget derivation.
func legacyShingleBudget(dev *gpusim.Device, o Options) int {
	// data + hash copies, offsets and output must all fit with slack.
	budget := int(dev.FreeMemory() / gpusim.WordBytes * 3 / 4)
	if o.PipelineBatches {
		// Two batches are resident at once (double-buffered staging),
		// and each lane packs up to a batch's worth of output rows for
		// coalesced transfers: halve the derived budget so both fit.
		budget = budget / 2
	}
	return budget
}

// shingleFeasible reports whether the candidate's device footprint fits
// free memory: the planner's budget is itself a conservative footprint
// bound for the one-lane plan, and a pipelined plan keeps `lanes` fully
// independent stagings resident. o carries the resolved pass shape (packed
// width, residency, device aggregation, full sort) whose buffers the lanes
// actually allocate.
func shingleFeasible(freeWords int, plans []batchPlan, cand sched.Candidate, s, c int, o Options) bool {
	if cand.Lanes <= 1 {
		return cand.BudgetWords <= freeWords
	}
	sh := shapeLanes(plans, s, c, cand.Lanes, o.GPUAggregate)
	return cand.Lanes*sh.laneWords(s, c, o) <= freeWords
}

// autotunePass picks the batch budget and lane count for one shingling
// pass by predicted virtual time, returning the chosen plan. When no
// candidate is feasible it falls back to the legacy derivation (reported
// with AutoTuned=false).
func autotunePass(dev *gpusim.Device, in *SegGraph, fam minwise.Family, s int,
	o Options) (sched.PlanReport, []batchPlan, int, error) {

	freeWords := int(dev.FreeMemory() / gpusim.WordBytes)
	maxB := freeWords * 3 / 4
	minB := minShingleBudget(s, o.GPUAggregate)
	m := calibrateShingleModel(dev.Config(), in, fam, s, o)
	c := fam.Size()

	var cands []sched.Candidate
	for _, b := range sched.Budgets(maxB, minB) {
		for _, l := range shingleLaneSet(o) {
			cands = append(cands, sched.Candidate{BudgetWords: b, Lanes: l})
		}
	}
	planCache := map[int][]batchPlan{}
	plansFor := func(b int) []batchPlan {
		if p, ok := planCache[b]; ok {
			return p
		}
		p, err := planBatches(in, s, b, o.GPUAggregate)
		if err != nil {
			p = nil
		}
		planCache[b] = p
		return p
	}
	best, predicted, ok := sched.Pick(cands, func(cand sched.Candidate) (float64, bool) {
		plans := plansFor(cand.BudgetWords)
		if plans == nil || !shingleFeasible(freeWords, plans, cand, s, c, o) {
			return 0, false
		}
		return predictShinglePlans(m, in, fam, s, o, plans, cand.Lanes), true
	})
	if !ok {
		budget := legacyShingleBudget(dev, o)
		plans, err := planBatches(in, s, budget, o.GPUAggregate)
		if err != nil {
			return sched.PlanReport{}, nil, 0, err
		}
		lanes := 1
		if o.PipelineBatches {
			lanes = 2
		}
		return sched.PlanReport{BudgetWords: budget, Lanes: lanes, Batches: len(plans)},
			plans, lanes, nil
	}
	plans := plansFor(best.BudgetWords)
	rep := sched.PlanReport{AutoTuned: true, BudgetWords: best.BudgetWords,
		Lanes: best.Lanes, Batches: len(plans), PredictedNs: predicted}
	return rep, plans, best.Lanes, nil
}
