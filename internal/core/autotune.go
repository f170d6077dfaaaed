package core

import (
	"gpclust/internal/gpusim"
	"gpclust/internal/sched"
	"gpclust/internal/thrust"
)

// Cost-model-driven batch planning for the shingling passes. With
// Options.AutoTune (and no budget pinned by Options.Plan) the scheduler
// enumerates candidate plans — a geometric sweep of word budgets crossed
// with the feasible pipeline lane counts — predicts each candidate's
// virtual time by replaying its exact operation sequence (stage, H2D,
// per-trial kernels, D2H, CPU merge) through sched.Sim, and runs the
// argmin; a fixed plan is priced the same way. Kernel throughput
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

// calibrate measures the simulator's charge for the pass's kernels on a
// scratch device with the device's config, normalized per data word at
// full occupancy (sched.Model re-applies the occupancy penalty for other
// launch shapes). The probe's segments are shaped like the input's
// average list. Probe failures leave the affected kernel uncalibrated
// (predicted at launch cost only) — they cannot occur on a fresh
// fault-free device.
func (e *passEnv) calibrate() *sched.Model {
	cfg, in, s := e.dev.Config(), e.in, e.s
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
	if e.bits > 0 {
		hostData = gpusim.PackBits(hostData, e.bits)
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

	h := e.fam.Pairs[0]
	segs := thrust.Segments{Offsets: offBuf, NumSegs: numSegs}
	k0 := scratch.Metrics().KernelTimeNs
	launches := 1.0
	if !e.plan.FullSort {
		if thrust.FusedHashTopS(scratch, nil, dataBuf, e.bits, segs, s, h, outBuf, 0) != nil {
			return m
		}
	} else {
		launches = 2 // fused sort + gather
		if thrust.FusedHashSort(scratch, nil, dataBuf, e.bits, segs, h, hashBuf) != nil ||
			gatherTopS(scratch, nil, hashBuf, segs, s, outBuf, 0) != nil {
			return m
		}
	}
	m.CalibrateKernel(kFused, scratch.Metrics().KernelTimeNs-k0-launches*cfg.KernelLaunchNs,
		float64(n), topsThreads(numSegs))

	if e.plan.DeviceAggregate {
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
func (e *passEnv) packNs(words int) float64 {
	if e.bits <= 0 {
		return 0
	}
	return float64(words) * PackNsPerOp
}

// trialKernelsNs predicts one trial's device launches over words data
// words in numSegs segments, mirroring trialKernels: the fused hash+select
// launch, or the fused sort + gather pair under Plan.FullSort.
func (e *passEnv) trialKernelsNs(m *sched.Model, words, numSegs int) float64 {
	launches := 1.0
	if e.plan.FullSort {
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

// predict returns the virtual time of the scheduler window — everything
// between planning and the split-list merge — by replaying the
// executor's operation sequence for the plans on the given lane count: the
// sched.RunLanes round-robin with each lane's staging and trial work, and
// under one lane the synchronous default-stream sequence (lane −1), each
// item's host merge right after its D2H.
func (e *passEnv) predict(m *sched.Model, plans []batchPlan, lanes int) float64 {
	in, s, c, agg := e.in, e.s, e.fam.Size(), e.plan.DeviceAggregate
	sh := shapeLanes(plans, s, c, lanes, agg)
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
	rows := make([]aggRows, len(plans))
	emitNs := make([]float64, len(plans))
	for i := range plans {
		if agg {
			rows[i] = aggShape(in, &plans[i], s)
			emitNs[i] = float64(rows[i].valid+len(rows[i].splitRows)*2*s) * AggregateNsPerOp
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
			sim.HostWork(stageNs(plan) + e.packNs(plan.words))
			staged = k
		}
		lane, sl := item%lanes, item%lanes
		if sync {
			sl = -1 // the default stream
		}
		drain(lane)
		if laneBatch[lane] != k {
			if !sync && laneBatch[lane] < 0 && e.params == nil {
				sim.Copy(sl, 2*c, true) // params table
			}
			sim.CopyPacked(sl, plan.words, e.bits, true) // batch image
			sim.Copy(sl, np+1, true)                     // offsets
			if agg {
				sim.Copy(sl, np, true) // owners
				sim.Copy(sl, np, true) // flags
			}
			laneBatch[lane] = k
		}
		for trial := t0; trial < t1; trial++ {
			if sync && e.params == nil {
				sim.Copy(sl, 2, true) // <A_j, B_j>
			}
			sim.KernelRawNs(sl, e.trialKernelsNs(m, plan.words, np))
			if agg {
				sim.KernelRawNs(sl, m.KernelNsPerUnit[kAggTail]*float64(np))
				sim.Copy(sl, 3*rows[k].valid, false)
				for range rows[k].splitRows {
					sim.Copy(sl, s, false)
				}
			}
		}
		if !agg {
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

// maxLanes is the most pipeline lanes a plan may run.
const maxLanes = 4

// shingleLaneSet is the lane counts the auto-tuner may consider: a
// pipelined plan keeps to pipelined lane counts.
func shingleLaneSet(p sched.Plan) []int {
	if p.Lanes >= 2 {
		return []int{2, 3, 4}
	}
	return []int{1, 2, 3, 4}
}

// feasible reports whether plan p's device footprint fits free memory: the
// planner's budget is itself a conservative footprint bound for the
// one-lane plan, and a pipelined plan keeps p.Lanes fully independent
// stagings resident.
func (e *passEnv) feasible(freeWords int, plans []batchPlan, p sched.Plan) bool {
	if p.Lanes <= 1 {
		return p.BudgetWords <= freeWords
	}
	sh := shapeLanes(plans, e.s, e.fam.Size(), p.Lanes, e.plan.DeviceAggregate)
	return p.Lanes*e.laneWords(sh) <= freeWords
}

// tune picks the pass's word budget and lane count by predicted virtual
// time: a geometric budget sweep down from sched.FitBudget, crossed with
// shingleLaneSet. ok is false when no candidate is feasible.
func (e *passEnv) tune(m *sched.Model, freeWords int) (sched.Plan, bool) {
	var cands []sched.Plan
	for _, b := range sched.Budgets(sched.FitBudget(freeWords), minShingleBudget(e.s, e.plan.DeviceAggregate)) {
		for _, l := range shingleLaneSet(e.plan) {
			p := e.plan
			p.BudgetWords, p.Lanes = b, l
			cands = append(cands, p)
		}
	}
	planCache := map[int][]batchPlan{}
	plansFor := func(b int) []batchPlan {
		if p, ok := planCache[b]; ok {
			return p
		}
		p, err := planBatches(e.in, e.s, b, e.plan.DeviceAggregate)
		if err != nil {
			p = nil
		}
		planCache[b] = p
		return p
	}
	best, _, ok := sched.Pick(cands, func(p sched.Plan) (float64, bool) {
		plans := plansFor(p.BudgetWords)
		if plans == nil || !e.feasible(freeWords, plans, p) {
			return 0, false
		}
		return e.predict(m, plans, p.Lanes), true
	})
	return best, ok
}

// resolvePlan resolves the pass's plan into e.plan — the tuned plan when
// Options.AutoTune leaves the budget unpinned, else Options.Plan at its
// resolved budget (also when no tuned candidate is feasible) — plans its
// batches and prices them on the calibrated model.
func (e *passEnv) resolvePlan() ([]batchPlan, sched.PlanReport, error) {
	m := e.calibrate()
	freeWords := sched.FreeWords(e.dev)
	tuned := false
	if e.o.AutoTune && e.plan.BudgetWords == 0 {
		var p sched.Plan
		if p, tuned = e.tune(m, freeWords); tuned {
			e.plan = p
		}
	}
	if !tuned {
		e.plan.BudgetWords = e.plan.Budget(freeWords)
		e.plan.Lanes = max(e.plan.Lanes, 1)
	}
	plans, err := planBatches(e.in, e.s, e.plan.BudgetWords, e.plan.DeviceAggregate)
	if err != nil {
		return nil, sched.PlanReport{}, err
	}
	return plans, sched.PlanReport{AutoTuned: tuned, BudgetWords: e.plan.BudgetWords, Lanes: e.plan.Lanes,
		Packed: e.bits > 0, Batches: len(plans), PredictedNs: e.predict(m, plans, e.plan.Lanes)}, nil
}
