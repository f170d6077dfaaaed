package core

import (
	"fmt"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/minwise"
	"gpclust/internal/obs"
	"gpclust/internal/sched"
	"gpclust/internal/thrust"
)

// ClusterGPU runs the gpClust CPU–GPU pipeline of Section III-C and
// Algorithm 2: the CPU loads the graph and partitions it into batches of
// adjacency lists sized to the device memory; each batch is moved to the
// device once and shingled for all c trials (per trial: the transform()
// hash and the segmented top-s selection, fused into one kernel that reads
// the batch image in place, and a device→host transfer of the shingles);
// the CPU aggregates the shingles — merging partial results of lists split
// across batches — into the next-level shingle graph, repeats for the
// second level, and reports dense subgraphs.
//
// The device's virtual clock provides the Table I component breakdown; the
// clustering itself is bit-identical to ClusterSerial for the same Options
// (verified by tests).
func ClusterGPU(g *graph.Graph, dev *gpusim.Device, o Options) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	fam1, fam2 := o.families()
	res := &Result{Backend: "gpu"}

	dev.Reset()
	led := sched.NewLedger(dev, o.Obs)

	// Both passes' hash-pair tables <A_j, B_j> are loop-invariant for the
	// whole run: stage them device-resident once, for every batch and lane
	// of both passes. On allocation or transfer failure the run degrades to
	// the per-batch upload path (residentParams == nil), mirroring the
	// BLOSUM62 residency ladder in pgraph.
	o.residentParams = uploadResidentParams(dev, fam1, fam2)
	freeResident := func() {
		if o.residentParams != nil {
			o.residentParams.Free()
			o.residentParams = nil
		}
	}
	defer freeResident()

	// "CPU initiate[s] the task by loading graph into HM" (Algorithm 2).
	ph := led.Phase(obs.NameRead)
	led.Charge(obs.NameRead, graphDiskNs(g))
	led.EndPhase(ph)

	sw := sched.NewStopwatch()
	in := FromGraph(g)
	ph = led.Phase("shingle-pass1")
	gi, err := runPassGPU(dev, led, in, fam1, o.S1, o, "pass1", &res.Pass1, &res.Faults)
	led.EndPhase(ph)
	if err != nil {
		return nil, fmt.Errorf("core: first-level shingling: %w", err)
	}
	res.Wall.Pass1Ns = sw.Lap()

	// "CPU aggregates sglsH into a graph" — the filter is part of shingle
	// graph preparation.
	ph = led.Phase("aggregate")
	pass2In := gi.filterMinLen(o.S2)
	res.Pass1.SharedLists = pass2In.NumLists()
	led.Charge("aggregate", float64(len(gi.Data))*AggregateNsPerOp)
	led.EndPhase(ph)

	ph = led.Phase("shingle-pass2")
	gii, err := runPassGPU(dev, led, pass2In, fam2, o.S2, o, "pass2", &res.Pass2, &res.Faults)
	led.EndPhase(ph)
	if err != nil {
		return nil, fmt.Errorf("core: second-level shingling: %w", err)
	}
	res.Wall.Pass2Ns = sw.Lap()

	// "final data aggregation on CPU ... CPU reports dense subgraphs".
	ph = led.Phase("report")
	var ops int64
	res.Clustering, ops = reportClusters(g.NumVertices(), gi, gii, o.Mode)
	led.Charge("report", float64(ops)*ReportNsPerOp)
	led.EndPhase(ph)
	res.Wall.ReportNs = sw.Lap()
	res.Wall.TotalNs = sw.Total()

	freeResident()
	dev.Synchronize()
	m := dev.Metrics()
	host := led.Split()
	res.Timings = Timings{
		// ShingleNs is nonzero only when fault recovery degraded batches
		// to host-side shingling.
		ShingleNs:   host.ShingleNs,
		CPUNs:       host.CPUNs,
		GPUNs:       m.KernelTimeNs,
		H2DNs:       m.H2DTimeNs,
		D2HNs:       m.D2HTimeNs,
		DiskIONs:    host.DiskIONs,
		TotalNs:     dev.HostTime(),
		H2DSetupNs:  m.H2DSetupNs,
		H2DVolumeNs: m.H2DVolumeNs,
		D2HSetupNs:  m.D2HSetupNs,
		D2HVolumeNs: m.D2HVolumeNs,
		H2DBytes:    m.H2DBytes,
		D2HBytes:    m.D2HBytes,
	}
	assertDeviceClean(dev)
	recordRunMetrics(o.Obs, res)
	return res, nil
}

// batchPiece is one device segment: a whole list or a contiguous piece of a
// list that had to be split across batches.
type batchPiece struct {
	list   int   // index into the pass input SegGraph
	lo, hi int64 // element range within that list
}

func (p batchPiece) words() int { return int(p.hi - p.lo) }

// isWhole reports whether the piece covers its entire list.
func (p batchPiece) isWhole(sg *SegGraph) bool {
	return p.lo == 0 && p.hi == sg.Offsets[p.list+1]-sg.Offsets[p.list]
}

// batchPlan is one device batch of adjacency-list pieces.
type batchPlan struct {
	pieces []batchPiece
	words  int
}

// pieceOverhead is the per-piece device footprint the batch planner
// reserves: an offset word plus two s-word output slots, and under
// gpuAggregate the aggregation step's extra per-piece rows (owner, flag,
// key halves, value, packed records).
func pieceOverhead(s int, gpuAggregate bool) int {
	overhead := 2 * (s + 2)
	if gpuAggregate {
		overhead += 9
	}
	return overhead
}

// minShingleBudget is the smallest budget planBatches accepts: one data
// word (three with its hashed copies), one piece's overhead and the output
// slack.
func minShingleBudget(s int, gpuAggregate bool) int {
	return 3 + pieceOverhead(s, gpuAggregate) + 2
}

// planBatches partitions the pass input into batches whose device footprint
// fits the word budget, splitting individual lists only when a single list
// alone exceeds it. The footprint is sized conservatively for double
// buffering — per data word, the data buffer plus two hashed copies; per
// piece, pieceOverhead.
func planBatches(in *SegGraph, s int, budgetWords int, gpuAggregate bool) ([]batchPlan, error) {
	if budgetWords < minShingleBudget(s, gpuAggregate) {
		return nil, fmt.Errorf("core: batch budget of %d words cannot hold any list", budgetWords)
	}
	overhead := pieceOverhead(s, gpuAggregate)
	// Largest data footprint a single piece may have.
	maxPieceWords := max((budgetWords-overhead-2)/3, 1)

	// Pre-split lists into pieces no larger than maxPieceWords, then pack
	// the pieces with the shared greedy planner.
	var pieces []batchPiece
	for i := 0; i < in.NumLists(); i++ {
		listLen := int(in.Offsets[i+1] - in.Offsets[i])
		lo := 0
		for lo < listLen || listLen == 0 {
			n := min(listLen-lo, maxPieceWords)
			pieces = append(pieces, batchPiece{list: i, lo: int64(lo), hi: int64(lo + n)})
			lo += n
			if listLen == 0 {
				break
			}
		}
	}
	spans, err := sched.PlanSpans(len(pieces), budgetWords, pieceSizer{pieces, overhead})
	if err != nil {
		return nil, err
	}
	var plans []batchPlan
	for _, sp := range spans {
		cur := batchPlan{pieces: pieces[sp.Lo:sp.Hi:sp.Hi]}
		for _, pc := range cur.pieces {
			cur.words += pc.words()
		}
		plans = append(plans, cur)
	}
	return plans, nil
}

// pieceSizer feeds planBatches' additive piece costs to sched.PlanSpans.
type pieceSizer struct {
	pieces   []batchPiece
	overhead int
}

func (z pieceSizer) Reset()         {}
func (z pieceSizer) Commit(int)     {}
func (z pieceSizer) Cost(k int) int { return 3*z.pieces[k].words() + z.overhead }
func (z pieceSizer) Fail(k, need int) error {
	// Unreachable: maxPieceWords caps every piece's cost at the budget.
	return fmt.Errorf("core: piece of %d words needs %d budget words", z.pieces[k].words(), need)
}

// pendingShingle accumulates the per-trial partial minima of a list split
// across batches; the CPU merges each new piece's partial result into it
// ("a subsequent data aggregation on the CPU side will ... merge the
// different copies of shingles into one correct copy for the split
// adjacency list").
type pendingShingle struct {
	perTrial [][]uint32 // c slices of ≤ s ascending minima
}

// mergeTopS merges a piece's sentinel-padded ascending minima into the
// accumulated ascending minima, keeping at most s values.
func mergeTopS(acc []uint32, piece []uint32, s int) []uint32 {
	merged := make([]uint32, 0, s)
	i, j := 0, 0
	for len(merged) < s {
		var take uint32
		switch {
		case i < len(acc) && (j >= len(piece) || acc[i] <= piece[j]):
			take = acc[i]
			i++
		case j < len(piece):
			take = piece[j]
			j++
		default:
			return merged
		}
		if take == thrust.TopSSentinel {
			continue
		}
		merged = append(merged, take)
	}
	return merged
}

// passEnv is the state one shingling pass threads through its executor,
// its recovery ladders and its host fallback: the device and the run's
// ledger, the pass input and trial family, the resolved options, and the
// aggregation outputs every batch appends to.
type passEnv struct {
	dev *gpusim.Device
	led *sched.Ledger
	in  *SegGraph
	fam minwise.Family
	s   int
	o   Options

	tuplesByTrial [][]tuple
	// tupleBlock is the capacity presizeTuples gave each trial's tuple
	// stream, or -1 when the streams grow on demand (GPUAggregate).
	tupleBlock int
	// sortedByTrial holds device-sorted tuple runs per trial; non-nil only
	// under GPUAggregate.
	sortedByTrial [][][]tuple
	pending       map[int]*pendingShingle
	stats         *PassStats
	rec           *faults.Recovery
}

// runPassGPU executes one shingling pass (Algorithm 1 inside Algorithm 2's
// batch loop) on the device and aggregates the result into the next-level
// shingle graph on the CPU.
func runPassGPU(dev *gpusim.Device, led *sched.Ledger, in *SegGraph, fam minwise.Family, s int,
	o Options, label string, stats *PassStats, rec *faults.Recovery) (*SegGraph, error) {

	stats.Lists = in.NumLists()
	stats.Elements = int64(len(in.Data))
	c := fam.Size()
	e := &passEnv{dev: dev, led: led, in: in, fam: fam, s: s, tuplesByTrial: make([][]tuple, c), tupleBlock: -1,
		pending: make(map[int]*pendingShingle), stats: stats, rec: rec}
	if o.GPUAggregate {
		e.sortedByTrial = make([][][]tuple, c)
	}

	if in.NumLists() == 0 {
		out, _ := buildShingleGraph(e.tuplesByTrial, 1, stats) // no tuples: no work
		return out, nil
	}
	for i := 0; i < in.NumLists(); i++ {
		if int(in.Offsets[i+1]-in.Offsets[i]) < s {
			stats.SkippedShort++
		}
	}
	if !o.GPUAggregate {
		e.presizeTuples(in.NumLists() - stats.SkippedShort)
	}

	// Resolve the pass's packed image width: every adjacency value at the
	// smallest width that holds the pass's maximum. Planning-time host work,
	// uncharged like the batch planner itself.
	o.dataBits = packWidth(o, in)

	lanes := 1
	if o.PipelineBatches {
		lanes = 2
	}
	var plans []batchPlan
	var report sched.PlanReport
	if o.BatchWords == 0 && o.AutoTune {
		var err error
		report, plans, lanes, err = autotunePass(dev, in, fam, s, o)
		if err != nil {
			return nil, err
		}
	} else {
		budget := o.BatchWords
		if budget == 0 {
			budget = legacyShingleBudget(dev, o)
		}
		var err error
		plans, err = planBatches(in, s, budget, o.GPUAggregate)
		if err != nil {
			return nil, err
		}
		m := calibrateShingleModel(dev.Config(), in, fam, s, o)
		report = sched.PlanReport{BudgetWords: budget, Lanes: lanes, Batches: len(plans),
			PredictedNs: predictShinglePlans(m, in, fam, s, o, plans, lanes)}
	}
	report.Packed = o.dataBits > 0
	e.o = o
	stats.Batches = len(plans)

	splitLists := make(map[int]bool)
	for _, p := range plans {
		for _, pc := range p.pieces {
			if !pc.isWhole(in) {
				splitLists[pc.list] = true
			}
		}
	}
	stats.SplitLists = len(splitLists)

	schedT0 := dev.HostTime()
	var err error
	if lanes >= 2 {
		err = e.runPass(label, plans, lanes)
	} else {
		err = e.runBatches(label, plans)
	}
	if err != nil {
		return nil, err
	}
	report.ActualNs = dev.HostTime() - schedT0
	stats.Plan = report
	sched.RecordPlan(o.Obs, "gpclust_"+label, report)
	if len(e.pending) != 0 {
		return nil, fmt.Errorf("core: %d split lists never completed", len(e.pending))
	}
	assertTupleBlocks(e.tuplesByTrial, e.tupleBlock)

	var out *SegGraph
	var ops int64
	if o.GPUAggregate {
		out, ops = buildShingleGraphPresorted(e.sortedByTrial, e.tuplesByTrial, o.workerCount(), stats)
	} else {
		out, ops = buildShingleGraph(e.tuplesByTrial, o.workerCount(), stats)
	}
	led.Charge("split-merge", float64(ops)*AggregateNsPerOp)
	return out, nil
}

// presizeTuples backs every trial's tuple stream with its own exactly sized
// window of one block. A list of at least s elements, whole or split, emits
// exactly one tuple per trial and a shorter one none, so the number of long
// lists is every stream's final length: the streams never grow, and a
// rolled-back attempt (resilient.go) truncates within its window. Only
// whole-list streams are sized this way: under GPUAggregate the streams
// carry the residue of split lists, which an OOM split can add to mid-pass.
func (e *passEnv) presizeTuples(long int) {
	block := make([]tuple, len(e.tuplesByTrial)*long)
	for j := range e.tuplesByTrial {
		e.tuplesByTrial[j] = block[j*long : j*long : (j+1)*long]
	}
	e.tupleBlock = long
}

// packWidth resolves a pass's packed image width: the smallest bit width
// that holds every adjacency value, or 0 (unpacked) when Packed is off or
// the values need full words anyway.
func packWidth(o Options, in *SegGraph) int {
	if !o.Packed || len(in.Data) == 0 {
		return 0
	}
	if bits := gpusim.MinBits(in.Data); bits < 32 {
		return bits
	}
	return 0
}

// uploadResidentParams stages both trial families' <A_j, B_j> tables in one
// device buffer for the whole run ([2·c1 words | 2·c2 words]). Returns nil
// on any allocation or transfer failure: the caller then degrades to the
// per-trial upload path, exactly like a failed BLOSUM62 residency upload.
func uploadResidentParams(dev *gpusim.Device, fam1, fam2 minwise.Family) *gpusim.Buffer {
	host := append(hashParams(fam1), hashParams(fam2)...)
	buf, err := dev.Malloc(len(host))
	if err != nil {
		return nil
	}
	if err := dev.CopyH2D(buf, 0, host); err != nil {
		buf.Free()
		return nil
	}
	return buf
}

// hashParams flattens a trial family's <A_j, B_j> table into 2·c words.
func hashParams(fam minwise.Family) []uint32 {
	host := make([]uint32, 0, 2*fam.Size())
	for _, h := range fam.Pairs {
		host = append(host, uint32(h.A), uint32(h.B))
	}
	return host
}

// batchImage is the device-resident form of one batch's adjacency data:
// the plain full-width word buffer (bits == 0), or a packed image at bits
// per value. The fused kernels read either in place.
type batchImage struct {
	buf  *gpusim.Buffer
	bits int
}

// imageWords is the device size of a batch image of n values: the packed
// length at bits per value, or n full words when unpacked.
func imageWords(n, bits int) int {
	if bits > 0 {
		return gpusim.PackedLen(n, bits)
	}
	return n
}

// trialKernels enqueues one trial's device work over the batch image: the
// fused single launch (hash + top-s selection reading the image in place),
// or under UseFullSort the fused sort + gather pair, which stages the sorted
// hashes in hashBuf. Both forms write the trial's sentinel-padded minima
// rows at out[outBase:...] and are bit-identical.
func trialKernels(dev *gpusim.Device, st *gpusim.Stream, img batchImage, hashBuf *gpusim.Buffer,
	segs thrust.Segments, s int, o Options, h minwise.HashPair,
	outBuf *gpusim.Buffer, outBase int) error {

	if !o.UseFullSort {
		return thrust.FusedHashTopS(dev, st, img.buf, img.bits, segs, s, h, outBuf, outBase)
	}
	if err := thrust.FusedHashSort(dev, st, img.buf, img.bits, segs, h, hashBuf); err != nil {
		return err
	}
	return gatherTopS(dev, st, hashBuf, segs, s, outBuf, outBase)
}

// gatherTopS gathers the first s elements of each (already sorted) segment
// of hashBuf into sentinel-padded rows at outBuf[outBase:...): the tail of
// the full-sort path.
func gatherTopS(dev *gpusim.Device, st *gpusim.Stream, hashBuf *gpusim.Buffer,
	segs thrust.Segments, s int, outBuf *gpusim.Buffer, outBase int) error {
	const bd = 256
	grid := (segs.NumSegs + bd - 1) / bd
	dev.NextKernelName("gather_top_s")
	return dev.LaunchOnStream(st, grid, bd, func(ctx *gpusim.ThreadCtx) {
		seg := ctx.GlobalID()
		if seg >= segs.NumSegs {
			return
		}
		off := segs.Offsets.Words()
		lo, hi := int(off[seg]), int(off[seg+1])
		n := hi - lo
		dst := outBuf.Words()[outBase+seg*s : outBase+(seg+1)*s]
		take := n
		if take > s {
			take = s
		}
		copy(dst[:take], hashBuf.Words()[lo:lo+take])
		for i := take; i < s; i++ {
			dst[i] = thrust.TopSSentinel
		}
		ctx.GlobalRead(segs.Offsets, seg, 2, 1)
		ctx.GlobalRead(hashBuf, lo, take, 1)
		ctx.GlobalWrite(outBuf, outBase+seg*s, s, 1)
		ctx.Ops(s + 2)
	})
}

// emitTrialTuples converts one trial's device output rows into <shingle,
// owner> tuples, merging the partial minima of split lists. It returns the
// aggregation operations it counted.
func (e *passEnv) emitTrialTuples(plan *batchPlan, trial int, hostOut []uint32) int64 {
	s := e.s
	var ops int64
	for pi, pc := range plan.pieces {
		vals := hostOut[pi*s : (pi+1)*s]
		ops += int64(s)
		if !pc.isWhole(e.in) {
			ops += e.mergeSplitPiece(pc, trial, vals)
			continue
		}
		if pc.words() < s {
			continue // no shingle for short lists
		}
		e.tuplesByTrial[trial] = append(e.tuplesByTrial[trial], tuple{
			key:   shingleKey(uint32(trial), vals),
			owner: e.in.Owner(pc.list),
		})
		e.stats.Tuples++
	}
	return ops
}

// mergeSplitPiece merges one split piece's partial minima for trial into
// its list's pending state. After the list's last piece has merged its last
// trial, it emits every trial's merged shingle and drops the pending state.
// It returns the aggregation operations the merge costs.
func (e *passEnv) mergeSplitPiece(pc batchPiece, trial int, vals []uint32) int64 {
	c := e.fam.Size()
	p := e.pending[pc.list]
	if p == nil {
		p = &pendingShingle{perTrial: make([][]uint32, c)}
		e.pending[pc.list] = p
	}
	p.perTrial[trial] = mergeTopS(p.perTrial[trial], vals, e.s)
	ops := int64(2 * e.s)
	if pc.hi != e.in.Offsets[pc.list+1]-e.in.Offsets[pc.list] || trial != c-1 {
		return ops
	}
	for tj, minima := range p.perTrial {
		if len(minima) < e.s {
			continue // whole list shorter than s
		}
		e.tuplesByTrial[tj] = append(e.tuplesByTrial[tj], tuple{
			key:   shingleKey(uint32(tj), minima),
			owner: e.in.Owner(pc.list),
		})
		e.stats.Tuples++
	}
	delete(e.pending, pc.list)
	return ops
}
