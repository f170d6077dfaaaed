package core

import (
	"fmt"

	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
	"gpclust/internal/sched"
	"gpclust/internal/thrust"
)

// runBatchesPipelined replaces runPassGPU's strictly sequential batch loop
// when Options.PipelineBatches is set (or the auto-tuner picks a multi-lane
// plan). Two things change relative to the sequential loop, both aimed at the copy engine — which the Table I breakdown shows
// is the bottleneck: every transfer pays a fixed setup cost ("the overhead
// to invoke the data transfer mechanism"), and one DMA engine serializes
// all of them.
//
//  1. Transfer coalescing. The c hash-pair uploads per batch collapse into
//     one per-lane table upload for the whole pass, and the per-trial
//     shingle downloads collapse into one download per *group* of trials:
//     each trial's top-s rows land at a distinct offset of a packed output
//     buffer (SegmentedTopSAt) and the group transfers back with a single
//     D2H. The group size is chosen so the packed output is no larger than
//     the batch data itself.
//
//  2. Double-buffered staging. The pass is flattened into a stream of
//     (batch, trial-group) work items round-robined across N fully
//     independent lanes — each lane owns a stream plus device staging
//     (data, offsets, hash, packed output, params) sized for the largest
//     batch of the plan, and re-stages a batch's data the first time one of
//     its items lands on the lane:
//
//     lane 0:  [H2D b0 | g0 kernels | D2H g0]  [g2 kernels | D2H g2] ...
//     lane 1:           [H2D b0 | g1 kernels | D2H g1]  [g3 kernels | ...
//     host:                         [merge g0]  [merge g1]  [merge g2] ...
//
//     The round-robin ordering contract lives in sched.RunLanes: enqueuing
//     item i only waits for its lane's previous occupant (item i-N) to
//     drain, so the next group's kernels and the next batch's host→device
//     staging overlap the previous groups' device→host shingle transfers
//     and the CPU-side (split-list) merging — across batch boundaries.
//
// End-to-end time approaches max(copy engine, compute engine, host CPU)
// instead of their sum, with far fewer fixed-cost transfers on the critical
// copy engine: the asynchronous operation the paper names as the path to
// better performance (Sections III-C, V), generalized over the whole pass.
//
// Output equivalence: items drain in item order, which is exactly the
// sequential loop's (batch, trial) nesting, so tuple emission and pending
// split-list merging happen in the identical order and the clustering is
// bit-identical for any lane count.

// shingleLane is one pipeline lane's device staging. Under a packed+fused
// plan `data` holds the packed image the fused kernels read in place; under
// a packed+unfused plan `packed` receives the H2D image and the unpack
// kernel expands it into the full-width `data`. `hash` exists only when the
// plan's trial kernels stage full-width hashes (unfused, or full-sort);
// `params` only when the hash-pair table is not device-resident run-wide.
type shingleLane struct {
	data, packed, off, hash, out, params *gpusim.Buffer
	stream                               *gpusim.Stream
	hostOut                              []uint32 // in-flight item's packed shingle rows
	batch                                int      // batch resident in data/off (-1: none)
}

// shingleLanes adapts the shingling pass to sched.LaneWorkload: items are
// (batch, trial-group) pairs in batch-major order.
type shingleLanes struct {
	dev                 *gpusim.Device
	in                  *SegGraph
	fam                 minwise.Family
	s, c                int
	o                   Options
	label               string
	plans               []batchPlan
	groupTrials, groups int
	tuplesByTrial       [][]tuple
	pending             map[int]*pendingShingle
	acct                *cpuAccount
	stats               *PassStats

	lanes      []*shingleLane
	hostParams []uint32 // <A_j, B_j> table for all c trials
	// Host staging for the current batch, shared across lanes: the H2D
	// copies capture contents at enqueue, and every item of batch k
	// enqueues before batch k+1 is staged. hostPacked is the batch's packed
	// image, built once per batch alongside hostData when the pass packs.
	hostData   []uint32
	hostPacked []uint32
	hostOff    []uint32
	staged     int // batch resident in hostData (-1: none)
}

// itemGroup decodes a work item into its batch and trial group.
func (w *shingleLanes) itemGroup(item int) (k, t0, t1 int) {
	k = item / w.groups
	t0 = (item % w.groups) * w.groupTrials
	t1 = min(t0+w.groupTrials, w.c)
	return
}

func (w *shingleLanes) Prepare(item int) {
	k, t0, _ := w.itemGroup(item)
	if t0 != 0 || w.staged == k {
		return // batch already staged by its first item
	}
	plan := &w.plans[k]
	w.hostData = w.hostData[:0]
	for pi, pc := range plan.pieces {
		base := w.in.Offsets[pc.list]
		w.hostData = append(w.hostData, w.in.Data[base+pc.lo:base+pc.hi]...)
		w.hostOff[pi+1] = uint32(len(w.hostData))
	}
	w.hostOff[0] = 0
	w.acct.aggOps += int64(len(w.hostData) + len(plan.pieces))
	chargeHost(w.dev, w.o.Obs, "stage", float64(len(w.hostData)+len(plan.pieces))*AggregateNsPerOp)
	if w.o.dataBits > 0 {
		w.hostPacked = gpusim.PackBits(w.hostData, w.o.dataBits)
		w.acct.packOps += int64(len(w.hostData))
		chargeHost(w.dev, w.o.Obs, "pack", float64(len(w.hostData))*PackNsPerOp)
	}
	w.staged = k
}

func (w *shingleLanes) Enqueue(item, lane int) error {
	k, t0, t1 := w.itemGroup(item)
	l := w.lanes[lane]
	plan := &w.plans[k]
	numPieces := len(plan.pieces)
	if l.batch != k {
		if l.batch < 0 && l.params != nil {
			// First use of the lane: stage the trial table.
			if err := w.dev.CopyH2DAsync(l.stream, l.params, 0, w.hostParams); err != nil {
				return err
			}
		}
		// First item of batch k on this lane: stage the batch — the packed
		// image when the pass packs, expanded on-stream when the plan is
		// unfused so the trial kernels read full-width words.
		bits := w.o.dataBits
		switch {
		case bits > 0 && w.o.fusedPlan:
			if err := w.dev.CopyH2DAsync(l.stream, l.data, 0, w.hostPacked); err != nil {
				return err
			}
		case bits > 0:
			if err := w.dev.CopyH2DAsync(l.stream, l.packed, 0, w.hostPacked); err != nil {
				return err
			}
		default:
			if err := w.dev.CopyH2DAsync(l.stream, l.data, 0, w.hostData); err != nil {
				return err
			}
		}
		if err := w.dev.CopyH2DAsync(l.stream, l.off, 0, w.hostOff[:numPieces+1]); err != nil {
			return err
		}
		if bits > 0 && !w.o.fusedPlan {
			if err := thrust.UnpackBitsOnStream(w.dev, l.stream, l.packed, l.data,
				len(w.hostData), bits); err != nil {
				return err
			}
		}
		l.batch = k
	}
	segs := thrust.Segments{Offsets: l.off, NumSegs: numPieces}
	img := batchImage{buf: l.data}
	if w.o.dataBits > 0 && w.o.fusedPlan {
		img.bits = w.o.dataBits
	}
	for trial := t0; trial < t1; trial++ {
		h := w.fam.Pairs[trial]
		if err := trialKernels(w.dev, l.stream, img, l.hash, segs, w.s, w.o,
			len(w.hostData), h, l.out, (trial-t0)*numPieces*w.s); err != nil {
			return err
		}
	}
	return w.dev.CopyD2HAsync(l.stream, l.hostOut[:(t1-t0)*numPieces*w.s], l.out, 0)
}

func (w *shingleLanes) Complete(item, lane int) {
	k, t0, t1 := w.itemGroup(item)
	l := w.lanes[lane]
	l.stream.Synchronize()
	plan := &w.plans[k]
	before := w.acct.aggOps
	rowWords := len(plan.pieces) * w.s
	for trial := t0; trial < t1; trial++ {
		row := l.hostOut[(trial-t0)*rowWords : (trial-t0+1)*rowWords]
		emitTrialTuples(w.in, *plan, w.s, trial, w.c, row, w.tuplesByTrial, w.pending, w.acct, w.stats)
	}
	chargeHost(w.dev, w.o.Obs, "aggregate", float64(w.acct.aggOps-before)*AggregateNsPerOp)
}

func (w *shingleLanes) SpanName(item int) string {
	k, t0, t1 := w.itemGroup(item)
	return fmt.Sprintf("%s.b%d.t%d-%d", w.label, k, t0, t1)
}

func runBatchesPipelined(dev *gpusim.Device, in *SegGraph, fam minwise.Family, s int,
	o Options, label string, plans []batchPlan, lanes int, tuplesByTrial [][]tuple,
	pending map[int]*pendingShingle, acct *cpuAccount, stats *PassStats) error {

	if len(plans) == 0 {
		return nil
	}
	if lanes < 2 {
		lanes = 2
	}
	c := fam.Size()
	maxWords, maxPieces := 1, 1
	for _, p := range plans {
		maxWords = max(maxWords, p.words)
		maxPieces = max(maxPieces, len(p.pieces))
	}
	// Trials per item: pack as many trials' output rows as fit in a buffer
	// the size of the batch data, so coalescing never dominates the lane's
	// device footprint.
	groupTrials := min(max(maxWords/(maxPieces*s), 1), c)

	// The hash-pair table <A_j, B_j> for all c trials is loop-invariant:
	// upload it once per lane instead of once per trial per batch.
	hostParams := make([]uint32, 0, 2*c)
	for _, h := range fam.Pairs {
		hostParams = append(hostParams, uint32(h.A), uint32(h.B))
	}

	w := &shingleLanes{
		dev: dev, in: in, fam: fam, s: s, c: c, o: o, label: label,
		plans: plans, groupTrials: groupTrials, groups: (c + groupTrials - 1) / groupTrials,
		tuplesByTrial: tuplesByTrial, pending: pending, acct: acct, stats: stats,
		lanes:      make([]*shingleLane, lanes),
		hostParams: hostParams,
		hostData:   make([]uint32, 0, maxWords),
		hostOff:    make([]uint32, maxPieces+1),
		staged:     -1,
	}
	freeAll := func() {
		for _, l := range w.lanes {
			if l == nil {
				continue
			}
			for _, b := range []*gpusim.Buffer{l.data, l.packed, l.off, l.hash, l.out, l.params} {
				if b != nil {
					b.Free()
				}
			}
		}
	}
	packedWords := gpusim.PackedLen(maxWords, o.dataBits)
	for i := range w.lanes {
		l := &shingleLane{stream: dev.NewStream(), batch: -1}
		w.lanes[i] = l
		var err error
		alloc := func(dst **gpusim.Buffer, n int) {
			if err == nil {
				*dst, err = dev.Malloc(n)
			}
		}
		if o.dataBits > 0 && o.fusedPlan {
			alloc(&l.data, packedWords) // the packed image, read in place
		} else {
			alloc(&l.data, maxWords)
			if o.dataBits > 0 {
				alloc(&l.packed, packedWords) // H2D staging for the unpack
			}
		}
		alloc(&l.off, maxPieces+1)
		if needsHashBuf(o) {
			alloc(&l.hash, maxWords)
		}
		alloc(&l.out, groupTrials*maxPieces*s)
		if o.residentParams == nil {
			alloc(&l.params, 2*c)
		}
		if err != nil {
			freeAll()
			return err
		}
		l.hostOut = make([]uint32, groupTrials*maxPieces*s)
	}
	defer freeAll()

	return sched.RunLanes(dev, o.Obs, len(plans)*w.groups, lanes, w)
}
