package core

import (
	"fmt"

	"gpclust/internal/gpusim"
	"gpclust/internal/sched"
	"gpclust/internal/thrust"
)

// The shingling executor: the one batch loop of Algorithm 2, driven by
// sched.RunLanes. A pass is flattened into a stream of (batch, trial-group)
// work items round-robined across N lanes; each lane owns device staging
// (batch image, offsets, hash, output rows, params) and, with N ≥ 2, a
// stream. Every trial runs the fused shingling kernels, which read the
// batch image in place: packed at the pass's MinBits width, or plain words.
// Plans differ along independent dimensions — lane count, device
// aggregation, packed images, full sort — and every plan drains items in
// the sequential (batch, trial) order, so tuple emission and split-list
// merging happen in the identical order and the clustering is
// bit-identical for every plan.
//
// One lane is the paper's synchronous Thrust loop ("the data movement
// operations are implemented using synchronous mechanism"): it runs on the
// default stream, one trial per item and per D2H, allocates each batch's
// buffers at the batch's own size, and uploads the trial's <A_j, B_j> pair
// before each trial unless the table is device-resident. The recovery
// ladder runs it over one batch at a time.
//
// Two or more lanes pipeline the pass, aimed at the copy engine that the
// Table I breakdown shows is the bottleneck: every transfer pays a fixed
// setup cost and one DMA engine serializes all of them.
//
//  1. Transfer coalescing. The hash-pair uploads collapse into one table
//     upload per lane, and the per-trial shingle downloads collapse into
//     one download per group of trials: each trial's top-s rows land at a
//     distinct offset of the lane's output buffer and the group transfers
//     back with a single D2H. The group is sized so the rows are no larger
//     than the batch data itself.
//
//  2. Overlap. Lanes are allocated once for the plan's largest batch and
//     re-stage a batch the first time one of its items lands on them:
//
//     lane 0:  [H2D b0 | g0 kernels | D2H g0]  [g2 kernels | D2H g2] ...
//     lane 1:           [H2D b0 | g1 kernels | D2H g1]  [g3 kernels | ...
//     host:                         [merge g0]  [merge g1]  [merge g2] ...
//
//     Enqueuing item i only waits for its lane's previous occupant (item
//     i-N) to drain, so the next group's kernels and the next batch's
//     staging overlap earlier groups' D2H transfers and host merging,
//     across batch boundaries: the asynchronous operation the paper names
//     as the path to better performance (Sections III-C, V).
//
// Device aggregation (gpuagg.go) is a per-trial step of the item under any
// lane count: after the trial's kernels it keys, sorts and packs the
// trial's records on the device, and the D2H brings back the valid records
// plus the split pieces' minima rows.

// shingleLane is one lane's device staging. `data` holds the batch image —
// packed or plain words — that the fused kernels read in place. `hash`
// exists only under UseFullSort, where the fused sort stages full-width
// hashes for the gather; `params` only when the hash-pair table is not
// device-resident run-wide.
type shingleLane struct {
	data, off, hash, out, params *gpusim.Buffer
	agg                          aggBuffers
	stream                       *gpusim.Stream // nil: the default stream
	hostOut                      []uint32       // in-flight item's shingle rows
	hostRecs                     []uint32       // in-flight trial's aggregated records
	batch                        int            // batch resident on the lane (-1: none)
	aggRows                                     // resident batch's aggregation shape
}

// free releases every device buffer the lane holds.
func (l *shingleLane) free() {
	for _, b := range append([]**gpusim.Buffer{&l.data, &l.off, &l.hash, &l.out, &l.params},
		l.agg.bufs()...) {
		if *b != nil {
			(*b).Free()
			*b = nil
		}
	}
}

// laneShape sizes the lanes of one executor run: the largest batch's data
// words and pieces, and the trials one work item covers.
type laneShape struct {
	maxWords, maxPieces, groupTrials int
}

// shapeLanes computes the lane shape of a plan. Only a pipelined plan
// without device aggregation groups trials: it packs as many trials' output
// rows as fit in a buffer the size of the batch data, so coalescing never
// dominates the lane's device footprint.
func shapeLanes(plans []batchPlan, s, c, lanes int, gpuAggregate bool) laneShape {
	sh := laneShape{maxWords: 1, maxPieces: 1, groupTrials: 1}
	for _, p := range plans {
		sh.maxWords = max(sh.maxWords, p.words)
		sh.maxPieces = max(sh.maxPieces, len(p.pieces))
	}
	if lanes >= 2 && !gpuAggregate {
		sh.groupTrials = min(max(sh.maxWords/(sh.maxPieces*s), 1), c)
	}
	return sh
}

// groups is the number of work items per batch.
func (sh laneShape) groups(c int) int { return (c + sh.groupTrials - 1) / sh.groupTrials }

// item decodes work item i into its batch and trial range [t0, t1).
func (sh laneShape) item(i, c int) (k, t0, t1 int) {
	g := sh.groups(c)
	k = i / g
	t0 = (i % g) * sh.groupTrials
	return k, t0, min(t0+sh.groupTrials, c)
}

// laneWords is the device footprint of one pipelined lane: what
// allocLanes allocates for it.
func (sh laneShape) laneWords(s, c int, o Options) int {
	words := imageWords(sh.maxWords, o.dataBits)
	if o.UseFullSort {
		words += sh.maxWords
	}
	words += (sh.maxPieces + 1) + sh.groupTrials*sh.maxPieces*s
	if o.residentParams == nil {
		words += 2 * c
	}
	if o.GPUAggregate {
		words += aggWordsPerPiece * sh.maxPieces
	}
	return words
}

// shingleLanes adapts the shingling pass to sched.LaneWorkload: items are
// (batch, trial-group) pairs in batch-major order.
type shingleLanes struct {
	*passEnv
	label string
	plans []batchPlan
	shape laneShape
	c     int
	sync  bool // the one-lane plan: default stream, per-batch allocation

	lanes      []*shingleLane
	hostParams []uint32 // <A_j, B_j> table for all c trials
	// Host staging for the current batch, shared across lanes: the H2D
	// copies capture contents at enqueue, and every item of batch k
	// enqueues before batch k+1 is staged. hostPacked is the batch's packed
	// image, built once per batch alongside hostData when the pass packs;
	// hostOwner and hostFlag are its aggregation rows.
	hostData, hostPacked, hostOff []uint32
	hostOwner, hostFlag           []uint32
	staged                        int // batch resident in hostData (-1: none)
}

// runLanes runs the plans through the executor on the given lane count.
func (e *passEnv) runLanes(label string, plans []batchPlan, lanes int) error {
	if len(plans) == 0 {
		return nil
	}
	c := e.fam.Size()
	sh := shapeLanes(plans, e.s, c, lanes, e.o.GPUAggregate)
	w := &shingleLanes{
		passEnv: e, label: label, plans: plans, shape: sh, c: c, sync: lanes < 2,
		lanes:      make([]*shingleLane, lanes),
		hostParams: hashParams(e.fam),
		hostData:   make([]uint32, 0, sh.maxWords),
		hostOff:    make([]uint32, sh.maxPieces+1),
		staged:     -1,
	}
	if e.o.GPUAggregate {
		w.hostOwner = make([]uint32, sh.maxPieces)
		w.hostFlag = make([]uint32, sh.maxPieces)
	}
	defer func() {
		for _, l := range w.lanes {
			if l != nil {
				l.free()
			}
		}
	}()
	if err := w.allocLanes(); err != nil {
		return err
	}
	// The one-lane plan's batch span is recorded on the batches track by
	// the recovery loop; only pipelined lanes get lane tracks.
	r := e.o.Obs
	if w.sync {
		r = nil
	}
	return sched.RunLanes(e.dev, r, len(plans)*sh.groups(c), lanes, w)
}

// allocLanes creates the lanes. Pipelined lanes allocate their staging up
// front for the plan's largest batch; the one-lane plan allocates per
// batch, in stageBatch.
func (w *shingleLanes) allocLanes() error {
	sh, o := w.shape, w.o
	for i := range w.lanes {
		l := &shingleLane{batch: -1, hostOut: make([]uint32, sh.groupTrials*sh.maxPieces*w.s)}
		if o.GPUAggregate {
			l.hostRecs = make([]uint32, 3*sh.maxPieces)
		}
		w.lanes[i] = l
		if w.sync {
			continue
		}
		l.stream = w.dev.NewStream()
		ch := &chain{dev: w.dev}
		ch.buf(&l.data, imageWords(sh.maxWords, o.dataBits))
		ch.buf(&l.off, sh.maxPieces+1)
		if o.UseFullSort {
			ch.buf(&l.hash, sh.maxWords)
		}
		ch.buf(&l.out, sh.groupTrials*sh.maxPieces*w.s)
		if o.residentParams == nil {
			ch.buf(&l.params, 2*w.c)
		}
		if o.GPUAggregate {
			l.agg.alloc(ch, sh.maxPieces)
		}
		if ch.err != nil {
			return ch.err
		}
	}
	return nil
}

func (w *shingleLanes) Prepare(item int) {
	k, t0, _ := w.shape.item(item, w.c)
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
	w.led.Charge("stage", float64(len(w.hostData)+len(plan.pieces))*AggregateNsPerOp)
	if w.o.dataBits > 0 {
		w.hostPacked = gpusim.PackBits(w.hostData, w.o.dataBits)
		w.led.Charge("pack", float64(len(w.hostData))*PackNsPerOp)
	}
	if w.o.GPUAggregate {
		stageAggRows(w.in, plan, w.s, w.hostOwner, w.hostFlag)
	}
	w.staged = k
}

// stageBatch makes batch k resident on lane l: the trial table on a
// pipelined lane's first use, the batch image, its offsets and, under
// device aggregation, its owner and flag rows. The one-lane plan allocates
// each buffer here at the batch's size, in the synchronous loop's order
// (image, offsets, then the trial buffers), while pipelined lanes only copy
// into the staging allocLanes sized for the largest batch.
func (w *shingleLanes) stageBatch(l *shingleLane, k int) error {
	plan := &w.plans[k]
	np, words := len(plan.pieces), plan.words
	if w.sync {
		l.free() // the previous batch's buffers
	}
	ch := &chain{dev: w.dev}
	if !w.sync && l.batch < 0 && l.params != nil {
		ch.h2d(l.stream, l.params, w.hostParams)
	}
	img := w.hostData
	if w.o.dataBits > 0 {
		img = w.hostPacked
	}
	ch.buf(&l.data, len(img))
	ch.h2d(l.stream, l.data, img)
	ch.buf(&l.off, np+1)
	ch.h2d(l.stream, l.off, w.hostOff[:np+1])
	if w.o.UseFullSort {
		ch.buf(&l.hash, words)
	}
	ch.buf(&l.out, np*w.s)
	if w.o.residentParams == nil {
		ch.buf(&l.params, 2) // one trial's <A_j, B_j>
	}
	if w.o.GPUAggregate {
		w.stageAgg(l, ch, plan)
	}
	if ch.err != nil {
		return ch.err
	}
	l.batch = k
	return nil
}

func (w *shingleLanes) Enqueue(item, lane int) error {
	k, t0, t1 := w.shape.item(item, w.c)
	l := w.lanes[lane]
	if l.batch != k {
		if err := w.stageBatch(l, k); err != nil {
			return err
		}
	}
	plan := &w.plans[k]
	np := len(plan.pieces)
	segs := thrust.Segments{Offsets: l.off, NumSegs: np}
	img := batchImage{buf: l.data, bits: w.o.dataBits}
	for trial := t0; trial < t1; trial++ {
		// The one-lane plan moves the trial's hash-pair constants to the
		// device each iteration (the functor state of the
		// thrust::transform call).
		if w.sync && l.params != nil {
			if err := w.dev.CopyH2D(l.params, 0, w.hostParams[2*trial:2*trial+2]); err != nil {
				return err
			}
		}
		if err := trialKernels(w.dev, l.stream, img, l.hash, segs, w.s, w.o,
			w.fam.Pairs[trial], l.out, (trial-t0)*np*w.s); err != nil {
			return err
		}
		if w.o.GPUAggregate {
			if err := w.aggregateTrial(l, np, trial); err != nil {
				return err
			}
		}
	}
	if w.o.GPUAggregate {
		return nil
	}
	return w.dev.CopyD2HAsync(l.stream, l.hostOut[:(t1-t0)*np*w.s], l.out, 0)
}

func (w *shingleLanes) Complete(item, lane int) {
	k, t0, t1 := w.shape.item(item, w.c)
	l := w.lanes[lane]
	if l.stream != nil {
		l.stream.Synchronize()
	}
	plan := &w.plans[k]
	var ops int64
	rowWords := len(plan.pieces) * w.s
	for trial := t0; trial < t1; trial++ {
		if w.o.GPUAggregate {
			ops += w.collectAgg(l, plan, trial)
			continue
		}
		ops += w.emitTrialTuples(plan, trial, l.hostOut[(trial-t0)*rowWords:(trial-t0+1)*rowWords])
	}
	w.led.Charge("aggregate", float64(ops)*AggregateNsPerOp)
}

func (w *shingleLanes) SpanName(item int) string {
	k, t0, t1 := w.shape.item(item, w.c)
	return fmt.Sprintf("%s.b%d.t%d-%d", w.label, k, t0, t1)
}

// chain sequences device allocations, transfers and launches, stopping at
// the first failure and keeping it in err.
type chain struct {
	dev *gpusim.Device
	err error
}

// buf allocates n words into *dst unless it already holds a buffer.
func (ch *chain) buf(dst **gpusim.Buffer, n int) {
	if ch.err == nil && *dst == nil {
		*dst, ch.err = ch.dev.Malloc(n)
	}
}

// h2d copies src to the start of dst on the stream (nil: synchronous).
func (ch *chain) h2d(st *gpusim.Stream, dst *gpusim.Buffer, src []uint32) {
	ch.do(func() error { return ch.dev.CopyH2DAsync(st, dst, 0, src) })
}

func (ch *chain) do(f func() error) {
	if ch.err == nil {
		ch.err = f()
	}
}
