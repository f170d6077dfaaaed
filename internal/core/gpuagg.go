package core

import (
	"container/heap"

	"gpclust/internal/gpusim"
	"gpclust/internal/thrust"
)

// Device aggregation: an extension beyond the paper. Table I shows the
// CPU-side aggregation dominating gpClust's runtime once the shingling
// itself is accelerated (52.7s of 66.75s at 20K sequences); its heaviest
// piece is the per-trial sorting that groups <shingle, owner> tuples. With
// Options.GPUAggregate each executor item ends every trial with a device
// step: a shingle-key kernel over the trial's minima rows, a
// thrust sort_by_key of the (key, owner) records, and a pack kernel that
// interleaves the valid records for one D2H. Split pieces still return
// their minima rows and merge on the CPU. The CPU is left a linear merge of
// pre-sorted streams; the clustering is bit-identical to the serial
// backend, under any lane count and kernel form, and the virtual-clock CPU
// column shrinks accordingly (quantified in the ablations).

// invalidWord marks records of pieces that produce no device-side key
// (split pieces and short lists). Real records always have owner < 2^31, so
// an all-ones record strictly sorts after every real one.
const invalidWord = 0xFFFFFFFF

// aggWordsPerPiece is the device aggregation step's per-piece footprint:
// owner, flag, the two key halves and the value, plus three words of packed
// record.
const aggWordsPerPiece = 8

// aggBuffers is one lane's device aggregation staging: the batch's owner
// ids and validity flags, the (keyHi, keyLo, val) records the sort
// reorders, and the packed records the D2H reads.
type aggBuffers struct {
	owner, flag, keyHi, keyLo, val, recs *gpusim.Buffer
}

func (g *aggBuffers) bufs() []**gpusim.Buffer {
	return []**gpusim.Buffer{&g.owner, &g.flag, &g.keyHi, &g.keyLo, &g.val, &g.recs}
}

// alloc allocates the staging for batches of up to pieces pieces.
func (g *aggBuffers) alloc(ch *chain, pieces int) {
	for _, b := range []**gpusim.Buffer{&g.owner, &g.flag, &g.keyHi, &g.keyLo, &g.val} {
		ch.buf(b, pieces)
	}
	ch.buf(&g.recs, 3*pieces)
}

// aggRows is a batch's device aggregation shape: how many pieces get a
// device-computed key (whole lists of at least s elements), and which
// pieces are split and return their minima rows for the host merge.
type aggRows struct {
	valid     int
	splitRows []int
}

func aggShape(in *SegGraph, plan *batchPlan, s int) aggRows {
	var r aggRows
	for pi, pc := range plan.pieces {
		switch {
		case !pc.isWhole(in):
			r.splitRows = append(r.splitRows, pi)
		case pc.words() >= s:
			r.valid++
		}
	}
	return r
}

// stageAggRows fills the batch's host owner and flag rows.
func stageAggRows(in *SegGraph, plan *batchPlan, s int, owner, flag []uint32) {
	for pi, pc := range plan.pieces {
		owner[pi] = in.Owner(pc.list)
		flag[pi] = 0
		if pc.isWhole(in) && pc.words() >= s {
			flag[pi] = 1
		}
	}
}

// stageAgg makes the batch's aggregation rows resident on the lane. The
// owner ids and validity flags are static per batch, so they travel once.
func (w *shingleLanes) stageAgg(l *shingleLane, ch *chain, plan *batchPlan) {
	np, g := len(plan.pieces), &l.agg
	ch.buf(&g.owner, np)
	ch.buf(&g.flag, np)
	ch.h2d(l.stream, g.owner, w.hostOwner[:np])
	ch.h2d(l.stream, g.flag, w.hostFlag[:np])
	ch.buf(&g.keyHi, np)
	ch.buf(&g.keyLo, np)
	ch.buf(&g.val, np)
	ch.buf(&g.recs, 3*np)
	l.aggRows = aggShape(w.in, plan, w.s)
}

// aggregateTrial enqueues one trial's device aggregation over the minima
// rows at the start of the lane's output buffer, then the D2H of the valid
// records and of each split piece's row. Packing the sorted (hi, lo, owner)
// records into one buffer cuts the per-trial transfers to one; the copy's
// setup cost is the dominant term for small batches (Table I's Data_g→c
// analysis).
func (w *shingleLanes) aggregateTrial(l *shingleLane, np, trial int) error {
	g, s := &l.agg, w.s
	ch := &chain{dev: w.dev}
	ch.do(func() error {
		return shingleKeyKernel(w.dev, l.stream, l.out, g.flag, g.owner, np, s, uint32(trial), g.keyHi, g.keyLo, g.val)
	})
	ch.do(func() error { return thrust.SortPairs64OnStream(w.dev, l.stream, g.keyHi, g.keyLo, g.val, np) })
	ch.do(func() error { return packKernel(w.dev, l.stream, g.keyHi, g.keyLo, g.val, l.valid, g.recs) })
	ch.do(func() error { return w.dev.CopyD2HAsync(l.stream, l.hostRecs[:3*l.valid], g.recs, 0) })
	for r, pi := range l.splitRows {
		ch.do(func() error { return w.dev.CopyD2HAsync(l.stream, l.hostOut[r*s:(r+1)*s], l.out, pi*s) })
	}
	return ch.err
}

// collectAgg consumes one trial's downloaded records — already sorted, so
// their conversion is linear — and merges the split pieces' rows. It
// returns the aggregation operations it counted.
func (w *shingleLanes) collectAgg(l *shingleLane, plan *batchPlan, trial int) int64 {
	run := make([]tuple, l.valid)
	for i := range run {
		run[i] = tuple{
			key:   uint64(l.hostRecs[3*i])<<32 | uint64(l.hostRecs[3*i+1]),
			owner: l.hostRecs[3*i+2],
		}
	}
	w.sortedByTrial[trial] = append(w.sortedByTrial[trial], run)
	w.stats.Tuples += int64(l.valid)
	ops := int64(l.valid)
	for r, pi := range l.splitRows {
		ops += w.mergeSplitPiece(plan.pieces[pi], trial, l.hostOut[r*w.s:(r+1)*w.s])
	}
	return ops
}

// shingleKeyKernel computes, for each valid segment, the 64-bit FNV-1a
// shingle identity over (trial, minima) — the same function the CPU path
// uses, so the two backends group identically — and emits (keyHi, keyLo,
// owner) records. Invalid segments (split pieces, short lists) emit the
// all-ones record, which sorts after every real one.
func shingleKeyKernel(dev *gpusim.Device, st *gpusim.Stream, out, flags, owners *gpusim.Buffer,
	numPieces, s int, trial uint32, keyHi, keyLo, val *gpusim.Buffer) error {
	const bd = 256
	grid := (numPieces + bd - 1) / bd
	dev.NextKernelName("shingle_key")
	return dev.LaunchOnStream(st, grid, bd, func(ctx *gpusim.ThreadCtx) {
		seg := ctx.GlobalID()
		if seg >= numPieces {
			return
		}
		ctx.GlobalRead(flags, seg, 1, 1)
		if flags.Words()[seg] == 0 {
			keyHi.Words()[seg] = invalidWord
			keyLo.Words()[seg] = invalidWord
			val.Words()[seg] = invalidWord
			ctx.GlobalWrite(keyHi, seg, 1, 1)
			ctx.GlobalWrite(keyLo, seg, 1, 1)
			ctx.GlobalWrite(val, seg, 1, 1)
			ctx.Ops(3)
			return
		}
		minima := out.Words()[seg*s : (seg+1)*s]
		key := shingleKey(trial, minima)
		keyHi.Words()[seg] = uint32(key >> 32)
		keyLo.Words()[seg] = uint32(key)
		val.Words()[seg] = owners.Words()[seg]
		ctx.GlobalRead(out, seg*s, s, 1)
		ctx.GlobalRead(owners, seg, 1, 1)
		ctx.GlobalWrite(keyHi, seg, 1, 1)
		ctx.GlobalWrite(keyLo, seg, 1, 1)
		ctx.GlobalWrite(val, seg, 1, 1)
		ctx.Ops(s*8 + 6)
	})
}

// packKernel interleaves the first n sorted records' (hi, lo, owner) words
// into one contiguous buffer for a single device→host transfer.
func packKernel(dev *gpusim.Device, st *gpusim.Stream, keyHi, keyLo, val *gpusim.Buffer, n int, packed *gpusim.Buffer) error {
	if n == 0 {
		return nil
	}
	const bd = 256
	grid := (n + bd - 1) / bd
	dev.NextKernelName("pack_records")
	return dev.LaunchOnStream(st, grid, bd, func(ctx *gpusim.ThreadCtx) {
		i := ctx.GlobalID()
		if i >= n {
			return
		}
		p := packed.Words()
		p[3*i] = keyHi.Words()[i]
		p[3*i+1] = keyLo.Words()[i]
		p[3*i+2] = val.Words()[i]
		ctx.GlobalRead(keyHi, i, 1, 1)
		ctx.GlobalRead(keyLo, i, 1, 1)
		ctx.GlobalRead(val, i, 1, 1)
		ctx.GlobalWrite(packed, 3*i, 3, 1)
		ctx.Ops(3)
	})
}

// mergeSortedStreams k-way-merges per-batch pre-sorted tuple streams (plus
// an unsorted residue of split-list tuples) into one sorted slice. It counts
// only linear CPU cost, one operation per tuple — the aggregation saving of
// the GPU-aggregate mode — and returns it beside the merged slice.
func mergeSortedStreams(streams [][]tuple, residue []tuple) ([]tuple, int64) {
	sortTuples(residue) // few elements: split lists only
	if len(residue) > 0 {
		streams = append(streams, residue)
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	ops := int64(total)
	switch len(streams) {
	case 0:
		return nil, ops
	case 1:
		return streams[0], ops
	}
	h := &tupleHeap{}
	for i, s := range streams {
		if len(s) > 0 {
			*h = append(*h, tupleCursor{stream: i, pos: 0, t: s[0]})
		}
	}
	heap.Init(h)
	out := make([]tuple, 0, total)
	for h.Len() > 0 {
		cur := (*h)[0]
		out = append(out, cur.t)
		cur.pos++
		if cur.pos < len(streams[cur.stream]) {
			cur.t = streams[cur.stream][cur.pos]
			(*h)[0] = cur
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out, ops
}

type tupleCursor struct {
	stream, pos int
	t           tuple
}

type tupleHeap []tupleCursor

func (h tupleHeap) Len() int { return len(h) }
func (h tupleHeap) Less(i, j int) bool {
	if h[i].t.key != h[j].t.key {
		return h[i].t.key < h[j].t.key
	}
	return h[i].t.owner < h[j].t.owner
}
func (h tupleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *tupleHeap) Push(x any)   { *h = append(*h, x.(tupleCursor)) }
func (h *tupleHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return out
}
