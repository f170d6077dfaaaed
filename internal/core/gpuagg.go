package core

import (
	"container/heap"

	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
	"gpclust/internal/thrust"
)

// GPU-side aggregation: an extension beyond the paper. Table I shows the
// CPU-side aggregation dominating gpClust's runtime once the shingling
// itself is accelerated (52.7s of 66.75s at 20K sequences); its heaviest
// piece is the per-trial sorting that groups <shingle, owner> tuples. With
// Options.GPUAggregate the shingle keys are computed and sorted on the
// device (a shingle-key kernel + thrust sort_by_key), so the CPU only
// merges pre-sorted streams — a linear scan. The clustering is bit-identical
// to the serial backend; the virtual-clock CPU column shrinks accordingly
// (quantified in the ablations).

// invalidWord marks records of pieces that produce no device-side key
// (split pieces and short lists). Real records always have owner < 2^31, so
// an all-ones record strictly sorts after every real one.
const invalidWord = 0xFFFFFFFF

// runTrialsGPUAgg runs one batch's trials with device-side key generation
// and sorting. For split pieces the per-trial minima still come back via
// small per-row copies and are merged on the CPU as usual.
func runTrialsGPUAgg(dev *gpusim.Device, in *SegGraph, plan batchPlan, segs thrust.Segments,
	fam minwise.Family, s int, o Options, img batchImage, dataWords int,
	tuplesByTrial [][]tuple, sortedByTrial [][][]tuple, pending map[int]*pendingShingle,
	acct *cpuAccount, stats *PassStats) error {

	numPieces := len(plan.pieces)
	c := fam.Size()

	var hashBuf *gpusim.Buffer
	var err error
	if needsHashBuf(o) {
		hashBuf, err = dev.Malloc(dataWords)
		if err != nil {
			return err
		}
		defer hashBuf.Free()
	}
	outBuf, err := dev.Malloc(numPieces * s)
	if err != nil {
		return err
	}
	defer outBuf.Free()
	var paramsBuf *gpusim.Buffer
	if o.residentParams == nil {
		paramsBuf, err = dev.Malloc(2)
		if err != nil {
			return err
		}
		defer paramsBuf.Free()
	}

	// Owner ids and validity flags are static per batch: upload once.
	hostOwner := make([]uint32, numPieces)
	hostFlag := make([]uint32, numPieces)
	validCount := 0
	var splitRows []int
	for pi, pc := range plan.pieces {
		hostOwner[pi] = in.Owner(pc.list)
		listLen := in.Offsets[pc.list+1] - in.Offsets[pc.list]
		if pc.isWhole(in) && int(listLen) >= s {
			hostFlag[pi] = 1
			validCount++
		} else if !pc.isWhole(in) {
			splitRows = append(splitRows, pi)
		}
	}
	ownerBuf, err := dev.Malloc(numPieces)
	if err != nil {
		return err
	}
	defer ownerBuf.Free()
	flagBuf, err := dev.Malloc(numPieces)
	if err != nil {
		return err
	}
	defer flagBuf.Free()
	if err := dev.CopyH2D(ownerBuf, 0, hostOwner); err != nil {
		return err
	}
	if err := dev.CopyH2D(flagBuf, 0, hostFlag); err != nil {
		return err
	}

	keyHi, err := dev.Malloc(numPieces)
	if err != nil {
		return err
	}
	defer keyHi.Free()
	keyLo, err := dev.Malloc(numPieces)
	if err != nil {
		return err
	}
	defer keyLo.Free()
	valBuf, err := dev.Malloc(numPieces)
	if err != nil {
		return err
	}
	defer valBuf.Free()
	// Packing the sorted (hi, lo, owner) records into one buffer halves the
	// number of per-trial transfers; the synchronous copy's setup cost is
	// the dominant term for small batches (Table I's Data_g→c analysis).
	packed, err := dev.Malloc(3 * numPieces)
	if err != nil {
		return err
	}
	defer packed.Free()

	hostPacked := make([]uint32, 3*numPieces)
	hostRow := make([]uint32, s)

	for trial, h := range fam.Pairs {
		if paramsBuf != nil {
			if err := dev.CopyH2D(paramsBuf, 0, []uint32{uint32(h.A), uint32(h.B)}); err != nil {
				return err
			}
		}
		if err := trialKernels(dev, nil, img, hashBuf, segs, s, o, dataWords, h, outBuf, 0); err != nil {
			return err
		}
		if err := shingleKeyKernel(dev, outBuf, flagBuf, ownerBuf, numPieces, s, uint32(trial), keyHi, keyLo, valBuf); err != nil {
			return err
		}
		if err := thrust.SortPairs64(dev, keyHi, keyLo, valBuf, numPieces); err != nil {
			return err
		}
		if err := packKernel(dev, keyHi, keyLo, valBuf, validCount, packed); err != nil {
			return err
		}
		if err := dev.CopyD2H(hostPacked[:3*validCount], packed, 0); err != nil {
			return err
		}

		// Linear conversion of the already-sorted stream.
		before := acct.aggOps
		stream := make([]tuple, validCount)
		for i := 0; i < validCount; i++ {
			stream[i] = tuple{
				key:   uint64(hostPacked[3*i])<<32 | uint64(hostPacked[3*i+1]),
				owner: hostPacked[3*i+2],
			}
		}
		sortedByTrial[trial] = append(sortedByTrial[trial], stream)
		stats.Tuples += int64(validCount)
		acct.aggOps += int64(validCount)

		// Split pieces: fetch each piece's minima row and merge on the CPU.
		for _, pi := range splitRows {
			if err := dev.CopyD2H(hostRow, outBuf, pi*s); err != nil {
				return err
			}
			pc := plan.pieces[pi]
			p := pending[pc.list]
			if p == nil {
				p = &pendingShingle{perTrial: make([][]uint32, c)}
				pending[pc.list] = p
			}
			p.perTrial[trial] = mergeTopS(p.perTrial[trial], hostRow, s)
			acct.aggOps += int64(2 * s)
			listLen := in.Offsets[pc.list+1] - in.Offsets[pc.list]
			if pc.hi == listLen && trial == c-1 {
				for tj, minima := range p.perTrial {
					if len(minima) < s {
						continue
					}
					tuplesByTrial[tj] = append(tuplesByTrial[tj], tuple{
						key:   shingleKey(uint32(tj), minima),
						owner: in.Owner(pc.list),
					})
					stats.Tuples++
				}
				delete(pending, pc.list)
			}
		}
		chargeHost(dev, o.Obs, "aggregate", float64(acct.aggOps-before)*AggregateNsPerOp)
	}
	return nil
}

// shingleKeyKernel computes, for each valid segment, the 64-bit FNV-1a
// shingle identity over (trial, minima) — the same function the CPU path
// uses, so the two backends group identically — and emits (keyHi, keyLo,
// owner) records. Invalid segments (split pieces, short lists) emit the
// all-ones record, which sorts after every real one.
func shingleKeyKernel(dev *gpusim.Device, out, flags, owners *gpusim.Buffer,
	numPieces, s int, trial uint32, keyHi, keyLo, val *gpusim.Buffer) error {
	const bd = 256
	grid := (numPieces + bd - 1) / bd
	dev.NextKernelName("shingle_key")
	return dev.Launch(grid, bd, func(ctx *gpusim.ThreadCtx) {
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
func packKernel(dev *gpusim.Device, keyHi, keyLo, val *gpusim.Buffer, n int, packed *gpusim.Buffer) error {
	if n == 0 {
		return nil
	}
	const bd = 256
	grid := (n + bd - 1) / bd
	dev.NextKernelName("pack_records")
	return dev.Launch(grid, bd, func(ctx *gpusim.ThreadCtx) {
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
// an unsorted residue of split-list tuples) into one sorted slice, charging
// only linear CPU cost — the aggregation saving of the GPU-aggregate mode.
func mergeSortedStreams(streams [][]tuple, residue []tuple, acct *cpuAccount) []tuple {
	sortTuples(residue) // few elements: split lists only
	if len(residue) > 0 {
		streams = append(streams, residue)
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	acct.aggOps += int64(total)
	switch len(streams) {
	case 0:
		return nil
	case 1:
		return streams[0]
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
	return out
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
