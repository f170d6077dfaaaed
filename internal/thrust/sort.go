package thrust

import (
	"fmt"
	"math/bits"
	"slices"

	"gpclust/internal/gpusim"
)

// Segments describes a segmented view over a data buffer: segment i spans
// data words [Offsets[i], Offsets[i+1]). Offsets live on the device like the
// "auxiliary data structure on the device ... used to mark the boundaries of
// each adjacency list" (Section III-C).
type Segments struct {
	Offsets *gpusim.Buffer // numSegs+1 words
	NumSegs int
}

// Validate checks the offsets are monotone and within the data buffer.
func (s Segments) Validate(data *gpusim.Buffer) error {
	off := s.Offsets.Words()
	if len(off) < s.NumSegs+1 {
		return fmt.Errorf("thrust: %d segments need %d offsets, buffer has %d",
			s.NumSegs, s.NumSegs+1, len(off))
	}
	for i := 0; i < s.NumSegs; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("thrust: segment offsets not monotone at %d: %d > %d", i, off[i], off[i+1])
		}
	}
	if int(off[s.NumSegs]) > data.Len() {
		return fmt.Errorf("thrust: segments end at %d beyond data buffer of %d",
			off[s.NumSegs], data.Len())
	}
	return nil
}

// segSortThreshold: segments at or below this length are insertion sorted
// (cheap, low constant); longer segments use pattern-defeating quicksort.
const segSortThreshold = 24

// SegmentedSort sorts each segment of data in place, ascending — the
// segmented sorting step of Figure 4 ("a segmented sorting operation is
// applied to reorganize the permutations in each segment"). One device
// thread sorts one segment; the wildly varying adjacency-list lengths make
// this kernel divergent and its access pattern uncoalesced, which the cost
// model charges accordingly (the reason graph algorithms underuse GPU
// bandwidth, Section III-C). The pipelines run it fused into FusedHashSort;
// this split form is the reference that kernel is tested against.
func SegmentedSort(d *gpusim.Device, data *gpusim.Buffer, segs Segments) error {
	if err := segs.Validate(data); err != nil {
		return err
	}
	if segs.NumSegs == 0 {
		return nil
	}
	grid := (segs.NumSegs + blockDim - 1) / blockDim
	d.NextKernelName("segmented_sort")
	return d.Launch(grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		seg := ctx.GlobalID()
		if seg >= segs.NumSegs {
			return
		}
		off := segs.Offsets.Words()
		lo, hi := int(off[seg]), int(off[seg+1])
		n := hi - lo
		if n <= 1 {
			if n == 1 {
				ctx.GlobalRead(data, lo, 1, 1)
			}
			return
		}
		s := data.Words()[lo:hi]
		if n <= segSortThreshold {
			insertionSort(s)
		} else {
			slices.Sort(s)
		}
		// Sorting reads and writes each element ~log2(n) times.
		passes := bits.Len(uint(n))
		ctx.GlobalRead(segs.Offsets, seg, 2, 1)
		ctx.GlobalRead(data, lo, n*passes, 1)
		ctx.GlobalWrite(data, lo, n*passes, 1)
		ctx.Ops(n * passes * 3)
	})
}

func insertionSort(s []uint32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for j > 0 && s[j-1] > v {
			s[j] = s[j-1]
			j--
		}
		s[j] = v
	}
}

// TopSSentinel pads output slots of segments shorter than s. Hash images
// are < minwise.Prime < 2^31, so the sentinel can never collide with a
// real value.
const TopSSentinel = 0xFFFFFFFF

// SegmentedTopSAt writes, for each segment, its min(n, s) smallest elements
// in ascending order into out[outBase+seg*s : outBase+(seg+1)*s),
// sentinel-padded, without mutating data. Short segments still report their
// sorted elements so that the CPU can merge the partial results of an
// adjacency list split across batches (Section III-C: "the CPU has to
// combine the shingle results for the split adjacency lists"); whole lists
// shorter than s are discarded by the aggregation step, matching the
// paper's ≥ s-links rule.
//
// This is the shingle-selection step of Algorithm 1 ("segmented sorting ...
// [then] the top s elements in each segment are selected") without the full
// sort. One thread owns one segment and maintains the running s minima with
// the same insertion scan as the serial code, so the SIMT cost model sees
// the divergence profile of real per-list work. The pipelines run it fused
// with the hash into FusedHashTopS, which writes at the same outBase offsets
// so several trials share one output buffer and one device→host copy; this
// split form is the reference that kernel is tested against.
func SegmentedTopSAt(d *gpusim.Device, data *gpusim.Buffer, segs Segments, s int, out *gpusim.Buffer, outBase int) error {
	if s <= 0 {
		return fmt.Errorf("thrust: SegmentedTopSAt with s=%d", s)
	}
	if outBase < 0 {
		return fmt.Errorf("thrust: SegmentedTopSAt with outBase=%d", outBase)
	}
	if err := segs.Validate(data); err != nil {
		return err
	}
	if out.Len() < outBase+segs.NumSegs*s {
		return fmt.Errorf("thrust: SegmentedTopSAt output of %d words, need %d", out.Len(), outBase+segs.NumSegs*s)
	}
	if segs.NumSegs == 0 {
		return nil
	}
	grid := (segs.NumSegs + blockDim - 1) / blockDim
	d.NextKernelName("segmented_top_s")
	return d.Launch(grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		seg := ctx.GlobalID()
		if seg >= segs.NumSegs {
			return
		}
		off := segs.Offsets.Words()
		lo, hi := int(off[seg]), int(off[seg+1])
		n := hi - lo
		dst := out.Words()[outBase+seg*s : outBase+(seg+1)*s]
		ctx.GlobalRead(segs.Offsets, seg, 2, 1)
		if n < s {
			copy(dst, data.Words()[lo:hi])
			insertionSort(dst[:n])
			for i := n; i < s; i++ {
				dst[i] = TopSSentinel
			}
			ctx.GlobalRead(data, lo, n, 1)
			ctx.GlobalWrite(out, outBase+seg*s, s, 1)
			ctx.Ops(n*n/2 + s)
			return
		}
		src := data.Words()[lo:hi]
		ops := 0
		// Seed with the first s elements, insertion-sorted.
		filled := 0
		for _, x := range src[:s] {
			i := filled
			for i > 0 && dst[i-1] > x {
				dst[i] = dst[i-1]
				i--
				ops++
			}
			dst[i] = x
			filled++
			ops += 2
		}
		// Stream the remainder keeping the s minima.
		for _, x := range src[s:] {
			ops++
			if x >= dst[s-1] {
				continue
			}
			i := s - 1
			for i > 0 && dst[i-1] > x {
				dst[i] = dst[i-1]
				i--
				ops++
			}
			dst[i] = x
			ops += 2
		}
		ctx.GlobalRead(data, lo, n, 1)
		ctx.GlobalWrite(out, outBase+seg*s, s, 1)
		ctx.Ops(ops)
	})
}
