package thrust

import (
	"fmt"
	"math/bits"
	"slices"

	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
)

// Packed-image kernels. The host packs residues and adjacency values
// bit-continuously (gpusim.PackBits) before the H2D copy; on the device the
// fused shingling kernels below (and SWScoreBatch under SeqBits) read the
// image in place, extracting values on the fly. Packing changes the bytes a
// transfer moves and the instructions a kernel issues, never a computed
// value: every kernel here extracts exactly the words the host packed, so
// outputs stay bit-identical to the unpacked path.

// unpackOps is the charged arithmetic cost of extracting one value from a
// packed image: bit-offset arithmetic, up to two shifts, an or and a mask.
const unpackOps = 4

func packedMask(nbits int) uint32 {
	if nbits >= 32 {
		return 0xFFFFFFFF
	}
	return 1<<uint(nbits) - 1
}

// imageWidth is the bit width at which the fused kernels walk a batch
// image: dataBits for a packed image, 32 for full-width words, which are
// the image at 32 bits per value. Together with bitValue it serves both.
func imageWidth(dataBits int) uint {
	if dataBits == 0 {
		return 32
	}
	return uint(dataBits)
}

// bitValue extracts the value of the given width that starts at bit pos of
// a bit-continuous little-endian image. The kernels walk an image by
// advancing pos by the width per value, with no multiply or divide.
func bitValue(w []uint32, pos, width uint, mask uint32) uint32 {
	word, off := pos/32, pos%32
	v := w[word] >> off
	if off+width > 32 {
		v |= w[word+1] << (32 - off)
	}
	return v & mask
}

// FusedHashTopS fuses TransformHash with SegmentedTopSAt into one launch:
// for each segment the owning thread reads the segment's values — from the
// packed image directly when dataBits > 0, from full-width words when
// dataBits == 0 — applies the min-wise hash h to each,
// and maintains the running s minima, charged as SegmentedTopSAt's
// insertion scan, writing them sentinel-padded at out[outBase+seg*s:...).
// The fusion eliminates one kernel launch and the full-width hash buffer's
// global write + re-read per trial; the price is that the hash work runs at
// the top-s kernel's one-thread-per-segment occupancy instead of the
// elementwise transform's (a price that lost to the saved launch and round
// trip on every measured plan). Segment offsets index values (not packed
// words) in both modes, so the two modes are interchangeable bit for bit.
func FusedHashTopS(d *gpusim.Device, st *gpusim.Stream, data *gpusim.Buffer, dataBits int,
	segs Segments, s int, h minwise.HashPair, out *gpusim.Buffer, outBase int) error {

	if s <= 0 {
		return fmt.Errorf("thrust: FusedHashTopS with s=%d", s)
	}
	if outBase < 0 {
		return fmt.Errorf("thrust: FusedHashTopS with outBase=%d", outBase)
	}
	if dataBits < 0 || dataBits > 32 {
		return fmt.Errorf("thrust: FusedHashTopS width %d outside [0,32]", dataBits)
	}
	if err := validatePackedSegments(segs, data, dataBits); err != nil {
		return err
	}
	if out.Len() < outBase+segs.NumSegs*s {
		return fmt.Errorf("thrust: FusedHashTopS output of %d words, need %d", out.Len(), outBase+segs.NumSegs*s)
	}
	if segs.NumSegs == 0 {
		return nil
	}
	grid := (segs.NumSegs + blockDim - 1) / blockDim
	elemOps := hashOps
	if dataBits > 0 {
		elemOps += unpackOps
	}
	width := imageWidth(dataBits)
	mask := packedMask(int(width))
	d.NextKernelName("fused_hash_top_s")
	return launch(d, st, grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		seg := ctx.GlobalID()
		if seg >= segs.NumSegs {
			return
		}
		off := segs.Offsets.Words()
		lo, hi := int(off[seg]), int(off[seg+1])
		n := hi - lo
		ctx.GlobalRead(segs.Offsets, seg, 2, 1)
		w, pos := data.Words(), uint(lo)*width
		dst := out.Words()[outBase+seg*s : outBase+(seg+1)*s]
		if n < s {
			for i := 0; i < n; i++ {
				dst[i] = h.Apply(bitValue(w, pos, width, mask))
				pos += width
			}
			insertionSort(dst[:n])
			for i := n; i < s; i++ {
				dst[i] = TopSSentinel
			}
			chargeSegmentRead(ctx, data, lo, n, dataBits)
			ctx.GlobalWrite(out, outBase+seg*s, s, 1)
			ctx.Ops(n*n/2 + s + n*elemOps)
			return
		}
		ops := n * elemOps
		// Seed with the first s hashes, insertion-sorted.
		for i := 0; i < s; i++ {
			x := h.Apply(bitValue(w, pos, width, mask))
			pos += width
			j := i
			for j > 0 && dst[j-1] > x {
				dst[j] = dst[j-1]
				j--
				ops++
			}
			dst[j] = x
			ops += 2
		}
		// Stream the remainder keeping the s minima. Value i displaces
		// one with probability about s/(i+1), so before i = 4s it is
		// inserted without a data-dependent branch; after, the values
		// that cannot displace one are skipped.
		last := dst[s-1]
		for i := s; i < n; i++ {
			x := h.Apply(bitValue(w, pos, width, mask))
			pos += width
			ops++
			if i >= 4*s && x >= last {
				continue
			}
			ops += insertMin(dst, x)
			last = dst[s-1]
		}
		chargeSegmentRead(ctx, data, lo, n, dataBits)
		ctx.GlobalWrite(out, outBase+seg*s, s, 1)
		ctx.Ops(ops)
	})
}

// insertMin inserts x into the ascending window dst, dropping the window's
// largest value, without branching on the data: position k takes its left
// neighbour when that exceeds x, x at the insertion point, and otherwise
// keeps its value, so an x not below the largest value changes nothing. It
// returns the operations the insertion scan charges: 2 plus one per
// shifted value when x enters the window, none when it does not.
func insertMin(dst []uint32, x uint32) int {
	ops := 0
	if x < dst[len(dst)-1] {
		ops = 2
	}
	for k := len(dst) - 1; k > 0; k-- {
		left, v := dst[k-1], dst[k]
		if v > x {
			v = x
		}
		if left > x {
			v = left
			ops++
		}
		dst[k] = v
	}
	dst[0] = min(dst[0], x)
	return ops
}

// FusedHashSort fuses TransformHash with SegmentedSort for the full-sort
// ablation path: for each segment the owning thread hashes the segment's
// values — packed image when dataBits > 0 — and writes them sorted
// ascending into dst[lo:hi). dst then holds exactly what TransformHash
// followed by SegmentedSort would have produced, so the downstream top-s
// gather is unchanged.
func FusedHashSort(d *gpusim.Device, st *gpusim.Stream, data *gpusim.Buffer, dataBits int,
	segs Segments, h minwise.HashPair, dst *gpusim.Buffer) error {

	if dataBits < 0 || dataBits > 32 {
		return fmt.Errorf("thrust: FusedHashSort width %d outside [0,32]", dataBits)
	}
	if err := validatePackedSegments(segs, data, dataBits); err != nil {
		return err
	}
	if segs.NumSegs == 0 {
		return nil
	}
	off := segs.Offsets.Words()
	if int(off[segs.NumSegs]) > dst.Len() {
		return fmt.Errorf("thrust: FusedHashSort dst of %d words, segments end at %d",
			dst.Len(), off[segs.NumSegs])
	}
	grid := (segs.NumSegs + blockDim - 1) / blockDim
	width := imageWidth(dataBits)
	mask := packedMask(int(width))
	d.NextKernelName("fused_hash_sort")
	return launch(d, st, grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		seg := ctx.GlobalID()
		if seg >= segs.NumSegs {
			return
		}
		off := segs.Offsets.Words()
		lo, hi := int(off[seg]), int(off[seg+1])
		n := hi - lo
		if n == 0 {
			return
		}
		w, pos := data.Words(), uint(lo)*width
		t := dst.Words()[lo:hi]
		for i := range t {
			t[i] = h.Apply(bitValue(w, pos, width, mask))
			pos += width
		}
		if n <= segSortThreshold {
			insertionSort(t)
		} else {
			slices.Sort(t)
		}
		elemOps := hashOps
		if dataBits > 0 {
			elemOps += unpackOps
		}
		passes := bits.Len(uint(n))
		ctx.GlobalRead(segs.Offsets, seg, 2, 1)
		chargeSegmentRead(ctx, data, lo, n, dataBits)
		// The sort's remaining passes run over dst in place.
		ctx.GlobalRead(dst, lo, n*(passes-1), 1)
		ctx.GlobalWrite(dst, lo, n*passes, 1)
		ctx.Ops(n*elemOps + n*passes*3)
	})
}

// chargeSegmentRead records one segment's input traffic: n full-width words
// when the data is unpacked, or the packed words actually touched when it
// is a packed image — the footprint reduction the fused kernels exist for.
func chargeSegmentRead(ctx *gpusim.ThreadCtx, data *gpusim.Buffer, lo, n, dataBits int) {
	if dataBits <= 0 {
		ctx.GlobalRead(data, lo, n, 1)
		return
	}
	first := lo * dataBits / 32
	last := ((lo+n)*dataBits + 31) / 32
	ctx.GlobalRead(data, first, last-first, 1)
}

// validatePackedSegments is Segments.Validate generalized over packed
// images: offsets count values, the buffer holds PackedLen(end, bits)
// words when bits > 0.
func validatePackedSegments(segs Segments, data *gpusim.Buffer, dataBits int) error {
	off := segs.Offsets.Words()
	if len(off) < segs.NumSegs+1 {
		return fmt.Errorf("thrust: %d segments need %d offsets, buffer has %d",
			segs.NumSegs, segs.NumSegs+1, len(off))
	}
	for i := 0; i < segs.NumSegs; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("thrust: segment offsets not monotone at %d: %d > %d", i, off[i], off[i+1])
		}
	}
	end := int(off[segs.NumSegs])
	need := end
	if dataBits > 0 {
		need = gpusim.PackedLen(end, dataBits)
	}
	if need > data.Len() {
		return fmt.Errorf("thrust: segments need %d data words, buffer has %d", need, data.Len())
	}
	return nil
}
