package thrust

import (
	"fmt"

	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
)

// LSH banding primitives. The candidate filter builds the MinHash signature
// matrix on the device in one SegmentedMinHash launch per span of sequences
// and keeps it resident (column-major: all sequences' minima under
// permutation j are contiguous, exactly minwise.Signatures.Vals). BandHash
// folds a range of bands' rows into one 32-bit bucket key per sequence, the
// (band, key, seq) records sort with SortPairs64, and MarkBucketHeads marks
// bucket boundaries so the host can emit candidate pairs per run. Both
// kernels are bit-identical to their host counterparts
// (minwise.Family.SequenceSignatures and minwise.Signatures.BandKey), so
// host- and device-generated buckets agree.

// MinHashGroup is the number of permutations one SegmentedMinHash thread
// carries: it reads its segment once and keeps this many running minima in
// registers. Larger groups read the shingle stream fewer times but leave
// fewer threads to hide the per-segment imbalance.
const MinHashGroup = 8

// SegmentedMinHash writes the MinHash signature of every segment under every
// permutation in pairs: out[j*ne+colBase+seg] = min over the segment's values
// v of pairs[j].Apply(v), or minwise.EmptySig for an empty segment — the
// column-major slot of minwise.Family.SequenceSignatures, bit for bit. ne is
// the signature matrix's column count and colBase the first column this call
// fills, so a matrix can be built span by span.
//
// One thread owns one (segment, group of MinHashGroup permutations) pair:
// it reads the segment once and folds every value into the group's running
// minima. Consecutive threads take consecutive segments of the same group,
// so each signature row's writes coalesce across a warp while the segment
// reads stay one uncoalesced run per thread, like SegmentedTopSAt.
func SegmentedMinHash(d *gpusim.Device, st *gpusim.Stream, data *gpusim.Buffer, segs Segments,
	pairs []minwise.HashPair, out *gpusim.Buffer, ne, colBase int) error {

	if colBase < 0 || colBase+segs.NumSegs > ne {
		return fmt.Errorf("thrust: SegmentedMinHash columns [%d,%d) outside the %d-column matrix",
			colBase, colBase+segs.NumSegs, ne)
	}
	if err := segs.Validate(data); err != nil {
		return err
	}
	if need := len(pairs) * ne; need > out.Len() {
		return fmt.Errorf("thrust: SegmentedMinHash output of %d words, need %d", out.Len(), need)
	}
	ns := segs.NumSegs
	if ns == 0 || len(pairs) == 0 {
		return nil
	}
	groups := (len(pairs) + MinHashGroup - 1) / MinHashGroup
	grid := (groups*ns + blockDim - 1) / blockDim
	d.NextKernelName("segmented_min_hash")
	return launch(d, st, grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		gid := ctx.GlobalID()
		if gid >= groups*ns {
			return
		}
		seg, j0 := gid%ns, (gid/ns)*MinHashGroup
		grp := pairs[j0:min(j0+MinHashGroup, len(pairs))]
		off := segs.Offsets.Words()
		lo, hi := int(off[seg]), int(off[seg+1])
		var mins [MinHashGroup]uint32
		for k := range grp {
			mins[k] = minwise.EmptySig
		}
		for _, v := range data.Words()[lo:hi] {
			for k, h := range grp {
				if x := h.Apply(v); x < mins[k] {
					mins[k] = x
				}
			}
		}
		w := out.Words()
		for k := range grp {
			w[(j0+k)*ne+colBase+seg] = mins[k]
		}
		ctx.GlobalRead(segs.Offsets, seg, 2, 1)
		ctx.GlobalRead(data, lo, hi-lo, 1)
		ctx.GlobalWrite(out, j0*ne+colBase+seg, len(grp), ne)
		ctx.Ops((hi-lo)*len(grp)*(hashOps+1) + len(grp))
	})
}

// bandHashOps is the charged arithmetic cost of folding one signature word
// into the FNV-1a accumulator: four xor+multiply byte rounds plus the shifts.
const bandHashOps = 8

// BandHash computes, for every band b in [bandLo, bandHi) and every sequence
// e in [0, ne), the 32-bit FNV-1a bucket key of band b (rows consecutive
// signature rows starting at b·rows) and writes it to
// out[outBase+(b-bandLo)·ne+e]. sigs holds the column-major signature matrix
// (row j at words [j·ne, (j+1)·ne)); the function is bit-identical to
// minwise.Signatures.BandKey over the same layout. The whole range is one
// launch: each band gets its own slice of the grid, walked grid-stride like
// an elementwise kernel, so every band row's reads coalesce.
func BandHash(d *gpusim.Device, st *gpusim.Stream, sigs *gpusim.Buffer, ne, bandLo, bandHi, rows int, out *gpusim.Buffer, outBase int) error {
	if ne < 0 || bandLo < 0 || bandHi < bandLo || rows <= 0 {
		return fmt.Errorf("thrust: BandHash ne=%d bands [%d,%d) rows=%d", ne, bandLo, bandHi, rows)
	}
	if need := bandHi * rows * ne; need > sigs.Len() {
		return fmt.Errorf("thrust: BandHash bands [%d,%d) × %d rows needs %d signature words, buffer holds %d",
			bandLo, bandHi, rows, need, sigs.Len())
	}
	nb := bandHi - bandLo
	if outBase < 0 || outBase+nb*ne > out.Len() {
		return fmt.Errorf("thrust: BandHash writing [%d,%d) into out of %d", outBase, outBase+nb*ne, out.Len())
	}
	if ne == 0 || nb == 0 {
		return nil
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	bandGrid, total := launchGeometry(ne)
	d.NextKernelName("band_hash")
	return launch(d, st, bandGrid*nb, blockDim, func(ctx *gpusim.ThreadCtx) {
		band := bandLo + ctx.Block/bandGrid
		gid := (ctx.Block%bandGrid)*blockDim + ctx.Thread
		base := outBase + (band-bandLo)*ne
		s, t := sigs.Words(), out.Words()
		count := 0
		for e := gid; e < ne; e += total {
			h := uint32(offset32)
			for r := 0; r < rows; r++ {
				v := s[(band*rows+r)*ne+e]
				for sh := 0; sh < 32; sh += 8 {
					h ^= (v >> sh) & 0xff
					h *= prime32
				}
			}
			t[base+e] = h
			count++
		}
		if count > 0 {
			// One coalesced row-read per band row, plus the key write.
			for r := 0; r < rows; r++ {
				ctx.GlobalRead(sigs, (band*rows+r)*ne+gid, count, total)
			}
			ctx.GlobalWrite(out, base+gid, count, total)
			ctx.Ops(count * rows * bandHashOps)
		}
	})
}

// MarkBucketHeads writes flags[i] = 1 where record i opens a new bucket in
// the sorted (keyHi, keyLo) stream — i == 0 or either key word differs from
// record i-1 — and 0 elsewhere (the adjacent_difference step of bucket
// grouping). Records must already be sorted by (keyHi, keyLo).
func MarkBucketHeads(d *gpusim.Device, st *gpusim.Stream, keyHi, keyLo *gpusim.Buffer, n int, flags *gpusim.Buffer) error {
	if n < 0 || n > keyHi.Len() || n > keyLo.Len() || n > flags.Len() {
		return fmt.Errorf("thrust: MarkBucketHeads over %d records with buffers %d/%d/%d",
			n, keyHi.Len(), keyLo.Len(), flags.Len())
	}
	if n == 0 {
		return nil
	}
	grid, total := launchGeometry(n)
	d.NextKernelName("bucket_heads")
	return launch(d, st, grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		gid := ctx.GlobalID()
		hi, lo, f := keyHi.Words(), keyLo.Words(), flags.Words()
		count := 0
		for i := gid; i < n; i += total {
			if i == 0 || hi[i] != hi[i-1] || lo[i] != lo[i-1] {
				f[i] = 1
			} else {
				f[i] = 0
			}
			count++
		}
		if count > 0 {
			// Each record reads its own and its predecessor's key words.
			ctx.GlobalRead(keyHi, gid, count*2, total)
			ctx.GlobalRead(keyLo, gid, count*2, total)
			ctx.GlobalWrite(flags, gid, count, total)
			ctx.Ops(count * 3)
		}
	})
}
