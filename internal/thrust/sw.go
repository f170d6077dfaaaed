package thrust

import (
	"fmt"
	"math"
	"sync"

	"gpclust/internal/align"
	"gpclust/internal/gpusim"
	"gpclust/internal/obs"
)

// This file implements the batched score-only Smith–Waterman kernel that
// moves pGraph's verification stage onto the device (the fine-grained
// protein-similarity-search GPU formulation of Nguyen & Lavenier, adapted to
// the simulator). The parallelization is inter-task: one logical thread per
// candidate pair computes the whole affine-gap (Gotoh) DP for that pair with
// two int32 rows in thread-local memory, while the substitution-score table
// — a query profile shared by every alignment in the batch — is staged once
// per block into shared memory and hit once per DP cell. In contrast to the
// shingling pipeline, which Table I shows is copy-engine-bound, this kernel
// is compute-bound: O(len(a)·len(b)) cells per pair against O(len) words of
// traffic.

// swBlockDim is the thread-block size of the SW kernel. Blocks are small so
// length-binned batches map pairs of similar cost onto the same warp (the
// divergence model serializes a warp at its slowest lane).
const swBlockDim = 128

// swCellOps is the charged arithmetic cost of one DP cell: the E/F gap
// updates (two max each), the diagonal add, two clamps, the three-way max
// and the rolling-row bookkeeping.
const swCellOps = 12

// swDecodeOps is the per-cell surcharge of decoding the b-operand's residue
// from a bit-packed image (SeqBits > 0): the shift/or/mask extraction
// replaces a byte load. The a-operand decodes once per row and is absorbed
// into the aLen term.
const swDecodeOps = 2

// SWConfig describes one batched Smith–Waterman launch. The batch regions
// live in a single device buffer at the word offsets given here:
//
//	[TableBase : TableBase+Alphabet²)  substitution scores, int32 per word
//	[PairBase  : PairBase+4·NumPairs)  pair records: aOff, aLen, bOff, bLen
//	[SeqBase   : ...)                  residue codes, 4 per word, little-endian
//	[ScoreBase : ScoreBase+NumPairs)   int32 alignment scores (output)
//
// Pair-record offsets and lengths count residues relative to SeqBase.
type SWConfig struct {
	NumPairs  int
	Alphabet  int // residue-code count; scores index as [a·Alphabet+b]
	GapOpen   int32
	GapExtend int32

	// Table, when non-nil, is a separate device buffer holding the
	// substitution table at TableBase — the table is loop-invariant across a
	// build's batches, so schedulers keep it device-resident instead of
	// re-uploading it per batch. Nil keeps the legacy single-buffer layout
	// with the table inside buf.
	Table *gpusim.Buffer

	TableBase int
	PairBase  int
	SeqBase   int
	SeqWords  int // words of packed residues after SeqBase
	ScoreBase int

	// SeqBits, when nonzero, marks the residue region as a bit-continuous
	// packed image: residue off occupies bits [off·SeqBits, (off+1)·SeqBits)
	// after SeqBase (gpusim.PackBits layout) and the kernel decodes codes on
	// the fly at swDecodeOps per cell — pgraph's packed+fused mode. Zero
	// keeps the byte layout of 4 codes per little-endian word. Scores are
	// bit-identical either way; only the region's word footprint and the
	// kernel's instruction count change.
	SeqBits int

	// Limit, when non-nil, gives each pair's score limit from the shorter
	// operand's length: the thread returns min(score, Limit(min(aLen, bLen)))
	// and stops its DP once the best score reaches that limit (pgraph's
	// acceptance decision, which needs no more). Nil scores exactly. The
	// kernel's charges price the full DP either way, as the one-alignment-
	// per-thread kernel of the paper's era computes it.
	Limit func(minLen int) int32

	// Obs, when non-nil, counts launches and pairs (launch *attempts*: a
	// launch that faults after enqueue still counts, matching what the
	// schedulers asked of the device rather than what survived).
	Obs *obs.Recorder
}

// swRows is the reusable thread-local DP state: the H and E rows of the
// Gotoh recurrence and both operands' residue codes, decoded once per pair.
// A sync.Pool bounds allocation across the simulator's concurrently
// executing threads; every row is fully rewritten per pair, so reuse cannot
// affect results.
type swRows struct {
	dp   align.Scratch
	a, b []byte
}

var swPool = sync.Pool{New: func() any { return new(swRows) }}

// SWScoreBatch launches the batched score-only Smith–Waterman kernel over
// cfg.NumPairs candidate pairs (nil stream = synchronous). Each thread
// decodes its pair's residue codes and runs align.ScoreCodes over the
// device table's words under the pair's limit, so scores are bit-identical
// to min(align.ScoreOnly, limit) on the same pairs. Codes are bytes: SeqBits
// is at most 8 and the alphabet at most 256.
func SWScoreBatch(d *gpusim.Device, s *gpusim.Stream, buf *gpusim.Buffer, cfg SWConfig) error {
	if cfg.NumPairs < 0 || cfg.Alphabet <= 0 || cfg.Alphabet > 256 {
		return fmt.Errorf("thrust: SWScoreBatch with %d pairs, alphabet %d", cfg.NumPairs, cfg.Alphabet)
	}
	if cfg.SeqBits < 0 || cfg.SeqBits > 8 {
		return fmt.Errorf("thrust: SWScoreBatch residue width %d outside [0,8]", cfg.SeqBits)
	}
	tbl := cfg.Alphabet * cfg.Alphabet
	tblBuf := buf
	if cfg.Table != nil {
		tblBuf = cfg.Table
	}
	if cfg.TableBase < 0 || cfg.PairBase < 0 || cfg.SeqBase < 0 || cfg.ScoreBase < 0 ||
		cfg.TableBase+tbl > tblBuf.Len() ||
		cfg.PairBase+4*cfg.NumPairs > buf.Len() ||
		cfg.SeqBase+cfg.SeqWords > buf.Len() ||
		cfg.ScoreBase+cfg.NumPairs > buf.Len() {
		return fmt.Errorf("thrust: SWScoreBatch layout exceeds buffer of %d words", buf.Len())
	}
	if cfg.NumPairs == 0 {
		return nil
	}
	if cfg.Obs.Enabled() {
		cfg.Obs.Counter("gpclust_sw_kernel_launches",
			"Batched Smith-Waterman kernel launch attempts.").Inc()
		cfg.Obs.Counter("gpclust_sw_pairs",
			"Candidate pairs submitted to the SW kernel (attempts).").Add(int64(cfg.NumPairs))
	}
	grid := (cfg.NumPairs + swBlockDim - 1) / swBlockDim
	// Cooperative table staging: each block loads the query profile into
	// shared memory with a strided, coalesced sweep before its pairs start.
	tableChunk := (tbl + swBlockDim - 1) / swBlockDim
	prm := align.Params{GapOpen: int(cfg.GapOpen), GapExtend: int(cfg.GapExtend)}
	d.NextKernelName("sw_score")
	return launch(d, s, grid, swBlockDim, func(ctx *gpusim.ThreadCtx) {
		if ctx.Thread < tbl {
			n := min(tableChunk, (tbl-ctx.Thread+swBlockDim-1)/swBlockDim)
			ctx.GlobalRead(tblBuf, cfg.TableBase+ctx.Thread, n, swBlockDim)
			ctx.Ops(n)
		}
		pair := ctx.GlobalID()
		if pair >= cfg.NumPairs {
			return
		}
		w := buf.Words()
		rec := w[cfg.PairBase+4*pair : cfg.PairBase+4*pair+4]
		aOff, aLen := int(rec[0]), int(rec[1])
		bOff, bLen := int(rec[2]), int(rec[3])
		ctx.GlobalRead(buf, cfg.PairBase+4*pair, 4, 1)
		ctx.GlobalWrite(buf, cfg.ScoreBase+pair, 1, 1)
		limit := int32(math.MaxInt32)
		if cfg.Limit != nil {
			limit = cfg.Limit(min(aLen, bLen))
		}
		if aLen == 0 || bLen == 0 {
			w[cfg.ScoreBase+pair] = uint32(min(0, limit))
			return
		}
		// Each sequence streams through registers once: one contiguous run of
		// packed words per operand (the bit-packed image's run is SeqBits/32
		// the width of the byte layout's — the fused transfer saving).
		aw0, aw1 := aOff>>2, (aOff+aLen+3)>>2
		bw0, bw1 := bOff>>2, (bOff+bLen+3)>>2
		if cfg.SeqBits > 0 {
			aw0, aw1 = aOff*cfg.SeqBits/32, ((aOff+aLen)*cfg.SeqBits+31)/32
			bw0, bw1 = bOff*cfg.SeqBits/32, ((bOff+bLen)*cfg.SeqBits+31)/32
		}
		ctx.GlobalRead(buf, cfg.SeqBase+aw0, aw1-aw0, 1)
		ctx.GlobalRead(buf, cfg.SeqBase+bw0, bw1-bw0, 1)

		rows := swPool.Get().(*swRows)
		rows.a = decodeResidues(rows.a, w[cfg.SeqBase:], aOff, aLen, cfg.SeqBits)
		rows.b = decodeResidues(rows.b, w[cfg.SeqBase:], bOff, bLen, cfg.SeqBits)
		tw := tblBuf.Words()[cfg.TableBase : cfg.TableBase+tbl]
		best := align.ScoreCodes(rows.a, rows.b, tw, cfg.Alphabet, prm, limit, &rows.dp)
		swPool.Put(rows)
		w[cfg.ScoreBase+pair] = uint32(best)
		cells := aLen * bLen
		// One shared-memory profile lookup per cell, plus the row-streaming
		// decode work (pricier per cell when decoding the packed image).
		cellOps := swCellOps
		if cfg.SeqBits > 0 {
			cellOps += swDecodeOps
		}
		ctx.SharedAccess(cells)
		ctx.Ops(cells*cellOps + aLen + bLen)
	})
}

// decodeResidues writes the n residue codes starting at residue off of seq
// into dst (grown if needed) and returns it: 4 codes per little-endian word
// when bits is 0, else the bit-continuous packed image of that width.
func decodeResidues(dst []byte, seq []uint32, off, n, bits int) []byte {
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	if bits == 0 {
		for i := range dst {
			p := off + i
			dst[i] = byte(seq[p>>2] >> (8 * (p & 3)))
		}
		return dst
	}
	width, mask := uint(bits), packedMask(bits)
	pos := uint(off) * width
	for i := range dst {
		dst[i] = byte(bitValue(seq, pos, width, mask))
		pos += width
	}
	return dst
}
