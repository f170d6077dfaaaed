package pgraph

import (
	"fmt"
	"sort"

	"gpclust/internal/align"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/obs"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
	"gpclust/internal/thrust"
)

// This file is the candidate-pair batch scheduler behind Config.GPU: it
// length-bins the pairs (so one warp's alignments cost alike and the SIMT
// divergence penalty stays small), packs pair records + concatenated residue
// codes through the device-memory budget exactly like Algorithm 2's
// adjacency batching, and runs the batches sequentially. Residues travel in
// one of two layouts (swLayout), both read by a single SW launch per batch:
// bytes, or a 5-bit packed image the kernel decodes in place. The
// substitution-score table is loop-invariant, so it is uploaded once per
// build and stays device-resident across every batch. The scheduler produces
// scores bit-identical to align.ScoreOnly, so the accepted edge set never
// depends on the backend, batch budget or binning.

// swTableLen is the word size of the substitution-score table (the BLOSUM62
// query profile shared by every alignment in a batch).
const swTableLen = align.AlphabetSize * align.AlphabetSize

// uploadSWTable allocates the resident table buffer and stages the score
// table into it; the caller owns the buffer.
func uploadSWTable(dev *gpusim.Device) (*gpusim.Buffer, error) {
	buf, err := dev.Malloc(swTableLen)
	if err != nil {
		return nil, err
	}
	if err := dev.CopyH2D(buf, 0, align.Blosum62Table); err != nil {
		buf.Free()
		return nil, err
	}
	return buf, nil
}

// encodeSeqs maps residues to table indices.
func encodeSeqs(seqs []seq.Sequence) [][]byte {
	enc := make([][]byte, len(seqs))
	for i, s := range seqs {
		enc[i] = align.Encode(s.Residues)
	}
	return enc
}

// seqWords returns the packed word count of one encoded sequence (4 residue
// codes per word; every sequence starts word-aligned).
func seqWords(enc []byte) int { return (len(enc) + 3) / 4 }

// residueBits is the packed image's per-residue width: align's 21-code
// alphabet fits 5 bits (asserted in tests against align.AlphabetSize).
const residueBits = 5

// swLayout is a batch buffer's residue layout. Residue offsets in pair
// records stay the byte layout's word-aligned offsets in both modes, so the
// packed image is the byte stream (padding included) re-packed at bits per
// residue, and the in-place decoder maps offset r to the same residue.
//
//	bits == 0  [records | byte residues | scores]
//	bits > 0   [records | packed residues | scores]
//
// The H2D image is the region before the scores.
type swLayout struct {
	bits int // 0: byte layout; residueBits: packed image decoded in place
}

// layoutFor is the packed image when packed is set, else the byte layout.
func layoutFor(packed bool) swLayout {
	if !packed {
		return swLayout{}
	}
	return swLayout{bits: residueBits}
}

// packedSeqWords is the packed image's word count for a residue region of
// seqWords byte-layout words (4·seqWords padded residues).
func (ly swLayout) packedSeqWords(seqWords int) int {
	return gpusim.PackedLen(4*seqWords, ly.bits)
}

// dataWords is the batch's H2D staging image size under this layout.
func (ly swLayout) dataWords(p swBatch) int { return 4*(p.hi-p.lo) + ly.residueWords(p.seqWords) }

// deviceWords is the batch buffer's device footprint: the staging image
// and the score outputs. The resident score table lives in its own buffer
// and is charged once per build, not against every batch.
func (ly swLayout) deviceWords(p swBatch) int { return ly.dataWords(p) + (p.hi - p.lo) }

// packWords is the host staging cost in words: records plus byte-layout
// residues either way (the codes are produced regardless), plus the
// bit-packing surcharge of the packed image.
func (ly swLayout) packWords(p swBatch) int {
	n := swLayout{}.dataWords(p)
	if ly.bits > 0 {
		n += ly.packedSeqWords(p.seqWords)
	}
	return n
}

// residueWords is the device footprint of w byte-layout residue words.
func (ly swLayout) residueWords(w int) int {
	if ly.bits == 0 {
		return w
	}
	return ly.packedSeqWords(w)
}

// binPairs returns the order in which pairs are scheduled. With binning the
// order is ascending DP-cell cost (ties broken by the pair key, so the
// order is a deterministic function of the input); without, the natural
// sorted-pair order.
func binPairs(enc [][]byte, pairs []pairKey, bin bool) []int {
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	if !bin {
		return order
	}
	cost := make([]int64, len(pairs))
	for i, p := range pairs {
		a, b := p.unpack()
		cost[i] = int64(len(enc[a])) * int64(len(enc[b]))
	}
	sort.Slice(order, func(i, j int) bool {
		if cost[order[i]] != cost[order[j]] {
			return cost[order[i]] < cost[order[j]]
		}
		return pairs[order[i]] < pairs[order[j]]
	})
	return order
}

// swBatch is one device batch: a contiguous range of the scheduled pair
// order plus the distinct sequences it references, in first-use order.
type swBatch struct {
	lo, hi   int     // half-open range into the scheduled order
	seqIDs   []int32 // distinct sequences, first-use order
	seqWords int     // byte-layout residue words for seqIDs
}

// swPairSizer supplies the planner's incremental pair costs: 5 words per
// pair (record + score) plus the residue footprint of any sequence not
// already staged in the open batch — under the packed layout, the packed
// image's word delta (exact by telescoping: the image is one continuous bit
// stream, so the batch total is PackedLen of the running residue count).
type swPairSizer struct {
	enc     [][]byte
	pairs   []pairKey
	order   []int
	budget  int // full budget including the table share, for the error message
	ly      swLayout
	inBatch map[int32]bool
	seqW    int // byte-layout residue words staged in the open batch
}

func (z *swPairSizer) Reset() {
	clear(z.inBatch)
	z.seqW = 0
}

// residueCost is the device-word delta of growing the open batch's residue
// region from seqW to seqW+addW byte-layout words.
func (z *swPairSizer) residueCost(addW int) int {
	return z.ly.residueWords(z.seqW+addW) - z.ly.residueWords(z.seqW)
}

func (z *swPairSizer) Cost(k int) int {
	a, b := z.pairs[z.order[k]].unpack()
	addW := 0
	if !z.inBatch[a] {
		addW += seqWords(z.enc[a])
	}
	if !z.inBatch[b] {
		addW += seqWords(z.enc[b])
	}
	return 5 + z.residueCost(addW)
}

func (z *swPairSizer) Commit(k int) {
	a, b := z.pairs[z.order[k]].unpack()
	if !z.inBatch[a] {
		z.inBatch[a] = true
		z.seqW += seqWords(z.enc[a])
	}
	if !z.inBatch[b] {
		z.inBatch[b] = true
		z.seqW += seqWords(z.enc[b])
	}
}

func (z *swPairSizer) Fail(k, need int) error {
	a, b := z.pairs[z.order[k]].unpack()
	return fmt.Errorf("pgraph: GPU batch budget %d words cannot hold pair (%d,%d): needs %d",
		z.budget, a, b, swTableLen+need)
}

// planSWBatches greedily packs the scheduled pairs into batches whose
// device footprint stays within budget words, deduplicating sequences
// within a batch (a sequence appearing in many candidate pairs uploads
// once per batch). The budget is quoted including the resident score
// table's share, which the planner subtracts once up front — so explicit
// budgets keep their historical meaning while batches no longer pay for
// the table each.
func planSWBatches(enc [][]byte, pairs []pairKey, order []int, budget int, ly swLayout) ([]swBatch, error) {
	z := &swPairSizer{enc: enc, pairs: pairs, order: order, budget: budget, ly: ly,
		inBatch: make(map[int32]bool)}
	spans, err := sched.PlanSpans(len(order), budget-swTableLen, z)
	if err != nil {
		return nil, err
	}
	plans := make([]swBatch, 0, len(spans))
	for _, sp := range spans {
		plans = append(plans, swBatchFor(sp.Lo, sp.Hi, enc, pairs, order))
	}
	return plans, nil
}

// packSWBatch builds the batch's host staging image — [pair records | byte
// or bit-packed residues] per the layout — reusing data's capacity.
// Pair-record offsets count residues from the start of the residue region
// in every mode (sequences stay word-aligned in residue terms, so the
// packed image is the byte stream re-packed at ly.bits per residue).
func packSWBatch(p swBatch, enc [][]byte, pairs []pairKey, order []int, ly swLayout, data []uint32) []uint32 {
	np := p.hi - p.lo
	n := ly.dataWords(p)
	if cap(data) < n {
		data = make([]uint32, n)
	} else {
		data = data[:n]
		clear(data)
	}
	seq := data[4*np:]
	put := func(r int, c uint32) { // byte layout: 4 codes per word
		seq[r>>2] |= c << (8 * (r & 3))
	}
	if ly.bits > 0 {
		put = func(r int, c uint32) { // bit-continuous little-endian image
			bit := r * ly.bits
			seq[bit>>5] |= c << (bit & 31)
			if rem := 32 - bit&31; rem < ly.bits {
				seq[bit>>5+1] |= c >> rem
			}
		}
	}
	off := make(map[int32]uint32, len(p.seqIDs))
	pos := uint32(0)
	for _, id := range p.seqIDs {
		off[id] = pos
		for k, c := range enc[id] {
			put(int(pos)+k, uint32(c))
		}
		pos += uint32(4 * seqWords(enc[id])) // next sequence starts word-aligned
	}
	for k := p.lo; k < p.hi; k++ {
		a, b := pairs[order[k]].unpack()
		rec := data[4*(k-p.lo):]
		rec[0], rec[1] = off[a], uint32(len(enc[a]))
		rec[2], rec[3] = off[b], uint32(len(enc[b]))
	}
	return data
}

// swLaunchConfig maps a staged batch onto the kernel's layout under the
// resolved residue format; the resident table buffer supplies the
// substitution scores. The packed layout hands the kernel the image to
// decode in place (SeqBits).
func swLaunchConfig(p swBatch, cfg Config, table *gpusim.Buffer, ly swLayout) thrust.SWConfig {
	np := p.hi - p.lo
	return thrust.SWConfig{
		NumPairs:  np,
		Alphabet:  align.AlphabetSize,
		GapOpen:   int32(cfg.Align.GapOpen),
		GapExtend: int32(cfg.Align.GapExtend),
		Table:     table,
		TableBase: 0,
		PairBase:  0,
		SeqBase:   4 * np,
		SeqWords:  ly.residueWords(p.seqWords),
		SeqBits:   ly.bits,
		ScoreBase: ly.dataWords(p),
		Obs:       cfg.Obs,
	}
}

// runOneSWBatch stages, uploads, launches and reads back one batch
// synchronously against the resident table, charging the staging to led and
// reusing the data/out scratch slices across calls. The score writes are
// idempotent — scores[p.lo+i] depends only on the batch contents — so a
// failed attempt needs no rollback before a retry.
func runOneSWBatch(dev *gpusim.Device, led *sched.Ledger, table *gpusim.Buffer, p swBatch, enc [][]byte,
	pairs []pairKey, order []int, cfg Config, scores []int32, data, out []uint32) ([]uint32, []uint32, error) {

	np := p.hi - p.lo
	ly := layoutFor(cfg.Packed)
	var t0 float64
	if cfg.Obs.Enabled() {
		t0 = dev.HostTime()
	}
	data = packSWBatch(p, enc, pairs, order, ly, data)
	led.Charge("pack", float64(ly.packWords(p))*packNsPerWord)
	if cap(out) < np {
		out = make([]uint32, np)
	}
	if err := func() error {
		buf, err := dev.Malloc(ly.deviceWords(p))
		if err != nil {
			return err
		}
		defer buf.Free()
		if err := dev.CopyH2D(buf, 0, data); err != nil {
			return err
		}
		lc := swLaunchConfig(p, cfg, table, ly)
		if err := thrust.SWScoreBatch(dev, nil, buf, lc); err != nil {
			return err
		}
		return dev.CopyD2H(out[:np], buf, lc.ScoreBase)
	}(); err != nil {
		return data, out, err
	}
	for i := 0; i < np; i++ {
		scores[p.lo+i] = int32(out[i])
	}
	if cfg.Obs.Enabled() {
		cfg.Obs.Span(obs.TrackBatches, fmt.Sprintf("pairs%d-%d", p.lo, p.hi), t0, dev.HostTime())
	}
	return data, out, nil
}

// verifyGPU is the device-backed verification stage: it schedules every
// candidate pair through the batched Smith–Waterman kernel and thresholds
// the scores with the exact comparison the host path uses. The Stats
// breakdown (filter, kernels, Data_c→g, Data_g→c) is this stage's share of
// the device's virtual clock.
func verifyGPU(led *sched.Ledger, seqs []seq.Sequence, pairs []pairKey, cfg Config, st *Stats, host0 float64) ([]graph.Edge, error) {
	dev := cfg.Device // Build resolved the device before the filter ran
	// Metrics from here cover verification only: the filter phase (host
	// charges, or the LSH pass's own device traffic) is already on the
	// clock, and host0 predates it so TotalNs spans the whole build.
	m0 := dev.Metrics()
	verifyPhase := led.Phase("verify")

	var edges []graph.Edge
	if len(pairs) > 0 {
		enc := encodeSeqs(seqs)
		order := binPairs(enc, pairs, !cfg.NoLengthBin)

		var report sched.PlanReport
		var plans []swBatch
		var err error
		if cfg.GPUBatchWords == 0 && cfg.AutoTune {
			report, plans, err = autotuneSW(dev, enc, pairs, order, cfg)
			if err != nil {
				return nil, err
			}
			// The executors resolve the layout from cfg.Packed; pin the
			// tuner's layout choice so they run the plans the sizer measured.
			cfg.Packed = report.Packed
		} else {
			budget := cfg.GPUBatchWords
			if budget == 0 {
				budget = legacySWBudget(dev)
			}
			plans, err = planSWBatches(enc, pairs, order, budget, layoutFor(cfg.Packed))
			if err != nil {
				return nil, err
			}
			m := calibrateSWModel(dev.Config(), enc, pairs, order, cfg)
			report = sched.PlanReport{BudgetWords: budget, Lanes: 1, Batches: len(plans),
				Packed: cfg.Packed, PredictedNs: predictSWPlans(m, enc, pairs, order, plans, layoutFor(cfg.Packed))}
		}
		st.GPUBatches = len(plans)

		scores := make([]int32, len(pairs))
		env := &swEnv{dev: dev, led: led, enc: enc, pairs: pairs, order: order,
			cfg: cfg, scores: scores, rec: &st.Faults, workers: cfg.WorkerCount()}
		schedT0 := dev.HostTime()
		if err := cfg.runner(led, &st.Faults).Run(&swTableUpload{env: env}); err != nil {
			return nil, err
		}
		if env.table != nil { // nil after the all-pairs host fallback
			err = runSWBatchesSequentialResilient(env, plans)
			env.table.Free()
			if err != nil {
				return nil, err
			}
		}
		dev.Synchronize()
		report.ActualNs = dev.HostTime() - schedT0
		st.Plan = report
		sched.RecordPlan(cfg.Obs, "pgraph", report)

		edges = acceptedEdges(seqs, pairs, order, scores, cfg)
	}

	led.EndPhase(verifyPhase)
	m := dev.Metrics().Sub(m0)
	st.AlignNs = m.KernelTimeNs
	st.H2DNs = m.H2DTimeNs
	st.D2HNs = m.D2HTimeNs
	st.H2DSetupNs = m.H2DSetupNs
	st.H2DVolumeNs = m.H2DVolumeNs
	st.D2HSetupNs = m.D2HSetupNs
	st.D2HVolumeNs = m.D2HVolumeNs
	st.H2DBytes = m.H2DBytes
	st.D2HBytes = m.D2HBytes
	st.Divergence = m.DivergenceOverhead()
	st.TotalNs = dev.HostTime() - host0
	return edges, nil
}
