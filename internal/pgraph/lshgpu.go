package pgraph

import (
	"fmt"

	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
	"gpclust/internal/thrust"
)

// On-device LSH banding filter. The pipeline mirrors the shingling passes'
// device dataflow:
//
//	stage A: shingle sets stream to the device in budgeted spans; one
//	  segmented_min_hash launch per span reads every sequence's shingles
//	  once and writes its minimum under every permutation into the
//	  build-resident signature buffer — the column-major minwise.Signatures
//	  layout, resident across every band pass.
//	stage B: bands stream in budgeted groups; one band_hash launch per group
//	  folds every band's rows into bucket keys, sort_pairs64 groups (band,
//	  key, seq) records, bucket_heads marks runs, and the host emits each
//	  bucket's cross pairs from the downloaded run structure.
//
// The whole filter is one batch on the sched resilience ladder: any device
// fault retries the idempotent pipeline (a fresh candidate map per attempt),
// and when the budget is exhausted — including a signature buffer that never
// allocates — it degrades to the bit-identical host LSH path. Plans are
// priced by the calibrated cost model like every other pass; the plan and
// its predicted-vs-actual window land in Stats.LSHPlan.

// lshEnv bundles the device filter's state: resolved shape, host shingle
// sets, the eligible-sequence map, the word budget, and the output.
type lshEnv struct {
	dev   *gpusim.Device
	led   *sched.Ledger
	cfg   Config
	shape LSHShape
	sets  [][]uint32 // per eligible column (sorted distinct shingles)
	ids   []int32    // eligible column -> original sequence index
	seqs  []seq.Sequence
	total int // Σ len(sets)

	budget int
	pairs  map[pairKey]bool
}

// lshSigWords is the resident signature buffer's footprint.
func (e *lshEnv) lshSigWords() int { return e.shape.hashes() * len(e.sets) }

// lshSeqSizer feeds the stage-A planner: streaming sequence k costs its
// shingle words plus one offset word.
type lshSeqSizer struct {
	sets   [][]uint32
	budget int
}

func (z *lshSeqSizer) Reset()         {}
func (z *lshSeqSizer) Cost(k int) int { return len(z.sets[k]) + 1 }
func (z *lshSeqSizer) Commit(k int)   {}
func (z *lshSeqSizer) Fail(k, need int) error {
	return fmt.Errorf("pgraph: LSH budget %d words cannot hold sequence of %d shingles: needs %d",
		z.budget, len(z.sets[k]), need)
}

// lshBandSizer feeds the stage-B planner: one band's records cost four
// buffers (keyHi, keyLo, value, head flags) of one word per sequence.
type lshBandSizer struct {
	ne, budget int
}

func (z *lshBandSizer) Reset()       {}
func (z *lshBandSizer) Cost(int) int { return 4 * z.ne }
func (z *lshBandSizer) Commit(int)   {}
func (z *lshBandSizer) Fail(_, need int) error {
	return fmt.Errorf("pgraph: LSH budget %d words cannot hold one band of %d sequences: needs %d",
		z.budget, z.ne, need)
}

// lshPlans resolves the stage plans under the budget, with the resident
// signature buffer reserved off the top.
func (e *lshEnv) lshPlans() (spansA, spansB []sched.Span, err error) {
	left := e.budget - e.lshSigWords()
	spansA, err = sched.PlanSpans(len(e.sets), left-1, &lshSeqSizer{sets: e.sets, budget: e.budget})
	if err != nil {
		return nil, nil, err
	}
	spansB, err = sched.PlanSpans(e.shape.Bands, left, &lshBandSizer{ne: len(e.sets), budget: e.budget})
	if err != nil {
		return nil, nil, err
	}
	return spansA, spansB, nil
}

// emitRuns walks the downloaded head flags, mapping each bucket run's values
// (eligible columns) back to sequence indices and emitting its cross pairs.
func (e *lshEnv) emitRuns(flags, vals []uint32) {
	var members []int32
	flush := func() {
		if len(members) > 1 {
			emitBucketPairs(members, e.pairs)
		}
		members = members[:0]
	}
	for i := range flags {
		if flags[i] == 1 {
			flush()
		}
		members = append(members, e.ids[vals[i]])
	}
	flush()
}

// lshFilterBatch runs the whole device filter as one ladder batch. Attempt
// is idempotent: each try starts from a fresh candidate map and allocates
// its buffers anew, so a failed attempt needs no rollback.
type lshFilterBatch struct{ env *lshEnv }

func (b *lshFilterBatch) Attempt() error {
	e := b.env
	e.pairs = make(map[pairKey]bool)
	return e.runBanded()
}

// Split never applies: the resident signature buffer and the global sort are
// indivisible, and the stage spans are already budget-sized.
func (b *lshFilterBatch) Split() (sched.Batch, sched.Batch, bool) { return nil, nil, false }

// Fallback degrades the whole filter to the bit-identical host LSH path,
// priced like the host backend's.
func (b *lshFilterBatch) Fallback() {
	e := b.env
	var ns float64
	e.pairs, ns = lshPairsHost(e.seqs, e.cfg, e.shape)
	e.led.Charge("lsh-host", ns)
}

func (b *lshFilterBatch) WrapErr(retries int, last error) error {
	return fmt.Errorf("pgraph: LSH filter failed after %d attempts (%v): %w",
		retries+1, last, ErrRetryBudget)
}

// runBanded computes the resident signature buffer (stage A), then streams
// band groups through key hashing, sorting and bucket emission (stage B).
func (e *lshEnv) runBanded() error {
	ne := len(e.sets)
	if ne == 0 {
		return nil
	}
	spansA, spansB, err := e.lshPlans()
	if err != nil {
		return err
	}
	dev := e.dev
	sigBuf, err := dev.Malloc(e.lshSigWords())
	if err != nil {
		return err
	}
	defer sigBuf.Free()
	fam := e.shape.Family()

	for _, sp := range spansA {
		if err := e.runSigSpan(sigBuf, fam, sp); err != nil {
			return err
		}
	}
	for _, sp := range spansB {
		if err := e.runBandSpan(sigBuf, sp); err != nil {
			return err
		}
	}
	return nil
}

// runSigSpan fills signature columns [sp.Lo, sp.Hi): upload the span's
// concatenated shingles and segment offsets, then min-hash every segment
// under the whole family in one launch into the resident buffer.
func (e *lshEnv) runSigSpan(sigBuf *gpusim.Buffer, fam minwise.Family, sp sched.Span) error {
	ne := len(e.sets)
	ns := sp.Hi - sp.Lo
	words := 0
	for _, set := range e.sets[sp.Lo:sp.Hi] {
		words += len(set)
	}
	data := make([]uint32, 0, words)
	offs := make([]uint32, ns+1)
	for i, set := range e.sets[sp.Lo:sp.Hi] {
		offs[i] = uint32(len(data))
		data = append(data, set...)
	}
	offs[ns] = uint32(len(data))
	e.led.Charge("lsh-stage", float64(len(data)+ns+1)*packNsPerWord)

	dev := e.dev
	bufs, err := lshMalloc(dev, len(data), ns+1)
	if err != nil {
		return err
	}
	dataBuf, offBuf := bufs[0], bufs[1]
	defer lshFree(bufs)
	if err := dev.CopyH2D(dataBuf, 0, data); err != nil {
		return err
	}
	if err := dev.CopyH2D(offBuf, 0, offs); err != nil {
		return err
	}
	segs := thrust.Segments{Offsets: offBuf, NumSegs: ns}
	return thrust.SegmentedMinHash(dev, nil, dataBuf, segs, fam.Pairs, sigBuf, ne, sp.Lo)
}

// runBandSpan processes bands [sp.Lo, sp.Hi): host-stage the band indices
// and sequence columns, device-hash the span's bucket keys in one launch,
// then sort, mark and emit.
func (e *lshEnv) runBandSpan(sigBuf *gpusim.Buffer, sp sched.Span) error {
	ne := len(e.sets)
	g := sp.Hi - sp.Lo
	n := g * ne
	hi := make([]uint32, n)
	val := make([]uint32, n)
	for b := 0; b < g; b++ {
		for i := 0; i < ne; i++ {
			hi[b*ne+i] = uint32(sp.Lo + b)
			val[b*ne+i] = uint32(i)
		}
	}
	e.led.Charge("lsh-stage", float64(2*n)*packNsPerWord)

	dev := e.dev
	bufs, err := lshMalloc(dev, n, n, n, n)
	if err != nil {
		return err
	}
	hiBuf, loBuf, valBuf, flagBuf := bufs[0], bufs[1], bufs[2], bufs[3]
	defer lshFree(bufs)
	if err := dev.CopyH2D(hiBuf, 0, hi); err != nil {
		return err
	}
	if err := dev.CopyH2D(valBuf, 0, val); err != nil {
		return err
	}
	if err := thrust.BandHash(dev, nil, sigBuf, ne, sp.Lo, sp.Hi, e.shape.Rows, loBuf, 0); err != nil {
		return err
	}
	return e.groupAndEmit(hiBuf, loBuf, valBuf, flagBuf, n)
}

// groupAndEmit sorts the (hi, lo, value) records, marks bucket heads,
// downloads the run structure and emits each bucket's cross pairs on the
// host.
func (e *lshEnv) groupAndEmit(hiBuf, loBuf, valBuf, flagBuf *gpusim.Buffer, n int) error {
	dev := e.dev
	if err := thrust.SortPairs64(dev, hiBuf, loBuf, valBuf, n); err != nil {
		return err
	}
	if err := thrust.MarkBucketHeads(dev, nil, hiBuf, loBuf, n, flagBuf); err != nil {
		return err
	}
	flags := make([]uint32, n)
	vals := make([]uint32, n)
	if err := dev.CopyD2H(flags, flagBuf, 0); err != nil {
		return err
	}
	if err := dev.CopyD2H(vals, valBuf, 0); err != nil {
		return err
	}
	e.emitRuns(flags, vals)
	e.led.Charge("lsh-emit", float64(n)*FilterNsPerOp)
	return nil
}

// lshMalloc allocates one buffer per requested size, freeing the partial
// set on failure.
func lshMalloc(dev *gpusim.Device, sizes ...int) ([]*gpusim.Buffer, error) {
	bufs := make([]*gpusim.Buffer, len(sizes))
	for i, n := range sizes {
		b, err := dev.Malloc(n)
		if err != nil {
			lshFree(bufs[:i])
			return nil, err
		}
		bufs[i] = b
	}
	return bufs, nil
}

func lshFree(bufs []*gpusim.Buffer) {
	for _, b := range bufs {
		b.Free()
	}
}

// lshBudget resolves the filter's device word budget: the explicit batch
// cap, or legacySWBudget's free-memory share, which the verification stage
// also defaults to (the filter's buffers are freed before verification
// plans, so the stages never contend).
func lshBudget(dev *gpusim.Device, cfg Config) int {
	if cfg.GPUBatchWords > 0 {
		return cfg.GPUBatchWords
	}
	return legacySWBudget(dev)
}

// lshDeviceFilter runs the LSH candidate pass on the device through the
// resilience ladder, records the plan (batches, budget, predicted vs actual
// window) into Stats.LSHPlan, and returns the candidate set.
func lshDeviceFilter(dev *gpusim.Device, led *sched.Ledger, seqs []seq.Sequence, cfg Config, shape LSHShape, st *Stats) (map[pairKey]bool, error) {
	sets, ids, total, shingleOps := shingleSets(seqs, cfg.MinExactMatch)
	led.Charge("lsh-shingle", float64(shingleOps)*FilterNsPerOp)

	env := &lshEnv{dev: dev, led: led, cfg: cfg, shape: shape, sets: sets, ids: ids,
		seqs: seqs, total: total, budget: lshBudget(dev, cfg)}
	spansA, spansB, err := env.lshPlans()
	if err != nil {
		return nil, err
	}
	m := calibrateLSHModel(dev.Config(), env)
	report := sched.PlanReport{BudgetWords: env.budget, Lanes: 1, Batches: len(spansA) + len(spansB),
		PredictedNs: predictLSH(m, env, spansA, spansB)}

	schedT0 := dev.HostTime()
	if err := cfg.runner(led, &st.Faults).Run(&lshFilterBatch{env: env}); err != nil {
		return nil, err
	}
	dev.Synchronize()
	report.ActualNs = dev.HostTime() - schedT0
	st.LSHPlan = report
	sched.RecordPlan(cfg.Obs, "pgraph_lsh", report)
	return env.pairs, nil
}
