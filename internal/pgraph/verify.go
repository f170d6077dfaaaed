package pgraph

import (
	"fmt"

	"gpclust/internal/align"
	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
)

// Exported incremental primitives for the resident serving layer
// (internal/serve): a Verifier that scores candidate pairs over a growing
// corpus through the same batched Smith–Waterman machinery Build uses, and
// the LSH pieces (shingles, permutation family, band keys) needed to
// maintain a resident candidate index bit-identical to the batch filter.
//
// The equivalence that makes incremental clustering sound: a sequence's
// MinHash signature and band keys are functions of its own shingle set
// alone (the permutation family is fixed by lshFamilySeed), so bucketing
// sequences one at a time into resident band maps discovers exactly the
// pair set the batch LSH filter emits over the union corpus; SW acceptance
// is a pairwise-independent threshold; and the union-find partition is
// order-independent. Insert order therefore never changes the final
// families — serve's acceptance tests pin this against a from-scratch
// Build of the same corpus.

// Pair is one candidate pair of Verifier sequence indices.
type Pair struct{ A, B int32 }

// ResolveLSHShape validates and resolves the Config's LSH shape exactly as
// Build does, but requires Filter == FilterLSH: the exact filter depends on
// global corpus structure (suffix runs, WindowCap throttling), so no
// resident index can reproduce its batch candidate set under insertion —
// only the per-sequence LSH bucketing is order-independent.
func ResolveLSHShape(cfg Config) (LSHShape, error) {
	f, p, err := resolveFilter(cfg)
	if err != nil {
		return LSHShape{}, err
	}
	if f != FilterLSH {
		return LSHShape{}, fmt.Errorf("pgraph: incremental indexing requires Filter %q, got %q", FilterLSH, f)
	}
	return p, nil
}

// Family returns the fixed MinHash permutation family of the shape — drawn
// from lshFamilySeed like the batch filter's, so band keys match bit for
// bit.
func (s LSHShape) Family() minwise.Family {
	return minwise.NewFamily(s.hashes(), lshFamilySeed)
}

// ShingleSet returns the sorted distinct k-shingles of one residue string,
// bit-identical to the batch filter's per-sequence sets. A nil result means
// the sequence is shorter than k and ineligible: the batch filter never
// buckets it, so an index must not either.
func ShingleSet(r []byte, k int) []uint32 {
	return shingleOne(r, k, make(map[uint32]bool))
}

// BandKeys returns the banded bucket keys of one non-empty shingle set
// under fam — the same keys bandedLSHPairs groups on, so two sequences
// collide in a resident band map iff the batch filter pairs them.
func (s LSHShape) BandKeys(fam minwise.Family, set []uint32) []uint32 {
	g := fam.SequenceSignatures([][]uint32{set})
	keys := make([]uint32, s.Bands)
	for b := range keys {
		keys[b] = g.BandKey(0, b, s.Rows)
	}
	return keys
}

// Verifier scores candidate pairs over a growing resident corpus. It keeps
// the encoded sequences and (on the GPU backend) the substitution table
// device-resident across calls, so a serving process pays the upload once
// instead of once per request batch. Score runs the same length-binned
// batch planner and per-batch resilience ladder as Build's sequential
// scheduler, and scores on the host (the host backend, a degraded Verifier,
// a batch's host fallback) on Build's pool of Config.Workers; scores are
// bit-identical to align.ScoreOnly on every path and for any worker count.
//
// A Verifier is not safe for concurrent use: the serving layer funnels all
// Add/Score/Truncate calls through its single scheduler goroutine, and only
// Score's own pool runs beside it.
type Verifier struct {
	cfg      Config
	dev      *gpusim.Device // nil on the host backend
	table    *gpusim.Buffer // resident score table; nil when degraded
	degraded bool           // table upload exhausted its ladder: host scoring forever
	seqs     []seq.Sequence
	enc      [][]byte
	rec      faults.Recovery
}

// NewVerifier validates the Config and readies the backend. On the GPU
// backend the substitution table is uploaded through the retry ladder at
// construction; if the upload budget is exhausted (and host fallback is
// allowed) the Verifier degrades permanently to bit-identical host scoring
// rather than failing every future request.
func NewVerifier(cfg Config) (*Verifier, error) {
	if cfg.MinExactMatch < 4 {
		return nil, fmt.Errorf("pgraph: MinExactMatch %d too small", cfg.MinExactMatch)
	}
	if cfg.RetryBackoffNs < 0 {
		return nil, fmt.Errorf("pgraph: negative RetryBackoffNs %g", cfg.RetryBackoffNs)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("pgraph: negative Workers %d", cfg.Workers)
	}
	v := &Verifier{cfg: cfg}
	if cfg.GPU {
		dev := cfg.Device
		if dev == nil {
			dev = gpusim.MustNew(gpusim.K20Config())
			v.cfg.Device = dev
		}
		v.dev = dev
		if err := v.cfg.runner(sched.NewLedger(dev, v.cfg.Obs), &v.rec).Run(&residentTableUpload{v: v}); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// residentTableUpload stages the Verifier's resident score table through
// the sched ladder. The table cannot shrink, so Split never applies;
// Fallback marks the Verifier degraded, which routes every Score call to
// the bit-identical host path.
type residentTableUpload struct{ v *Verifier }

func (u *residentTableUpload) Attempt() error {
	t, err := uploadSWTable(u.v.dev)
	if err != nil {
		return err
	}
	u.v.table = t
	return nil
}

func (u *residentTableUpload) Split() (sched.Batch, sched.Batch, bool) { return nil, nil, false }

func (u *residentTableUpload) Fallback() { u.v.degraded = true }

func (u *residentTableUpload) WrapErr(retries int, last error) error {
	return fmt.Errorf("pgraph: resident score-table upload failed after %d attempts (%v): %w",
		retries+1, last, ErrRetryBudget)
}

// Add validates and appends one sequence to the resident corpus, returning
// its index.
func (v *Verifier) Add(s seq.Sequence) (int, error) {
	if err := align.ValidateSequence(s.Residues); err != nil {
		return 0, fmt.Errorf("pgraph: sequence %q: %w", s.ID, err)
	}
	v.seqs = append(v.seqs, s)
	v.enc = append(v.enc, align.Encode(s.Residues))
	return len(v.seqs) - 1, nil
}

// Len returns the resident corpus size.
func (v *Verifier) Len() int { return len(v.seqs) }

// Sequence returns the i-th resident sequence.
func (v *Verifier) Sequence(i int) seq.Sequence { return v.seqs[i] }

// Truncate drops the sequences at index n and above — the serving layer's
// rollback after a failed insert pass, and its way of discarding transient
// query sequences after a successful one.
func (v *Verifier) Truncate(n int) {
	if n < 0 || n >= len(v.seqs) {
		return
	}
	for i := n; i < len(v.seqs); i++ {
		v.seqs[i], v.enc[i] = seq.Sequence{}, nil
	}
	v.seqs, v.enc = v.seqs[:n], v.enc[:n]
}

// Score returns each pair's Smith–Waterman score (in input order) and the
// number of device batches the plan took (0 on host paths). On the GPU
// backend the pairs are length-binned, packed through the batch planner
// under the configured budget, and run through the per-batch resilience
// ladder against the resident table; host scoring runs on Config.Workers
// and is priced by DP cells, so neither the scores nor the virtual time
// depend on the worker count. Duplicated pairs are allowed and score
// identically.
func (v *Verifier) Score(reqs []Pair) ([]int32, int, error) {
	if len(reqs) == 0 {
		return nil, 0, nil
	}
	pairs := make([]pairKey, len(reqs))
	for i, p := range reqs {
		if p.A == p.B || p.A < 0 || int(p.A) >= len(v.seqs) || p.B < 0 || int(p.B) >= len(v.seqs) {
			return nil, 0, fmt.Errorf("pgraph: invalid pair (%d,%d) over %d resident sequences",
				p.A, p.B, len(v.seqs))
		}
		pairs[i] = makePair(p.A, p.B)
	}
	scores := make([]int32, len(pairs))
	order := binPairs(v.enc, pairs, !v.cfg.NoLengthBin)
	env := &swEnv{dev: v.dev, led: sched.NewLedger(v.dev, v.cfg.Obs), table: v.table, enc: v.enc,
		pairs: pairs, order: order, cfg: v.cfg, scores: scores, rec: &v.rec, workers: v.cfg.WorkerCount()}
	batches := 0
	switch {
	case v.dev == nil:
		scoreHost(v.enc, pairs, order, v.cfg.Align, scores, env.workers)
	case v.degraded:
		env.scoreOnHost(swBatch{hi: len(order)})
	default:
		budget := v.cfg.GPUBatchWords
		if budget <= 0 {
			budget = legacySWBudget(v.dev)
		}
		plans, err := planSWBatches(v.enc, pairs, order, budget, layoutFor(v.cfg.Packed))
		if err != nil {
			return nil, 0, err
		}
		if err := runSWBatchesSequentialResilient(env, plans); err != nil {
			return nil, 0, err
		}
		batches = len(plans)
	}
	res := make([]int32, len(reqs))
	for k, idx := range order {
		res[idx] = scores[k]
	}
	return res, batches, nil
}

// Accept reports whether a score joins resident sequences a and b — the
// exact threshold Build applies on both backends.
func (v *Verifier) Accept(score int32, a, b int) bool {
	minLen := min(len(v.seqs[a].Residues), len(v.seqs[b].Residues))
	return float64(score) >= v.cfg.MinScorePerResidue*float64(minLen)
}

// Recovery returns the fault-recovery actions taken across the Verifier's
// lifetime (table upload plus every Score call).
func (v *Verifier) Recovery() faults.Recovery { return v.rec }

// Degraded reports whether the Verifier fell back to permanent host scoring
// because the resident table could not be uploaded.
func (v *Verifier) Degraded() bool { return v.degraded }

// Device returns the resident device (nil on the host backend).
func (v *Verifier) Device() *gpusim.Device { return v.dev }

// Close frees the resident table. The Verifier must not be used after.
func (v *Verifier) Close() {
	if v.table != nil {
		v.table.Free()
		v.table = nil
	}
}
