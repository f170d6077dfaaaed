package pgraph

import (
	"fmt"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/sched"
)

// Resilient batch execution for the GPU verification scheduler. The
// generic ladder — retry with exponential virtual-clock backoff, split
// persistent-OOM batches in half, degrade to a bit-identical host
// execution, or fail typed under Config.NoHostFallback — lives in
// internal/sched; this file adapts the Smith–Waterman batch stream to it.
// Score writes are idempotent (scores[p.lo+i] depends only on the batch
// contents), so a failed attempt needs no rollback. The edge set is
// bit-identical to a fault-free run; Stats.Faults counts what recovery cost.

// DefaultFaultRetries is the per-batch retry budget when Config.FaultRetries
// is zero.
const DefaultFaultRetries = sched.DefaultFaultRetries

// DefaultRetryBackoffNs is the virtual-clock backoff before the first retry
// of a faulted batch when Config.RetryBackoffNs is zero; attempt k waits 2^k
// times as long.
const DefaultRetryBackoffNs = sched.DefaultRetryBackoffNs

// retryBackoff resolves Config.RetryBackoffNs (0 = default; negative values
// are rejected by Build before any scheduling runs).
func (c Config) retryBackoff() float64 { return sched.ResolveBackoff(c.RetryBackoffNs) }

// ErrRetryBudget is wrapped by verification errors reported after the
// retry budget is exhausted with the host fallback disabled. It aliases the
// sched framework's sentinel so errors.Is works across both.
var ErrRetryBudget = sched.ErrRetryBudget

// retryBudget resolves Config.FaultRetries (0 = default, negative = none).
func (c Config) retryBudget() int { return sched.ResolveRetries(c.FaultRetries) }

// runner assembles the sched resilience ladder for one verification run.
func (c Config) runner(led *sched.Ledger, rec *faults.Recovery) *sched.Runner {
	return &sched.Runner{
		Ledger: led, Rec: rec,
		Policy:         sched.Policy{Retries: c.retryBudget(), BackoffNs: c.retryBackoff()},
		NoHostFallback: c.NoHostFallback,
	}
}

// swEnv bundles the state the resilient scheduling adapters share: the
// device and the run's ledger, the resident score table, the verification
// inputs, the per-pair score limit and the score output, the host
// fallback's pool size, plus the sequential path's reusable staging
// scratch.
type swEnv struct {
	dev     *gpusim.Device
	led     *sched.Ledger
	table   *gpusim.Buffer // resident score table; nil after the all-pairs fallback
	enc     [][]byte
	pairs   []pairKey
	order   []int
	cfg     Config
	ly      swLayout               // the plan's residue image
	limit   func(minLen int) int32 // Config.scoreLimit for Build; nil (exact) for a Verifier
	scores  []int32
	rec     *faults.Recovery
	workers int // host-fallback scoring workers

	data, out []uint32 // sequential-path scratch, reused across batches
}

// swTableUpload stages the build-resident substitution table through the
// ladder. The table cannot shrink, so Split never applies; when the upload
// fails persistently the whole verification degrades to host scoring —
// bit-identical by construction — and env.table stays nil so the batch
// loop is skipped.
type swTableUpload struct{ env *swEnv }

func (u *swTableUpload) Attempt() error {
	table, err := uploadSWTable(u.env.dev)
	if err != nil {
		return err
	}
	u.env.table = table
	return nil
}

func (u *swTableUpload) Split() (sched.Batch, sched.Batch, bool) { return nil, nil, false }

func (u *swTableUpload) Fallback() { u.env.scoreOnHost(swBatch{hi: len(u.env.order)}) }

func (u *swTableUpload) WrapErr(retries int, last error) error {
	return fmt.Errorf("pgraph: score-table upload failed after %d attempts (%v): %w",
		retries+1, last, ErrRetryBudget)
}

// swGPUBatch adapts one verification batch to the sched ladder.
type swGPUBatch struct {
	env *swEnv
	p   swBatch
}

func (b swGPUBatch) Attempt() error { return b.env.runOneSWBatch(b.p) }

// Split halves the pair range for OOM recovery. Each half re-derives its
// distinct-sequence set and gets a fresh budget from the ladder.
func (b swGPUBatch) Split() (sched.Batch, sched.Batch, bool) {
	if b.p.hi-b.p.lo < 2 {
		return nil, nil, false
	}
	mid := b.p.lo + (b.p.hi-b.p.lo)/2
	return swGPUBatch{b.env, swBatchFor(b.p.lo, mid, b.env.enc, b.env.pairs, b.env.order)},
		swGPUBatch{b.env, swBatchFor(mid, b.p.hi, b.env.enc, b.env.pairs, b.env.order)}, true
}

func (b swGPUBatch) Fallback() { b.env.scoreOnHost(b.p) }

func (b swGPUBatch) WrapErr(retries int, last error) error {
	return fmt.Errorf("pgraph: batch of %d pairs failed after %d attempts (%v): %w",
		b.p.hi-b.p.lo, retries+1, last, ErrRetryBudget)
}

// runSWBatchesSequentialResilient is the Thrust-style synchronous
// scheduler against the build-resident score table: per batch allocate,
// upload the staging image, launch, read the scores back, free, every step
// stalling the host (the paper's mode), with the recovery ladder applied
// per batch.
func runSWBatchesSequentialResilient(env *swEnv, plans []swBatch) error {
	run := env.cfg.runner(env.led, env.rec)
	for _, p := range plans {
		if err := run.Run(swGPUBatch{env: env, p: p}); err != nil {
			return err
		}
	}
	return nil
}

// swBatchFor rebuilds a batch descriptor for a sub-range of the schedule.
func swBatchFor(lo, hi int, enc [][]byte, pairs []pairKey, order []int) swBatch {
	b := swBatch{lo: lo, hi: hi}
	in := make(map[int32]bool)
	for k := lo; k < hi; k++ {
		ia, ib := pairs[order[k]].unpack()
		if !in[ia] {
			in[ia] = true
			b.seqIDs = append(b.seqIDs, ia)
			b.seqWords += seqWords(enc[ia])
		}
		if !in[ib] {
			in[ib] = true
			b.seqIDs = append(b.seqIDs, ib)
			b.seqWords += seqWords(enc[ib])
		}
	}
	return b
}

// scoreOnHost scores one batch's pairs on the host with the scorer the
// device kernel runs, so the fallback cannot change the edge set; the work
// is priced on the virtual clock at HostAlignNsPerCell like the host
// backend.
func (env *swEnv) scoreOnHost(p swBatch) {
	cells := scoreHost(env.enc, env.pairs, env.order[p.lo:p.hi], env.cfg.Align, env.limit,
		env.scores[p.lo:p.hi], env.workers)
	env.led.Charge("host-align", float64(cells)*HostAlignNsPerCell)
}
