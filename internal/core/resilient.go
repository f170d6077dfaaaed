package core

import (
	"fmt"
	"slices"

	"gpclust/internal/faults"
	"gpclust/internal/minwise"
	"gpclust/internal/obs"
	"gpclust/internal/sched"
	"gpclust/internal/thrust"
)

// Resilient batch execution. The shingling executor treats device faults —
// failed transfers, failed launches, allocation failures — as recoverable,
// under two ladders that both run the executor: a one-lane plan recovers
// per batch (coreBatch), a pipelined plan restarts the pass and finally
// degrades to the one-lane plan (corePass). The generic ladders (retry
// with exponential virtual-clock backoff, split persistent-OOM batches in
// half, degrade to a bit-identical host execution, or fail typed under
// Options.NoHostFallback) live in internal/sched. This file adapts the
// shingling pass to them: what a batch attempt must roll back, how a plan
// splits, and what the host fallback emits, so the clustering a faulted
// run produces stays byte-for-byte the clustering of a fault-free run.
// Every recovery action is counted in faults.Recovery (Result.Faults).

// DefaultFaultRetries is the per-batch retry budget used when
// Options.FaultRetries is zero.
const DefaultFaultRetries = sched.DefaultFaultRetries

// DefaultRetryBackoffNs is the base virtual-clock delay between fault
// retries used when Options.RetryBackoffNs is zero; attempt k waits
// base·2^k simulated nanoseconds.
const DefaultRetryBackoffNs = sched.DefaultRetryBackoffNs

// retryBackoff resolves Options.RetryBackoffNs to the concrete base delay.
func (o Options) retryBackoff() float64 { return sched.ResolveBackoff(o.RetryBackoffNs) }

// ErrRetryBudget is wrapped by batch errors returned once the fault-retry
// budget is exhausted and host fallback is disabled. It aliases the sched
// framework's sentinel so errors.Is works across both.
var ErrRetryBudget = sched.ErrRetryBudget

// retryBudget resolves Options.FaultRetries to a concrete per-batch
// budget.
func (o Options) retryBudget() int { return sched.ResolveRetries(o.FaultRetries) }

// runner assembles the sched resilience ladder for one scheduling run.
func (o Options) runner(led *sched.Ledger, rec *faults.Recovery) *sched.Runner {
	return &sched.Runner{
		Ledger: led, Rec: rec,
		Policy:         sched.Policy{Retries: o.retryBudget(), BackoffNs: o.retryBackoff()},
		NoHostFallback: o.NoHostFallback,
	}
}

// pendSnap records one split list's pre-attempt pending state; saved is
// nil when the list had no pending entry yet.
type pendSnap struct {
	list  int
	saved *pendingShingle
}

// batchSnapshot captures the aggregation state a batch attempt may mutate,
// so a failed attempt can roll back and the retry emits every tuple
// exactly once. Only lengths are recorded for the tuple streams (appends
// are the only mutation) and only the batch's own split lists are copied
// from pending (mergeTopS builds fresh slices, so row sharing is safe).
type batchSnapshot struct {
	tupleLens  []int
	sortedLens []int
	pend       []pendSnap
	tuples     int64
}

func (e *passEnv) snapshot(plan batchPlan) *batchSnapshot {
	snap := &batchSnapshot{tuples: e.stats.Tuples, tupleLens: make([]int, len(e.tuplesByTrial))}
	for i := range e.tuplesByTrial {
		snap.tupleLens[i] = len(e.tuplesByTrial[i])
	}
	if e.sortedByTrial != nil {
		snap.sortedLens = make([]int, len(e.sortedByTrial))
		for i := range e.sortedByTrial {
			snap.sortedLens[i] = len(e.sortedByTrial[i])
		}
	}
	seen := make(map[int]bool)
	for _, pc := range plan.pieces {
		if pc.isWhole(e.in) || seen[pc.list] {
			continue
		}
		seen[pc.list] = true
		var saved *pendingShingle
		if p := e.pending[pc.list]; p != nil {
			saved = &pendingShingle{perTrial: make([][]uint32, len(p.perTrial))}
			copy(saved.perTrial, p.perTrial)
		}
		snap.pend = append(snap.pend, pendSnap{list: pc.list, saved: saved})
	}
	return snap
}

func (e *passEnv) restore(snap *batchSnapshot) {
	for i := range e.tuplesByTrial {
		e.tuplesByTrial[i] = e.tuplesByTrial[i][:snap.tupleLens[i]]
	}
	for i := range snap.sortedLens {
		e.sortedByTrial[i] = e.sortedByTrial[i][:snap.sortedLens[i]]
	}
	for _, ps := range snap.pend {
		if ps.saved == nil {
			delete(e.pending, ps.list)
		} else {
			e.pending[ps.list] = ps.saved
		}
	}
	e.stats.Tuples = snap.tuples
}

// splitBatchPlan halves a plan: by piece count when it holds several
// pieces, otherwise by splitting its single piece's element range (the
// halves then merge through the pending split-list path, which is
// bit-identical by construction). ok is false when the plan is a single
// piece of fewer than two elements and cannot shrink further.
func splitBatchPlan(plan batchPlan) (left, right batchPlan, ok bool) {
	rebuild := func(pieces []batchPiece) batchPlan {
		p := batchPlan{pieces: pieces}
		for _, pc := range pieces {
			p.words += pc.words()
		}
		return p
	}
	if len(plan.pieces) >= 2 {
		mid := len(plan.pieces) / 2
		return rebuild(plan.pieces[:mid:mid]), rebuild(plan.pieces[mid:]), true
	}
	if len(plan.pieces) == 1 {
		pc := plan.pieces[0]
		if pc.hi-pc.lo >= 2 {
			mid := pc.lo + (pc.hi-pc.lo)/2
			return rebuild([]batchPiece{{list: pc.list, lo: pc.lo, hi: mid}}),
				rebuild([]batchPiece{{list: pc.list, lo: mid, hi: pc.hi}}), true
		}
	}
	return batchPlan{}, batchPlan{}, false
}

// coreBatch adapts one shingling batch to sched.Batch: an attempt is a
// one-lane executor run over the batch that rolls the aggregation state
// back on any failure, a split halves the plan, and the fallback replays
// the batch through the host shingler.
type coreBatch struct {
	env  *passEnv
	plan batchPlan
}

func (b coreBatch) Attempt() error {
	e := b.env
	snap := e.snapshot(b.plan)
	err := e.runLanes("", []batchPlan{b.plan}, 1)
	if err != nil {
		e.restore(snap)
	}
	return err
}

func (b coreBatch) Split() (sched.Batch, sched.Batch, bool) {
	left, right, ok := splitBatchPlan(b.plan)
	if !ok {
		return nil, nil, false
	}
	return coreBatch{b.env, left}, coreBatch{b.env, right}, true
}

func (b coreBatch) Fallback() { b.env.runBatchHost(b.plan) }

func (b coreBatch) WrapErr(retries int, last error) error {
	return fmt.Errorf("core: batch of %d pieces failed after %d retries: %w (last: %v)",
		len(b.plan.pieces), retries, ErrRetryBudget, last)
}

// runBatches is the one-lane plan: each batch in turn through the per-batch
// recovery ladder — retry with backoff while the budget lasts, then split
// on persistent OOM, then degrade to the host path (or fail typed under
// NoHostFallback) — with one span per batch on the batches track.
func (e *passEnv) runBatches(label string, plans []batchPlan) error {
	r := e.o.runner(e.led, e.rec)
	for i, plan := range plans {
		var end obs.Ending
		var t0 float64
		if e.o.Obs.Enabled() {
			t0 = e.dev.HostTime()
			end = e.o.Obs.Start(obs.TrackBatches, fmt.Sprintf("%s.b%d", label, i), t0)
		}
		if err := r.Run(coreBatch{e, plan}); err != nil {
			return err
		}
		if e.o.Obs.Enabled() {
			t1 := e.dev.HostTime()
			end.End(t1)
			batchHistogram(e.o.Obs).Observe(t1 - t0)
		}
	}
	return nil
}

// runBatchHost executes one batch entirely on the CPU, emitting exactly
// the tuples the device path would have: per trial and piece it applies
// the trial's hash to the piece's elements and selects their top-s minima
// (minwise.MinS, the serial shingler's scan; a piece shorter than s is
// sorted whole and sentinel-padded like the device kernel's short
// segments), then feeds the rows through the same aggregation code. It
// cannot fail, which makes it the recovery ladder's last resort; its cost
// is charged at the serial backend's shingling price (this is 2008-era
// host shingling).
func (e *passEnv) runBatchHost(plan batchPlan) {
	s := e.s
	hostOut := make([]uint32, len(plan.pieces)*s)
	var shingleOps int64

	for trial, h := range e.fam.Pairs {
		for pi, pc := range plan.pieces {
			base := e.in.Offsets[pc.list]
			data := e.in.Data[base+pc.lo : base+pc.hi]
			dst := hostOut[pi*s : (pi+1)*s]
			if len(data) >= s {
				minwise.MinS(h, data, dst)
			} else {
				for i, v := range data {
					dst[i] = h.Apply(v)
				}
				slices.Sort(dst[:len(data)])
				for i := len(data); i < s; i++ {
					dst[i] = thrust.TopSSentinel
				}
			}
			shingleOps += shingleListOps(len(data), s)
		}
		var ops int64
		if e.sortedByTrial != nil {
			ops = e.emitTrialAggHost(&plan, trial, hostOut)
		} else {
			ops = e.emitTrialTuples(&plan, trial, hostOut)
		}
		e.led.Charge("aggregate", float64(ops)*AggregateNsPerOp)
	}
	e.led.Charge(obs.NameShingle, float64(shingleOps)*SerialShingleNsPerOp)
}

// emitTrialAggHost is the GPUAggregate-mode twin of emitTrialTuples for
// the host fallback: whole long pieces become one (key, owner)-sorted
// stream appended to sortedByTrial — the order thrust.SortPairs64 would
// have produced, so the pre-sorted stream merge sees identical input —
// and split pieces merge through pending exactly as on the device path. It
// returns the aggregation operations it counted.
func (e *passEnv) emitTrialAggHost(plan *batchPlan, trial int, hostOut []uint32) int64 {
	s := e.s
	var stream []tuple
	var ops int64
	for pi, pc := range plan.pieces {
		vals := hostOut[pi*s : (pi+1)*s]
		switch {
		case !pc.isWhole(e.in):
			ops += e.mergeSplitPiece(pc, trial, vals)
		case pc.words() >= s:
			stream = append(stream, tuple{key: shingleKey(uint32(trial), vals), owner: e.in.Owner(pc.list)})
		}
	}
	sortTuples(stream)
	e.sortedByTrial[trial] = append(e.sortedByTrial[trial], stream)
	e.stats.Tuples += int64(len(stream))
	return ops + int64(len(stream))
}

// corePass adapts a pipelined pass to sched.Pass. The lanes interleave
// every batch's device work, so there is no per-batch state to roll back
// to; instead a faulted pass restarts whole (Reset returns the output state
// to the pre-pass snapshot), and when the restart budget is exhausted it
// degrades to the one-lane plan — which recovers per batch, splits on OOM
// and can fall back to the host, so it completes whenever recovery is
// possible at all.
type corePass struct {
	env   *passEnv
	label string
	plans []batchPlan
	lanes int
	snap  *batchSnapshot // pre-pass output state (pending starts empty)
}

func (p *corePass) Attempt() error { return p.env.runLanes(p.label, p.plans, p.lanes) }

func (p *corePass) Reset() {
	p.env.restore(p.snap)
	clear(p.env.pending)
}

// Settle is a no-op: the executor frees its lanes before returning an
// error, and work still queued on their streams only delays later
// operations on the virtual clock.
func (p *corePass) Settle() {}

func (p *corePass) Degrade() error { return p.env.runBatches(p.label, p.plans) }

// runPass runs a pipelined plan under the restart ladder
// (sched.Runner.RunPass). pending must be empty at entry (it is: the pass
// is the first writer).
func (e *passEnv) runPass(label string, plans []batchPlan, lanes int) error {
	pass := &corePass{env: e, label: label, plans: plans, lanes: lanes, snap: e.snapshot(batchPlan{})}
	return e.o.runner(e.led, e.rec).RunPass(pass)
}
