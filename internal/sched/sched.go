// Package sched is the generic device batch-scheduler framework shared by
// the shingling pipeline (internal/core) and the Smith–Waterman
// verification stage (internal/pgraph). Both consumers used to carry their
// own copies of the same machinery; this package owns the single
// implementation of:
//
//   - the batch planner (PlanSpans): greedy packing of weighted items
//     against a device word budget, with workload-specific incremental
//     costs supplied through the Sizer interface;
//   - the pipelined executor (RunLanes): an N-lane double-buffered loop
//     that drains work items in submission order, so emission-order
//     dependent consumers stay bit-identical to a sequential loop;
//   - the resilience ladder (Runner.Run / Runner.RunPass): retry with
//     exponential virtual-clock backoff, split on persistent OOM, degrade
//     to a bit-identical host fallback — or fail typed when the fallback
//     is disabled;
//   - the cost model (Model, Sim): calibrated per-kernel throughput plus a
//     small discrete-event replica of gpusim's engine scheduling, used by
//     the auto-tuner (tune.go) to pick a batch budget and lane count by
//     predicted virtual time.
//
// Everything here prices work on the simulated device's virtual clock;
// recording through internal/obs is pure observation and never perturbs
// the schedule (a nil recorder is bit-identical).
package sched

import (
	"errors"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/obs"
)

const (
	// DefaultFaultRetries is the per-batch retry budget used when a
	// consumer's FaultRetries knob is zero.
	DefaultFaultRetries = 3

	// DefaultRetryBackoffNs is the base virtual-clock delay between fault
	// retries when the consumer's RetryBackoffNs knob is zero; attempt k
	// waits base·2^k simulated nanoseconds.
	DefaultRetryBackoffNs = 2e6

	// MaxSplitDepth bounds recursive OOM batch splitting; at depth d a
	// batch has at most ceil(n/2^d) of its original weight, so 40 levels
	// cover any 32-bit workload with slack.
	MaxSplitDepth = 40
)

// ErrRetryBudget is wrapped by batch errors returned once the fault-retry
// budget is exhausted and the host fallback is disabled. Consumers alias it
// so errors.Is keeps working across the refactor.
var ErrRetryBudget = errors.New("sched: device fault retry budget exhausted")

// RetryableFault reports whether a batch error may be retried: injected
// device faults and device OOM. Anything else (range errors, invalid
// launches) is a programming error and stays fatal.
func RetryableFault(err error) bool {
	return errors.Is(err, gpusim.ErrDeviceFault) || errors.Is(err, gpusim.ErrOutOfDeviceMemory)
}

// ResolveRetries maps a consumer's FaultRetries knob to a concrete budget:
// 0 is a sentinel for DefaultFaultRetries, negative disables retries.
func ResolveRetries(n int) int {
	if n > 0 {
		return n
	}
	if n < 0 {
		return 0
	}
	return DefaultFaultRetries
}

// ResolveBackoff maps a consumer's RetryBackoffNs knob to the base delay
// (0 = DefaultRetryBackoffNs; negative values are rejected by consumers
// before any scheduling runs).
func ResolveBackoff(ns float64) float64 {
	if ns > 0 {
		return ns
	}
	return DefaultRetryBackoffNs
}

// Policy is the resolved retry policy of one scheduling run.
type Policy struct {
	Retries   int     // per-batch (or per-pass) retry budget
	BackoffNs float64 // base backoff; attempt k waits BackoffNs·2^k
}

// Batch is one unit of resilient work. Attempt must leave consumer state as
// if the attempt never happened when it fails (roll back, or be idempotent);
// Fallback must not fail — it is the ladder's last resort.
type Batch interface {
	// Attempt runs the batch once on the device.
	Attempt() error
	// Split halves the batch for OOM recovery; ok is false when it cannot
	// shrink further.
	Split() (left, right Batch, ok bool)
	// Fallback executes the batch on the host, bit-identically.
	Fallback()
	// WrapErr formats the typed budget-exhausted error (NoHostFallback);
	// it must wrap ErrRetryBudget. retries is the exhausted budget and
	// last the final device error.
	WrapErr(retries int, last error) error
}

// Pass is a whole pipelined pass under restart-based recovery: its lanes
// interleave every batch's device work, so there is no per-batch state to
// roll back — a faulted pass restarts whole and, when restarts exhaust the
// budget, degrades to the consumer's sequential per-batch ladder.
type Pass interface {
	// Attempt runs the whole pass once.
	Attempt() error
	// Reset restores the pass's output state after a failed attempt. It
	// runs on every failure, before the error is classified.
	Reset()
	// Settle quiesces the device after a retryable failure (e.g. a stream
	// synchronize), before any recovery accounting.
	Settle()
	// Degrade runs the pass through the sequential per-batch ladder.
	Degrade() error
}

// Runner executes batches and passes under the resilience ladder,
// accounting every recovery action in Rec, charging its backoff stalls to
// the run's Ledger and marking each action on the recovery track.
type Runner struct {
	Ledger         *Ledger
	Rec            *faults.Recovery
	Policy         Policy
	NoHostFallback bool
}

// noteRetry classifies a retryable fault, records the recovery action and
// burns the attempt's exponential backoff on the virtual clock.
func (r *Runner) noteRetry(err error, attempt int) {
	switch {
	case errors.Is(err, gpusim.ErrTransferFault):
		r.Rec.TransferRetries++
		r.Ledger.Recovery("retry:transfer")
	case errors.Is(err, gpusim.ErrLaunchFault):
		r.Rec.KernelRetries++
		r.Ledger.Recovery("retry:kernel")
	default:
		r.Rec.OOMRetries++
		r.Ledger.Recovery("retry:oom")
	}
	r.backoff(attempt)
}

func (r *Runner) backoff(attempt int) {
	back := r.Policy.BackoffNs * float64(int64(1)<<attempt)
	r.Ledger.Charge(obs.NameBackoff, back)
	r.Rec.BackoffNs += back
}

// Run executes one batch through the ladder: retry with backoff while the
// budget lasts, then split on persistent OOM (each half gets a fresh
// budget), then degrade to the host fallback — or fail typed under
// NoHostFallback.
func (r *Runner) Run(b Batch) error { return r.run(b, 0) }

func (r *Runner) run(b Batch, depth int) error {
	budget := r.Policy.Retries
	for attempt := 0; ; attempt++ {
		err := b.Attempt()
		if err == nil {
			return nil
		}
		if !RetryableFault(err) {
			return err
		}
		if attempt < budget {
			r.noteRetry(err, attempt)
			continue
		}
		// Budget exhausted. Persistent OOM: shrink the footprint and give
		// each half a fresh budget.
		if errors.Is(err, gpusim.ErrOutOfDeviceMemory) && depth < MaxSplitDepth {
			if left, right, ok := b.Split(); ok {
				r.Rec.OOMSplits++
				r.Ledger.Recovery("oom-split")
				if err := r.run(left, depth+1); err != nil {
					return err
				}
				return r.run(right, depth+1)
			}
		}
		if r.NoHostFallback {
			return b.WrapErr(budget, err)
		}
		r.Rec.HostFallbacks++
		r.Ledger.Recovery("host-fallback")
		b.Fallback()
		return nil
	}
}

// RunPass executes a pipelined pass through the restart ladder: a faulted
// pass is reset and retried with backoff, and when restarts exhaust the
// budget it degrades to the consumer's sequential per-batch ladder (which
// recovers per batch, splits on OOM and can fall back to the host, so it
// completes whenever recovery is possible at all).
func (r *Runner) RunPass(p Pass) error {
	budget := r.Policy.Retries
	for attempt := 0; ; attempt++ {
		err := p.Attempt()
		if err == nil {
			return nil
		}
		p.Reset()
		if !RetryableFault(err) {
			return err
		}
		p.Settle()
		if attempt >= budget {
			r.Rec.Restarts++
			r.Ledger.Recovery("degrade-sequential")
			return p.Degrade()
		}
		r.Rec.Restarts++
		r.Ledger.Recovery("restart")
		r.backoff(attempt)
	}
}
