// Package core implements the paper's contribution: the two-pass randomized
// Shingling graph-clustering heuristic (Gibson, Kumar & Tomkins 2005) for
// protein-family identification, in both its serial form (pClust, Wu &
// Kalyanaraman 2008) and its CPU–GPU form (gpClust, this paper). The GPU
// side runs on the gpusim simulated device through thrust primitives; the
// serial side is a direct port of Section III-B. Both produce bit-identical
// clusterings for the same seed, which the tests verify.
package core

import (
	"fmt"
	"runtime"

	"gpclust/internal/minwise"
	"gpclust/internal/obs"
	"gpclust/internal/sched"
)

// ReportMode selects the Phase III cluster-enumeration strategy
// (Section III-B, "Phase III - Reporting dense subgraphs").
type ReportMode int

const (
	// ReportUnionFind (the paper's choice) merges, per connected component
	// of the second-level shingle graph, every vertex constituting the
	// component's first-level shingles through a union-find structure,
	// producing a strict partition with no overlapping clusters.
	ReportUnionFind ReportMode = iota
	// ReportOverlapping emits one cluster per connected component directly;
	// a vertex contributing to shingles in different components appears in
	// several clusters.
	ReportOverlapping
)

func (m ReportMode) String() string {
	switch m {
	case ReportUnionFind:
		return "union-find"
	case ReportOverlapping:
		return "overlapping"
	}
	return fmt.Sprintf("ReportMode(%d)", int(m))
}

// Options configures a clustering run. DefaultOptions returns the paper's
// published defaults.
type Options struct {
	// First-level shingling: shingle size and count (paper: s1=2, c1=200).
	S1, C1 int
	// Second-level shingling (paper: s2=2, c2=100).
	S2, C2 int

	// Seed drives the random hash families; runs with equal seeds produce
	// identical clusterings on either backend.
	Seed int64

	// Mode selects the Phase III reporting strategy.
	Mode ReportMode

	// Plan is the GPU path's batch plan (sched.Plan): the per-batch word
	// budget of adjacency lists (lists that do not fit are split across
	// batches and the CPU merges their partial shingles, Section III-C),
	// the pipeline lanes (at most 4), the packed batch image, Algorithm 1's
	// full sort instead of the fused top-s selection, and device
	// aggregation. Every plan gives the same clustering; only the virtual
	// schedule changes. A budget of 0 is the largest that fits free device
	// memory, halved under two or more lanes, unless AutoTune picks it.
	Plan sched.Plan

	// AutoTune lets the scheduler pick the plan's word budget and lane
	// count by predicted virtual time when Plan pins no budget: candidate
	// plans (a geometric budget sweep crossed with the lane counts, only
	// pipelined ones when Plan.Lanes is 2 or more) are replayed through the
	// calibrated cost model (internal/sched) and the argmin runs. The chosen
	// plan and its predicted-vs-actual cost are reported in PassStats.Plan;
	// a fixed plan is priced by the same scratch-device model, so every GPU
	// pass reports both.
	AutoTune bool

	// Workers sizes the host worker pool: ClusterParallel's per-trial
	// shingling and tuple sorts, and ClusterGPU's per-trial aggregation (the
	// tuple sorts, or the pre-sorted stream merges under
	// Plan.DeviceAggregate). 0 means runtime.GOMAXPROCS(0). Output, virtual time and counters are
	// identical for every worker count.
	Workers int

	// FaultRetries bounds how often one GPU batch is retried after an
	// injected or transient device fault (failed transfer or launch,
	// allocation failure) before the driver degrades further — splitting
	// the batch on persistent OOM, then executing it on the bit-identical
	// host path. The zero value is a sentinel meaning DefaultFaultRetries
	// (3), NOT zero retries; a negative value is the explicit
	// library-level way to disable retries entirely. The CLIs reject
	// negative -retries so the sentinel cannot be hit by accident from the
	// command line.
	FaultRetries int

	// RetryBackoffNs is the base virtual-clock delay between fault
	// retries: attempt k waits RetryBackoffNs·2^k simulated nanoseconds.
	// 0 means DefaultRetryBackoffNs. (Formerly a mutable package variable,
	// which raced when backends ran concurrently and leaked configuration
	// across runs — a §6 determinism-contract hole.)
	RetryBackoffNs float64

	// Obs, when non-nil, records the run into the observability layer:
	// host phase spans, per-charge host-cpu spans, per-batch and per-lane
	// device scheduling spans, fault-recovery instants, and the run's
	// counters (tuples, batches, fault recovery). Recording only observes
	// virtual times the cost model already produced — a run with a nil
	// recorder is bit-identical in output and virtual cost.
	Obs *obs.Recorder

	// NoHostFallback disables the last-resort host execution of a batch
	// whose retry budget is exhausted: the run then fails with an error
	// wrapping ErrRetryBudget instead of degrading gracefully.
	NoHostFallback bool
}

// DefaultOptions returns the parameter settings of Section III-D:
// s1=2, c1=200 for the first level and s2=2, c2=100 for the second.
// Packed images are on by default — a pure performance lever with
// bit-identical output.
func DefaultOptions() Options {
	return Options{
		S1: 2, C1: 200,
		S2: 2, C2: 100,
		Seed: 1,
		Mode: ReportUnionFind,
		Plan: sched.Plan{Packed: true},
	}
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	if o.S1 < 1 || o.S2 < 1 {
		return fmt.Errorf("core: shingle sizes must be ≥ 1, got s1=%d s2=%d", o.S1, o.S2)
	}
	if o.C1 < 1 || o.C2 < 1 {
		return fmt.Errorf("core: shingle counts must be ≥ 1, got c1=%d c2=%d", o.C1, o.C2)
	}
	if o.S1 > 64 || o.S2 > 64 {
		return fmt.Errorf("core: shingle sizes above 64 unsupported, got s1=%d s2=%d", o.S1, o.S2)
	}
	if err := o.Plan.Validate(maxLanes); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative Workers %d", o.Workers)
	}
	if o.RetryBackoffNs < 0 {
		return fmt.Errorf("core: negative RetryBackoffNs %g", o.RetryBackoffNs)
	}
	return nil
}

// workerCount resolves Workers to a concrete pool size.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// families derives the two trial hash families from the seed. Both backends
// call this, which is what makes them produce identical shingles.
func (o Options) families() (minwise.Family, minwise.Family) {
	return minwise.NewFamily(o.C1, o.Seed), minwise.NewFamily(o.C2, o.Seed+1)
}
