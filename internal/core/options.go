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

	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
	"gpclust/internal/obs"
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

	// BatchWords caps the device words a single batch of adjacency lists may
	// occupy (0 = derive from the device's free memory, or auto-tune when
	// AutoTune is set). Lists are split across batches when they do not fit,
	// and the CPU merges the partial shingle results (Section III-C).
	BatchWords int

	// AutoTune lets the scheduler pick the batch word budget and pipeline
	// lane count by predicted virtual time: candidate plans (a geometric
	// budget sweep crossed with the feasible lane counts) are replayed
	// through the calibrated cost model (internal/sched) and the argmin
	// runs. Ignored when BatchWords is set explicitly. The clustering is
	// bit-identical for every plan; only the virtual schedule changes.
	// The chosen plan and its predicted-vs-actual cost are reported in
	// PassStats.Plan.
	AutoTune bool

	// PredictCost runs the cost model for the fixed plan too (BatchWords
	// set, or AutoTune off), filling PassStats.Plan.PredictedNs so fixed
	// sweeps can report predicted-vs-actual drift. AutoTune implies it.
	PredictCost bool

	// UseFullSort makes the GPU path run Algorithm 1 literally — segmented
	// sort of the whole permuted list, then select the top s — instead of
	// the fused top-s selection kernel. Identical output, more device work;
	// kept for the ablation study.
	UseFullSort bool

	// GPUAggregate moves the shingle-key computation and the per-trial
	// tuple sorting onto the device (shingle-key kernel + sort_by_key),
	// leaving the CPU a linear merge of pre-sorted streams — an extension
	// beyond the paper targeting Table I's dominant CPU column. It is a
	// per-trial step of every plan, so it combines with PipelineBatches,
	// UseFullSort and any auto-tuned lane count. Output is bit-identical
	// to the other backends.
	GPUAggregate bool

	// Workers sizes the host worker pool: ClusterParallel's per-trial
	// shingling and tuple sorts, and ClusterGPU's per-trial aggregation (the
	// tuple sorts, or the pre-sorted stream merges under GPUAggregate). 0
	// means runtime.GOMAXPROCS(0). Output, virtual time and counters are
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

	// PipelineBatches double-buffers the GPU path's device batches across
	// two streams: batch k+1's host→device staging and kernels are enqueued
	// while batch k-1's shingles are still in flight to the host and being
	// merged by the CPU, so on the virtual clock the copy engine, the
	// compute engine and host aggregation overlap across batch boundaries
	// (the strictly sequential loop is the paper's stated bottleneck,
	// Section III-C); this is the asynchronous operation the paper leaves
	// as future work (Section V). Identical output.
	PipelineBatches bool

	// Packed ships each batch's adjacency data as a packed device image —
	// every value at the pass's MinBits width instead of one per 32-bit
	// word — cutting the bandwidth-proportional part of every H2D copy by
	// the same ratio. The fused shingling kernels read the image in place.
	// Bit-identical output; only bytes moved change.
	Packed bool

	// dataBits is the packed image width of the running pass (0 = unpacked).
	// Set by runPassGPU from MinBits over the pass input when Packed is on.
	dataBits int

	// residentParams, when non-nil, holds the minwise hash parameters of
	// both trial families device-resident for the whole run ([2·c1 words of
	// pass 1 | 2·c2 words of pass 2]), so no per-trial parameter upload is
	// simulated. Nil means the degraded per-batch upload path. Set by
	// ClusterGPU; mirrors the BLOSUM62 residency ladder in pgraph.
	residentParams *gpusim.Buffer
}

// DefaultOptions returns the parameter settings of Section III-D:
// s1=2, c1=200 for the first level and s2=2, c2=100 for the second.
// Packed images are on by default — a pure performance lever with
// bit-identical output.
func DefaultOptions() Options {
	return Options{
		S1: 2, C1: 200,
		S2: 2, C2: 100,
		Seed:   1,
		Mode:   ReportUnionFind,
		Packed: true,
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
	if o.BatchWords < 0 {
		return fmt.Errorf("core: negative BatchWords %d", o.BatchWords)
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
