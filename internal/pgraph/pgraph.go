package pgraph

import (
	"fmt"
	"math"
	"runtime"

	"gpclust/internal/align"
	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/obs"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
)

// Config controls homology-graph construction.
type Config struct {
	// MinExactMatch is the exact-match seed length: only sequence pairs
	// sharing an exact substring of at least this many residues are
	// aligned (the maximal-matching heuristic's promising-pair criterion).
	MinExactMatch int

	// WindowCap throttles pair generation inside each suffix-array run.
	WindowCap int

	// MinScorePerResidue accepts a pair as homologous when its
	// Smith–Waterman score is at least this many points per residue of the
	// shorter sequence ("significant sequence similarity", Section III).
	MinScorePerResidue float64

	// Filter selects the Phase-1 candidate backend: FilterExact (the
	// generalized-suffix-structure filter; the default and the oracle) or
	// FilterLSH (MinHash/LSH banding over MinExactMatch-length shingles,
	// in place of the exact filter). On GPU builds the LSH pass runs
	// on-device.
	Filter string

	// LSHBands/LSHRows shape the banding (Filter lsh only): bands
	// of rows signature rows each, pair-collision probability
	// 1-(1-J^rows)^bands. Zero means the tuned defaults.
	LSHBands int
	LSHRows  int

	// Align configures the Smith–Waterman verification.
	Align align.Params

	// Workers sets the host Smith–Waterman worker-pool size (pGraph's
	// parallel verification stage, a GPU build's host fallback, and a
	// Verifier's host scoring); 0 means GOMAXPROCS. It moves wall time
	// only: the virtual clock prices DP cells, not cores.
	Workers int

	// GPU routes Smith–Waterman verification to the simulated device as a
	// batched score-only kernel, one alignment per thread. The accepted
	// edge set is bit-identical to the host path for any batch size.
	GPU bool

	// Device is the simulated GPU used when GPU is set; nil creates a
	// fresh Tesla K20 for the build.
	Device *gpusim.Device

	// Plan is the GPU verification's batch plan (sched.Plan): the
	// per-batch word budget (score table + pair records + residues +
	// scores; 0 is the largest budget that fits free device memory, unless
	// AutoTune picks it), the residue image, and length binning. Packed
	// stages each batch's residues as a 5-bit packed image (align's 21-code
	// alphabet fits 5 bits) that the SW kernel decodes in place, cutting
	// the residue region's H2D bytes by ~37% for per-cell decode
	// instructions. LengthBin orders candidate pairs by alignment cost
	// before batching: the device serializes a warp at its slowest lane, so
	// binning keeps warps converged. Verification runs one lane. The edge
	// set is bit-identical for every plan. The LSH filter sizes its stage
	// batches by the same budget.
	Plan sched.Plan

	// AutoTune lets the cost-model auto-tuner pick the plan's budget when
	// Plan pins none: it calibrates a sched.Model against the device config
	// with a kernel micro-probe on a scratch device, predicts the virtual
	// time of each candidate plan (geometric budget sweep, crossed with the
	// byte layout and the packed image when Plan.Packed allows packing),
	// and runs the argmin. A fixed plan is priced by the same scratch-device
	// model, so Stats.Plan and Stats.LSHPlan always carry a predicted
	// window.
	AutoTune bool

	// FaultRetries bounds how often one verification batch is retried after
	// a device fault before the scheduler degrades further — splitting the
	// batch on persistent OOM, then scoring it on the bit-identical host
	// path. The zero value is a sentinel meaning DefaultFaultRetries, NOT
	// zero retries; a negative value is the explicit library-level way to
	// disable retries (the CLI rejects negative -retries so the sentinel
	// cannot be hit by accident).
	FaultRetries int

	// RetryBackoffNs is the base virtual-clock delay between fault retries
	// (attempt k waits RetryBackoffNs·2^k); 0 means DefaultRetryBackoffNs.
	RetryBackoffNs float64

	// Obs, when non-nil, records the build into the observability layer:
	// filter/verify phase spans, per-batch scheduling spans,
	// fault-recovery instants and the build's counters. A nil recorder is
	// bit-identical in output and virtual cost.
	Obs *obs.Recorder

	// NoHostFallback disables the last-resort host scoring of a batch whose
	// retry budget is exhausted: Build then fails with an error wrapping
	// ErrRetryBudget instead of degrading gracefully.
	NoHostFallback bool
}

// DefaultConfig returns settings suitable for the synthetic metagenomes.
func DefaultConfig() Config {
	return Config{
		MinExactMatch:      12,
		WindowCap:          24,
		MinScorePerResidue: 1.2,
		Align:              align.DefaultParams(),
		Plan:               sched.Plan{Packed: true, LengthBin: true},
	}
}

// Virtual-clock pricing of the host-side stages, in the style of
// internal/core's cost model: stage costs are explicit operation counts
// multiplied by per-op constants, so reported times are machine-independent.
var (
	// FilterNsPerOp prices one operation of the candidate filter (suffix
	// array construction, LCP walk, pair generation).
	FilterNsPerOp = 14.0

	// HostAlignNsPerCell prices one DP cell of the host Smith–Waterman —
	// a scalar, branchy inner loop on a paper-era core (~80 Mcells/s).
	HostAlignNsPerCell = 12.0

	// packNsPerWord prices staging one word of a device batch (pair
	// records + packed residues) on the host.
	packNsPerWord = 8.0
)

// Stats reports the construction pipeline's work. The duration fields are a
// Table-I-style component breakdown of Build on the virtual clock — except
// WallNs, which records real host time (the only wall-clock field).
type Stats struct {
	Sequences  int
	Candidates int // promising pairs from the maximal-match filter
	Edges      int64

	Backend    string  // verification backend: "host" or "gpu"
	Filter     string  // candidate backend: "exact" or "lsh"
	Workers    int     // host alignment pool size, wall clock only (host backend)
	GPUBatches int     // device batches scheduled (gpu backend)
	Divergence float64 // SW-kernel warp-divergence overhead (gpu backend)
	FilterNs   float64 // CPU filter: suffix structure + candidate pairs
	AlignNs    float64 // SW verification: host DP cells × HostAlignNsPerCell, or device kernels
	H2DNs      float64 // Data_c→g: batch staging onto the device
	D2HNs      float64 // Data_g→c: score readback
	TotalNs    float64 // end-to-end virtual time of Build
	WallNs     int64   // real elapsed time of Build on this host

	// Transfer-cost split (gpu backend): each direction's time divides into
	// the fixed per-copy setup and the bandwidth-proportional volume
	// (H2DNs = H2DSetupNs + H2DVolumeNs, likewise D2H). Packing shrinks the
	// volume terms and the byte counts; coalescing shrinks the setup terms.
	H2DSetupNs  float64
	H2DVolumeNs float64
	D2HSetupNs  float64
	D2HVolumeNs float64
	H2DBytes    int64 // Data_c→g bytes actually moved
	D2HBytes    int64 // Data_g→c bytes actually moved

	// Faults counts the fault-recovery actions the GPU schedulers took
	// (retries, OOM splits, host fallbacks); zero on a
	// fault-free run. The edge set is bit-identical either way.
	Faults faults.Recovery

	// Plan describes the batch plan the GPU scheduler ran — budget, lane
	// count, batch count, whether the auto-tuner chose it, and the
	// predicted-vs-actual virtual time of the scheduling window.
	Plan sched.PlanReport

	// LSHPlan is the device LSH filter's plan (zero-valued unless a GPU
	// build ran Filter lsh): its stage batches, word budget and
	// predicted-vs-actual scheduling window.
	LSHPlan sched.PlanReport
}

// Build constructs the sequence-similarity graph of the input: vertices are
// sequence indices, and (i, j) is an edge iff the pair passed the exact
// match filter and Smith–Waterman verification.
func Build(seqs []seq.Sequence, cfg Config) (*graph.Graph, Stats, error) {
	st := Stats{Sequences: len(seqs), Backend: "host"}
	if cfg.GPU {
		st.Backend = "gpu"
	}
	if cfg.MinExactMatch < 4 {
		return nil, st, fmt.Errorf("pgraph: MinExactMatch %d too small", cfg.MinExactMatch)
	}
	if cfg.WindowCap < 1 {
		return nil, st, fmt.Errorf("pgraph: WindowCap %d < 1", cfg.WindowCap)
	}
	if cfg.RetryBackoffNs < 0 {
		return nil, st, fmt.Errorf("pgraph: negative RetryBackoffNs %g", cfg.RetryBackoffNs)
	}
	if err := cfg.Plan.Validate(1); err != nil {
		return nil, st, fmt.Errorf("pgraph: %w", err)
	}
	if cfg.Workers < 0 {
		return nil, st, fmt.Errorf("pgraph: negative Workers %d", cfg.Workers)
	}
	if err := validateScoreRate(cfg.MinScorePerResidue); err != nil {
		return nil, st, err
	}
	for i, s := range seqs {
		if err := align.ValidateSequence(s.Residues); err != nil {
			return nil, st, fmt.Errorf("pgraph: sequence %d (%s): %w", i, s.ID, err)
		}
	}
	if len(seqs) == 0 {
		return graph.FromEdges(0, nil), st, nil
	}
	sw := sched.NewStopwatch()

	// Phase 1 (candidate filter: exact or LSH banding) and Phase 2
	// (Smith–Waterman verification, on the worker pool or the device). Both
	// verification paths yield the identical accepted edge set for any
	// filter's candidates.
	var edges []graph.Edge
	if cfg.GPU {
		dev := cfg.Device
		if dev == nil {
			dev = gpusim.MustNew(gpusim.K20Config())
			cfg.Device = dev
		}
		led := sched.NewLedger(dev, cfg.Obs)
		host0 := dev.HostTime()
		pairs, err := runFilterGPU(dev, led, seqs, cfg, &st)
		if err != nil {
			return nil, st, err
		}
		edges, err = verifyGPU(led, seqs, pairs, cfg, &st, host0)
		if err != nil {
			return nil, st, err
		}
	} else {
		// The host backend has no device: its ledger keeps the build's
		// clock, from 0.
		led := sched.NewLedger(nil, cfg.Obs)
		ph := led.Phase("filter")
		pairs, err := runFilterHost(led, seqs, cfg, &st)
		if err != nil {
			return nil, st, err
		}
		led.EndPhase(ph)
		ph = led.Phase("verify")
		edges = verifyHost(led, seqs, pairs, cfg, &st)
		led.EndPhase(ph)
	}

	b := graph.NewBuilder(len(seqs))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	g := b.Build()
	st.Edges = g.NumEdges()
	st.WallNs = sw.Total()
	recordBuildMetrics(cfg.Obs, &st)
	return g, st, nil
}

// WorkerCount resolves Config.Workers (0 = GOMAXPROCS; negative values are
// rejected by Build and NewVerifier before any work runs).
func (c Config) WorkerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// verifyHost runs Smith–Waterman over the candidate pairs on a worker pool
// (pGraph's parallel verification stage), charges the DP cells to led and
// returns the accepted edges.
func verifyHost(led *sched.Ledger, seqs []seq.Sequence, pairs []pairKey, cfg Config, st *Stats) []graph.Edge {
	st.Workers = cfg.WorkerCount()
	enc := encodeSeqs(seqs)
	order := binPairs(enc, pairs, false) // natural order: scores[k] is pairs[k]'s
	scores := make([]int32, len(pairs))
	cells := scoreHost(enc, pairs, order, cfg.Align, cfg.scoreLimit, scores, st.Workers)
	st.AlignNs = float64(cells) * HostAlignNsPerCell
	led.Charge("host-align", st.AlignNs)
	st.TotalNs = st.FilterNs + st.AlignNs
	return acceptedEdges(seqs, pairs, order, scores, cfg)
}

// scoreHost is the host Smith–Waterman scorer of every backend: it writes
// the score of pairs[order[k]] to scores[k] with align.ScoreCodes over the
// encoded sequences, capped at limit(shorter length) (nil scores exactly),
// on a pool of workers, and returns the DP cells of the full matrices. The
// cell count, and so its price, is the same for any worker count and limit.
func scoreHost(enc [][]byte, pairs []pairKey, order []int, p align.Params, limit func(minLen int) int32,
	scores []int32, workers int) int64 {

	dp := make([]align.Scratch, workers)
	cellsPer := make([]int64, workers)
	sched.ParallelFor(workers, len(order), func(w, k int) {
		a, b := pairs[order[k]].unpack()
		ea, eb := enc[a], enc[b]
		lim := int32(math.MaxInt32)
		if limit != nil {
			lim = limit(min(len(ea), len(eb)))
		}
		scores[k] = align.ScoreCodes(ea, eb, align.Blosum62Table, align.AlphabetSize, p, lim, &dp[w])
		cellsPer[w] += int64(len(ea)) * int64(len(eb))
	})
	var cells int64
	for _, c := range cellsPer {
		cells += c
	}
	return cells
}

// validateScoreRate rejects a MinScorePerResidue that no integer limit
// represents: NaN, an infinity or a negative rate.
func validateScoreRate(rate float64) error {
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
		return fmt.Errorf("pgraph: MinScorePerResidue %g must be finite and >= 0", rate)
	}
	return nil
}

// acceptLimit is the least score that accepts a pair whose shorter sequence
// has minLen residues at rate points per residue (finite, >= 0): a score s
// is an integer, so float64(s) >= rate·float64(minLen) holds iff s >=
// ceil(rate·float64(minLen)), the product rounded as the comparison rounds
// it. A limit past math.MaxInt32 is reached by no score and rejects every
// pair.
func acceptLimit(rate float64, minLen int) int64 {
	x := math.Ceil(rate * float64(minLen))
	if x > math.MaxInt32 {
		return math.MaxInt32 + 1
	}
	return int64(x)
}

// scoreLimit is the limit Build scores a pair under: its acceptance limit,
// where the sweep can stop because the answer is already yes. A limit past
// int32 becomes math.MaxInt32, the exact score, which stays below it.
func (c Config) scoreLimit(minLen int) int32 {
	return int32(min(acceptLimit(c.MinScorePerResidue, minLen), math.MaxInt32))
}

// acceptedEdges thresholds the scores of the scheduled pairs (scores[k]
// belongs to pairs[order[k]]) with the comparison every backend applies.
func acceptedEdges(seqs []seq.Sequence, pairs []pairKey, order []int, scores []int32, cfg Config) []graph.Edge {
	var edges []graph.Edge
	for k, idx := range order {
		a, b := pairs[idx].unpack()
		minLen := min(len(seqs[a].Residues), len(seqs[b].Residues))
		if int64(scores[k]) >= acceptLimit(cfg.MinScorePerResidue, minLen) {
			edges = append(edges, graph.Edge{U: uint32(a), V: uint32(b)})
		}
	}
	return edges
}
