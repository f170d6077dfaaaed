// Package obs is the repository's zero-dependency observability layer: a
// span tracer recording named intervals on the virtual clock (and, where it
// matters, the wall clock beside it), a metrics registry of counters, gauges
// and fixed-bucket histograms with OpenMetrics text export, and a merged
// Chrome-trace exporter that combines host spans, trace instants and any
// number of gpusim device timelines into one Perfetto-loadable file.
//
// Everything hangs off a *Recorder that is safe to leave nil: every method
// no-ops (and allocates nothing) on a nil receiver, so the pipelines thread
// a recorder through unconditionally and a run without one is bit-identical
// — in output and in virtual cost — to a run before the recorder existed.
// Recording never advances any virtual clock: spans are observations of
// times the cost model already produced. The charges are kept by each run's
// sched.Ledger, which mirrors every one as a host-cpu span.
package obs

import (
	"sync"
	"time"
)

// Track names shared by the pipelines. The host-cpu track carries one span
// per ledger charge (its span names feed TableSplit); the
// phases track carries the coarse host phases; batches/lane0/lane1 carry the
// device scheduling; recovery and faults carry instants.
const (
	TrackPhases   = "phases"   // coarse host phases: read, shingle-pass1, ...
	TrackHostCPU  = "host-cpu" // per-charge CPU spans: stage, aggregate, ...
	TrackBatches  = "batches"  // one span per device batch
	TrackRecovery = "recovery" // retry / split / fallback / restart instants
	TrackFaults   = "faults"   // injected-fault instants (internal/faults)
)

// Span names on TrackHostCPU with a reserved meaning in Split.AddHost;
// every other host-cpu name (stage, aggregate, split-merge, report, ...)
// counts as CPU work.
const (
	NameRead    = "read"    // disk I/O charge
	NameShingle = "shingle" // host-side shingling (serial backend, fallback)
	NameBackoff = "backoff" // fault-retry stalls: total time, no component
)

// Span is one named interval. StartNs/EndNs are on the virtual clock of
// whatever component recorded it; WallNs is the real elapsed time between
// Start and End when the span was recorded through Start/End, 0 when it was
// reconstructed purely from virtual times via Span.
type Span struct {
	Track   string
	Name    string
	StartNs float64
	EndNs   float64
	WallNs  int64
}

// Instant is one point event (a fault firing, a recovery action).
type Instant struct {
	Track string
	Name  string
	AtNs  float64
}

// Recorder collects spans, instants and metrics for one run (or several
// runs, when the caller wants aggregate counters). All methods are safe for
// concurrent use and all are no-ops on a nil receiver.
type Recorder struct {
	mu       sync.Mutex
	spans    []Span
	instants []Instant

	mmu      sync.Mutex
	families []*family
	byName   map[string]*family
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether the recorder actually records; callers use it to
// skip building span names (the only per-call allocation) when disabled.
func (r *Recorder) Enabled() bool { return r != nil }

// Span records a completed interval from virtual times alone.
func (r *Recorder) Span(track, name string, startNs, endNs float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Track: track, Name: name, StartNs: startNs, EndNs: endNs})
	r.mu.Unlock()
}

// Instant records a point event.
func (r *Recorder) Instant(track, name string, atNs float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.instants = append(r.instants, Instant{Track: track, Name: name, AtNs: atNs})
	r.mu.Unlock()
}

// Ending is an open span returned by Start; End closes and records it.
// The zero value (from a nil recorder) is inert.
type Ending struct {
	r       *Recorder
	track   string
	name    string
	startNs float64
	wall    time.Time
}

// Start opens a span at the given virtual time, capturing the wall clock
// beside it; the matching End records both durations.
func (r *Recorder) Start(track, name string, startNs float64) Ending {
	if r == nil {
		return Ending{}
	}
	return Ending{r: r, track: track, name: name, startNs: startNs, wall: nowWall()}
}

// End closes the span at the given virtual time.
func (e Ending) End(endNs float64) {
	if e.r == nil {
		return
	}
	wall := sinceWall(e.wall)
	e.r.mu.Lock()
	e.r.spans = append(e.r.spans, Span{
		Track: e.track, Name: e.name,
		StartNs: e.startNs, EndNs: endNs, WallNs: wall,
	})
	e.r.mu.Unlock()
}

// Spans returns a copy of the recorded spans in record order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Instants returns a copy of the recorded instants in record order.
func (r *Recorder) Instants() []Instant {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Instant, len(r.instants))
	copy(out, r.instants)
	return out
}

// nowWall and sinceWall are this package's only wall-clock readers,
// allowlisted by gpclint's wallclock rule: wall time is recorded next to —
// never instead of — the virtual clock (the §6 determinism contract).
func nowWall() time.Time { return time.Now() }

func sinceWall(t time.Time) int64 { return time.Since(t).Nanoseconds() }
