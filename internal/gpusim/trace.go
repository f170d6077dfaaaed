package gpusim

// Timeline tracing: the device can record every kernel and transfer as an
// interval on its virtual timelines; obs.WriteMergedTrace exports them in
// the Chrome trace format (chrome://tracing / Perfetto), giving the same
// at-a-glance view of compute/copy overlap that nvvp gave the paper's
// authors. Tracing is independent of profiling: EnableTracing captures
// placements (start/end on which engine), EnableProfiling captures
// per-kernel cost-model inputs.

// TraceEvent is one interval on a virtual timeline.
type TraceEvent struct {
	Name    string  // kernel name or transfer direction
	Track   string  // "compute", "copy", or "host"
	StartNs float64 // virtual start time
	EndNs   float64 // virtual end time
}

// EnableTracing starts recording trace events (unbounded while enabled).
func (d *Device) EnableTracing() {
	d.mu.Lock()
	d.tracing = true
	d.mu.Unlock()
}

// Trace returns the recorded events in schedule order.
func (d *Device) Trace() []TraceEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TraceEvent, len(d.trace))
	copy(out, d.trace)
	return out
}

// traceAdd appends an event; the caller holds d.mu.
func (d *Device) traceAdd(name, track string, start, end float64) {
	if !d.tracing {
		return
	}
	d.trace = append(d.trace, TraceEvent{Name: name, Track: track, StartNs: start, EndNs: end})
}
