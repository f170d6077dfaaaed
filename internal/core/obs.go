package core

import (
	"fmt"

	"gpclust/internal/gpusim"
	"gpclust/internal/obs"
)

// Observability plumbing for the backends. The contract with internal/obs:
// recording is pure observation — sched.ChargeHost advances the virtual
// clock by exactly what dev.AdvanceHost would have, and every other hook only
// reads clocks — so a nil recorder yields a bit-identical run.

// startPhase opens a coarse phase span at the device's current virtual
// time; close it with endPhase. Both are inert on a nil recorder.
func startPhase(dev *gpusim.Device, r *obs.Recorder, name string) obs.Ending {
	if !r.Enabled() {
		return obs.Ending{}
	}
	return r.Start(obs.TrackPhases, name, dev.HostTime())
}

func endPhase(dev *gpusim.Device, e obs.Ending) {
	e.End(dev.HostTime())
}

// recordRunMetrics registers the run's counters from the finished Result —
// sourcing them from Result itself guarantees the exported metrics match it
// exactly.
func recordRunMetrics(r *obs.Recorder, res *Result) {
	if !r.Enabled() {
		return
	}
	r.Counter("gpclust_tuples",
		"Shingle tuples emitted across both shingling passes.").
		Add(res.Pass1.Tuples + res.Pass2.Tuples)
	r.Counter("gpclust_shingles",
		"Distinct shingles grouped across both shingling passes.").
		Add(int64(res.Pass1.Shingles + res.Pass2.Shingles))
	r.Counter("gpclust_batches",
		"Device batches scheduled across both shingling passes.").
		Add(int64(res.Pass1.Batches + res.Pass2.Batches))
	r.Gauge("gpclust_clusters",
		"Clusters reported by the most recent run.").
		Set(float64(res.NumClusters()))

	// Transfer-cost split: the fixed per-copy setup ns versus the
	// bandwidth-proportional volume ns, per direction. Packing shrinks only
	// the volume term; coalescing shrinks only the setup term — the pair of
	// gauges shows which lever a configuration actually pulled.
	t := res.Timings
	r.Gauge("gpclust_h2d_setup_ns",
		"Fixed per-copy setup time across all host→device transfers.").Set(t.H2DSetupNs)
	r.Gauge("gpclust_h2d_volume_ns",
		"Bandwidth-proportional time across all host→device transfers.").Set(t.H2DVolumeNs)
	r.Gauge("gpclust_d2h_setup_ns",
		"Fixed per-copy setup time across all device→host transfers.").Set(t.D2HSetupNs)
	r.Gauge("gpclust_d2h_volume_ns",
		"Bandwidth-proportional time across all device→host transfers.").Set(t.D2HVolumeNs)
	r.Gauge("gpclust_h2d_bytes",
		"Bytes moved host→device by the most recent run.").Set(float64(t.H2DBytes))
	r.Gauge("gpclust_d2h_bytes",
		"Bytes moved device→host by the most recent run.").Set(float64(t.D2HBytes))

	f := res.Faults
	r.Counter("gpclust_fault_transfer_retries",
		"Batches retried after an H2D/D2H transfer fault.").Add(f.TransferRetries)
	r.Counter("gpclust_fault_kernel_retries",
		"Batches retried after a kernel-launch fault.").Add(f.KernelRetries)
	r.Counter("gpclust_fault_oom_retries",
		"Batches retried after an unsplittable device OOM.").Add(f.OOMRetries)
	r.Counter("gpclust_fault_oom_splits",
		"Batches split in half after persistent device OOM.").Add(f.OOMSplits)
	r.Counter("gpclust_fault_host_fallbacks",
		"Batches degraded to the bit-identical host path.").Add(f.HostFallbacks)
	r.Counter("gpclust_fault_pipeline_restarts",
		"Pipelined passes restarted from a clean slate.").Add(f.Restarts)
	r.Gauge("gpclust_fault_backoff_ns",
		"Virtual-clock backoff burned between fault retries.").Set(f.BackoffNs)
}

// recordHostTimeline reconstructs a host-only backend's spans on a
// sequential virtual timeline: read, then per pass shingle+aggregate, then
// report. Host-only backends have no device clock, so the components are
// laid out end to end — which preserves every component sum and the total,
// exactly the Timings the backend reports. passes holds per-pass
// (shingleNs, aggregateNs) deltas.
func recordHostTimeline(r *obs.Recorder, diskNs float64, passes [2][2]float64, reportNs float64) {
	if !r.Enabled() {
		return
	}
	cur := 0.0
	span := func(track, name string, ns float64) {
		if ns > 0 {
			r.Span(track, name, cur, cur+ns)
		}
		cur += ns
	}
	phase := func(name string, from float64) {
		if cur > from {
			r.Span(obs.TrackPhases, name, from, cur)
		}
	}
	p0 := cur
	span(obs.TrackHostCPU, obs.NameRead, diskNs)
	phase(obs.NameRead, p0)
	for i, p := range passes {
		p0 = cur
		span(obs.TrackHostCPU, obs.NameShingle, p[0])
		span(obs.TrackHostCPU, "aggregate", p[1])
		phase(fmt.Sprintf("shingle-pass%d", i+1), p0)
	}
	p0 = cur
	span(obs.TrackHostCPU, "report", reportNs)
	phase("report", p0)
}

// batchHistogram returns the per-batch virtual-duration histogram (nil when
// recording is disabled).
func batchHistogram(r *obs.Recorder) *obs.Histogram {
	return r.Histogram("gpclust_batch_virtual_ns",
		"Virtual-clock duration of one device batch through the resilient ladder.",
		obs.DefBucketsNs)
}
