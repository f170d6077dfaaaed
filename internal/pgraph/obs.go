package pgraph

import "gpclust/internal/obs"

// Observability plumbing for the build pipeline, mirroring internal/core's:
// recording is pure observation of virtual times the cost model already
// produced, so a nil recorder yields a bit-identical build.

// recordBuildMetrics registers the build's counters from the finished Stats,
// so exported metrics match it exactly.
func recordBuildMetrics(r *obs.Recorder, st *Stats) {
	if !r.Enabled() {
		return
	}
	r.Counter("pgraph_candidates",
		"Promising pairs from the maximal-match filter.").Add(int64(st.Candidates))
	r.Counter("pgraph_edges",
		"Edges accepted by Smith-Waterman verification.").Add(st.Edges)
	r.Counter("pgraph_gpu_batches",
		"Device verification batches scheduled.").Add(int64(st.GPUBatches))
	r.Gauge("pgraph_divergence",
		"SW-kernel warp-divergence overhead of the most recent build.").Set(st.Divergence)

	// Transfer-cost split: fixed setup vs bandwidth-proportional volume per
	// direction — the packed image shrinks only the volume terms.
	r.Gauge("pgraph_h2d_setup_ns",
		"Fixed per-copy setup time across all host→device transfers.").Set(st.H2DSetupNs)
	r.Gauge("pgraph_h2d_volume_ns",
		"Bandwidth-proportional time across all host→device transfers.").Set(st.H2DVolumeNs)
	r.Gauge("pgraph_d2h_setup_ns",
		"Fixed per-copy setup time across all device→host transfers.").Set(st.D2HSetupNs)
	r.Gauge("pgraph_d2h_volume_ns",
		"Bandwidth-proportional time across all device→host transfers.").Set(st.D2HVolumeNs)
	r.Gauge("pgraph_h2d_bytes",
		"Bytes moved host→device by the most recent build.").Set(float64(st.H2DBytes))
	r.Gauge("pgraph_d2h_bytes",
		"Bytes moved device→host by the most recent build.").Set(float64(st.D2HBytes))

	f := st.Faults
	r.Counter("pgraph_fault_transfer_retries",
		"Verification batches retried after a transfer fault.").Add(f.TransferRetries)
	r.Counter("pgraph_fault_kernel_retries",
		"Verification batches retried after a kernel-launch fault.").Add(f.KernelRetries)
	r.Counter("pgraph_fault_oom_retries",
		"Verification batches retried after an unsplittable device OOM.").Add(f.OOMRetries)
	r.Counter("pgraph_fault_oom_splits",
		"Verification batches split in half after persistent device OOM.").Add(f.OOMSplits)
	r.Counter("pgraph_fault_host_fallbacks",
		"Verification batches degraded to host scoring.").Add(f.HostFallbacks)
	r.Gauge("pgraph_fault_backoff_ns",
		"Virtual-clock backoff burned between fault retries.").Set(f.BackoffNs)
}
