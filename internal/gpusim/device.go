// Package gpusim is a SIMT GPU device simulator written in pure Go. It
// substitutes for the NVIDIA Tesla K20 + CUDA/Thrust platform the paper runs
// on (see DESIGN.md): kernels execute for real (data-parallel Go code over
// goroutine-backed streaming multiprocessors, so all results are bit-exact),
// while a deterministic cost model — roofline compute/memory throughput,
// warp-level divergence, per-warp memory-coalescing analysis, PCIe transfer
// latency/bandwidth, kernel-launch overhead — advances a virtual clock.
// Timing experiments therefore reproduce the paper's *shapes* on any host.
//
// The model implements the architecture of Section II of the paper: threads
// grouped into warps sharing one instruction unit (divergence handled by
// serializing divergent lanes), warps into thread blocks whose shared-memory
// accesses cost ~100X less latency than global memory, blocks scheduled
// onto independent SMs, a device global memory of limited size (forcing the
// batch-wise processing of Algorithm 2), and explicit host↔device copies
// over a PCIe-like link with synchronous (Thrust-style) and asynchronous
// (CUDA-stream-style) modes.
package gpusim

import (
	"errors"
	"fmt"
	"sync"
)

// Config describes the simulated device. The zero value is unusable; start
// from K20Config (the paper's card) and adjust.
type Config struct {
	Name string

	NumSMs     int // streaming multiprocessors (K20: 13)
	CoresPerSM int // CUDA cores per SM (K20: 192; 13×192 = 2,496)
	WarpSize   int // threads per warp (32)

	ClockHz float64 // SM core clock (K20: 706 MHz)

	GlobalMemBytes     int64   // device global memory (K20: 5 GB)
	GlobalBandwidthBps float64 // global-memory bandwidth (K20: 208 GB/s)
	SharedLatencyNs    float64 // shared-memory access latency (~100X below global memory's)

	// PCIe transfer engine.
	H2DBandwidthBps float64 // host→device bandwidth
	D2HBandwidthBps float64 // device→host bandwidth
	TransferSetupNs float64 // per-transfer fixed cost (driver + DMA setup)

	KernelLaunchNs float64 // fixed kernel launch overhead

	// IPC is average instructions per core per cycle (≤1 for simple integer
	// pipelines); folds issue efficiency into the compute roofline.
	IPC float64

	// SaturationThreads is the launch size (total threads) needed to fully
	// hide memory latency and fill the SMs; smaller launches run at
	// proportionally lower throughput. This models why the paper's GPU-part
	// speedup grows from ~45X on the 20K graph to ~374X on the 2M graph:
	// "The more workload can be executed in parallel on GPU, the better
	// speedup it will contribute" (Section IV-C). 0 disables the model.
	SaturationThreads int
}

// K20Config returns a configuration modeled on the paper's NVIDIA Tesla K20:
// 2,496 CUDA cores, 5 GB device memory (Section IV-B). The compute-side
// parameters are the card's; the transfer-side parameters are calibrated to
// the *observed* Thrust synchronous-copy behavior of Table I rather than
// PCIe peak — the paper's per-trial device→host shingle transfers move data
// at tens of MB/s with multi-millisecond per-call overhead (pageable host
// memory, per-call synchronization and allocation in Thrust 1.5), which is
// exactly the overhead the paper proposes to hide with asynchronous
// transfers. See EXPERIMENTS.md, "calibration".
func K20Config() Config {
	return Config{
		Name:               "Tesla K20 (simulated)",
		NumSMs:             13,
		CoresPerSM:         192,
		WarpSize:           32,
		ClockHz:            706e6,
		GlobalMemBytes:     5 << 30,
		GlobalBandwidthBps: 208e9,
		SharedLatencyNs:    4, // "roughly 100X lower ... latency" (Section II)
		H2DBandwidthBps:    2e9,
		D2HBandwidthBps:    110e6,
		TransferSetupNs:    4e6,
		KernelLaunchNs:     5_000,
		IPC:                0.85,
		SaturationThreads:  131_072,
	}
}

// SmallConfig returns a deliberately tiny device (little memory, few SMs)
// used by tests to exercise batching and out-of-memory paths.
func SmallConfig() Config {
	c := K20Config()
	c.Name = "tiny test GPU"
	c.NumSMs = 2
	c.CoresPerSM = 32
	c.GlobalMemBytes = 1 << 20 // 1 MB
	return c
}

// TotalCores returns the number of CUDA cores on the device.
func (c Config) TotalCores() int { return c.NumSMs * c.CoresPerSM }

// ErrOutOfDeviceMemory is returned by Malloc when the allocation would
// exceed the device's global memory. The clustering driver reacts by
// shrinking its batch size, exactly as the paper's batch-wise Algorithm 2
// processes "the large-scale input graph on the relative[ly] small device
// memory".
var ErrOutOfDeviceMemory = errors.New("gpusim: out of device memory")

// Metrics aggregates the device's virtual-clock accounting.
type Metrics struct {
	KernelTimeNs   float64 // total simulated kernel execution time
	H2DTimeNs      float64 // host→device copy time (setup + volume)
	D2HTimeNs      float64 // device→host copy time (setup + volume)
	H2DBytes       int64
	D2HBytes       int64
	KernelLaunches int64

	// Transfer time split into the fixed per-call DMA/driver setup and the
	// bandwidth-proportional volume component. H2DTimeNs = H2DSetupNs +
	// H2DVolumeNs (likewise D2H); a zero-length copy charges setup only.
	// Packed device images shrink the volume term while leaving setup
	// untouched, which is why the split is reported separately.
	H2DSetupNs  float64
	H2DVolumeNs float64
	D2HSetupNs  float64
	D2HVolumeNs float64

	ComputeTimeNs float64 // compute-bound portion across kernels
	MemoryTimeNs  float64 // memory-bound portion across kernels

	GlobalTransactions int64 // 128-byte global memory transactions
	GlobalAccesses     int64 // individual thread accesses
	WarpSerialOps      int64 // per-warp serialized op count (with divergence)
	ThreadOps          int64 // raw per-thread op count (no divergence)
}

// Sub returns the difference m - prev of two snapshots: the accounting
// accumulated between them. Stages that share a device with other work (the
// pGraph verification stage, for instance) use it to report their own share
// of the device's kernels and transfers.
func (m Metrics) Sub(prev Metrics) Metrics {
	return Metrics{
		KernelTimeNs:       m.KernelTimeNs - prev.KernelTimeNs,
		H2DTimeNs:          m.H2DTimeNs - prev.H2DTimeNs,
		D2HTimeNs:          m.D2HTimeNs - prev.D2HTimeNs,
		H2DBytes:           m.H2DBytes - prev.H2DBytes,
		D2HBytes:           m.D2HBytes - prev.D2HBytes,
		KernelLaunches:     m.KernelLaunches - prev.KernelLaunches,
		H2DSetupNs:         m.H2DSetupNs - prev.H2DSetupNs,
		H2DVolumeNs:        m.H2DVolumeNs - prev.H2DVolumeNs,
		D2HSetupNs:         m.D2HSetupNs - prev.D2HSetupNs,
		D2HVolumeNs:        m.D2HVolumeNs - prev.D2HVolumeNs,
		ComputeTimeNs:      m.ComputeTimeNs - prev.ComputeTimeNs,
		MemoryTimeNs:       m.MemoryTimeNs - prev.MemoryTimeNs,
		GlobalTransactions: m.GlobalTransactions - prev.GlobalTransactions,
		GlobalAccesses:     m.GlobalAccesses - prev.GlobalAccesses,
		WarpSerialOps:      m.WarpSerialOps - prev.WarpSerialOps,
		ThreadOps:          m.ThreadOps - prev.ThreadOps,
	}
}

// DivergenceOverhead returns the fraction of warp-issued work wasted to
// divergence: 0 means perfectly converged warps, values near 1 mean almost
// all lanes idle.
func (m Metrics) DivergenceOverhead() float64 {
	if m.WarpSerialOps == 0 {
		return 0
	}
	return 1 - float64(m.ThreadOps)/float64(m.WarpSerialOps)
}

// CoalescingEfficiency returns the ratio of ideal transactions (each moving
// 32 words for 32 lanes) to actual transactions; 1.0 is perfectly coalesced.
func (m Metrics) CoalescingEfficiency() float64 {
	if m.GlobalTransactions == 0 {
		return 1
	}
	ideal := float64(m.GlobalAccesses) / 32
	eff := ideal / float64(m.GlobalTransactions)
	if eff > 1 {
		eff = 1
	}
	return eff
}

// Device is one simulated GPU. All methods are called from the host side;
// kernel code runs inside Launch. A Device is safe for use by one host
// goroutine at a time (matching a single CUDA context).
type Device struct {
	cfg Config

	mu        sync.Mutex
	allocated int64
	peakAlloc int64
	liveBufs  int
	nextBase  int64 // virtual address allocator for the coalescing model

	// Virtual timelines, all in simulated nanoseconds since Reset.
	hostClock   float64 // the host thread's position in simulated time
	computeFree float64 // when the SM array is next free
	copyFree    float64 // when the copy engine is next free

	metrics Metrics

	injector FaultInjector // optional fault injection (see fault.go)

	profiling   bool
	pendingName string
	profile     []KernelRecord
	tracing     bool
	trace       []TraceEvent

	workers int // host goroutines used to execute kernels
}

// New creates a device with the given configuration.
func New(cfg Config) (*Device, error) {
	if cfg.NumSMs <= 0 || cfg.CoresPerSM <= 0 || cfg.WarpSize <= 0 {
		return nil, fmt.Errorf("gpusim: invalid config: SMs=%d cores/SM=%d warp=%d",
			cfg.NumSMs, cfg.CoresPerSM, cfg.WarpSize)
	}
	if cfg.ClockHz <= 0 || cfg.GlobalBandwidthBps <= 0 {
		return nil, fmt.Errorf("gpusim: invalid config: clock=%v bw=%v", cfg.ClockHz, cfg.GlobalBandwidthBps)
	}
	if cfg.IPC <= 0 {
		cfg.IPC = 1
	}
	w := cfg.NumSMs
	if w > 16 {
		w = 16
	}
	return &Device{cfg: cfg, workers: w}, nil
}

// MustNew is New for known-good configs; it panics on error.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// FreeMemory returns the unallocated device global memory in bytes.
func (d *Device) FreeMemory() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg.GlobalMemBytes - d.allocated
}

// PeakAllocated returns the high-water mark of device memory in bytes since
// device creation (it is not cleared by Reset, which only clears timing).
// The clustering driver reports it against the paper's peak-memory claim.
func (d *Device) PeakAllocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peakAlloc
}

// AllocatedBuffers returns the number of live device buffers (leak checks).
func (d *Device) AllocatedBuffers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.liveBufs
}

// Metrics returns a snapshot of the accumulated accounting.
func (d *Device) Metrics() Metrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.metrics
}

// HostTime returns the host's current position on the virtual clock, in
// simulated nanoseconds.
func (d *Device) HostTime() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hostClock
}

// AdvanceHost adds simulated nanoseconds of host-side (CPU) work to the
// virtual clock. The clustering driver uses this to account for the serial
// CPU stages (graph aggregation, dense-subgraph reporting, disk I/O).
func (d *Device) AdvanceHost(ns float64) {
	if ns < 0 {
		panic("gpusim: negative host time")
	}
	d.mu.Lock()
	d.traceAdd("host-work", "host", d.hostClock, d.hostClock+ns)
	d.hostClock += ns
	d.mu.Unlock()
}

// Synchronize blocks the host until all outstanding device work (kernels and
// async copies) completes, advancing the host clock to that point — the
// moral equivalent of cudaDeviceSynchronize.
func (d *Device) Synchronize() {
	d.mu.Lock()
	if d.computeFree > d.hostClock {
		d.hostClock = d.computeFree
	}
	if d.copyFree > d.hostClock {
		d.hostClock = d.copyFree
	}
	d.mu.Unlock()
}

// Reset frees accounting and timelines (buffers stay allocated).
func (d *Device) Reset() {
	d.mu.Lock()
	d.hostClock = 0
	d.computeFree = 0
	d.copyFree = 0
	d.metrics = Metrics{}
	d.mu.Unlock()
}
