package sched

import "gpclust/internal/gpusim"

// The cost model. Transfer costs come straight from the device config
// (gpusim charges TransferSetupNs + bytes/bandwidth for every DMA, which is
// why small batches lose: the fixed setup dominates). Kernel costs are
// calibrated empirically: a consumer runs a small probe of its real kernels
// on a scratch device with the same config, measures the simulator's charge
// and normalizes it to "body nanoseconds per work unit at full occupancy" —
// so the model tracks whatever the simulator actually charges, including
// its occupancy penalty (a launch with fewer threads than
// SaturationThreads runs at proportionally reduced throughput).
//
// Sim is a discrete-event replica of gpusim's three timelines (host clock,
// copy engine, compute engine, plus per-stream readiness) with the exact
// scheduling rules of scheduleCopy/scheduleKernel/Stream.Synchronize, so a
// predictor that replays a candidate plan's operation sequence gets engine
// overlap — the whole point of the pipelined executor — for free.

// Model predicts virtual-time costs for one device configuration.
type Model struct {
	Cfg gpusim.Config
	// KernelNsPerUnit maps a kernel name to its calibrated body cost per
	// work unit at full occupancy (see CalibrateKernel).
	KernelNsPerUnit map[string]float64
}

// NewModel returns an empty model for the device configuration.
func NewModel(cfg gpusim.Config) *Model {
	return &Model{Cfg: cfg, KernelNsPerUnit: map[string]float64{}}
}

// TransferNs is the cost of moving words in one DMA: the per-copy setup
// plus the bandwidth term, as gpusim charges CopyH2D/CopyD2H.
func (m *Model) TransferNs(words int, h2d bool) float64 {
	bw := m.Cfg.D2HBandwidthBps
	if h2d {
		bw = m.Cfg.H2DBandwidthBps
	}
	return m.Cfg.TransferSetupNs + float64(int64(words)*gpusim.WordBytes)/bw*1e9
}

// SatFactor is the occupancy penalty gpusim applies to a launch of the
// given thread count (grid·block threads).
func (m *Model) SatFactor(threads int) float64 {
	if m.Cfg.SaturationThreads > 0 && threads > 0 && threads < m.Cfg.SaturationThreads {
		return float64(m.Cfg.SaturationThreads) / float64(threads)
	}
	return 1
}

// CalibrateKernel records kernel name's throughput from a measured probe:
// bodyNs is the simulator's charge minus launch overhead for a probe of
// `units` work units launched with `threads` threads. The stored value is
// normalized to full occupancy, so KernelNs can re-apply the exact
// occupancy penalty of any other launch shape.
func (m *Model) CalibrateKernel(name string, bodyNs, units float64, threads int) {
	if units <= 0 || bodyNs <= 0 {
		return
	}
	m.KernelNsPerUnit[name] = bodyNs / m.SatFactor(threads) / units
}

// KernelNs predicts one launch of the named kernel over units work units
// with the given thread count (KernelLaunchNs + occupancy-scaled body).
func (m *Model) KernelNs(name string, units float64, threads int) float64 {
	return m.Cfg.KernelLaunchNs + m.KernelNsPerUnit[name]*units*m.SatFactor(threads)
}

// Sim replays an operation sequence against the model, tracking the same
// timelines gpusim does. Lane < 0 means the synchronous default stream.
type Sim struct {
	M           *Model
	Host        float64   // host thread's position in simulated time
	CopyFree    float64   // when the copy engine is next free
	ComputeFree float64   // when the SM array is next free
	Ready       []float64 // per-lane stream readiness
}

// NewSim returns a fresh simulation with the given lane count.
func NewSim(m *Model, lanes int) *Sim {
	return &Sim{M: m, Ready: make([]float64, max(lanes, 0))}
}

// HostWork advances the host clock (gpusim.AdvanceHost / ChargeHost).
func (s *Sim) HostWork(ns float64) { s.Host += ns }

// Copy replays one DMA of `words` words. Synchronous copies (lane < 0)
// wait for in-flight kernels (default-stream ordering) and stall the host;
// stream copies wait for the lane's prior work and return immediately.
// Both serialize on the single copy engine.
func (s *Sim) Copy(lane, words int, h2d bool) {
	cost := s.M.TransferNs(words, h2d)
	start := s.Host
	if lane >= 0 {
		if s.Ready[lane] > start {
			start = s.Ready[lane]
		}
	} else if s.ComputeFree > start {
		start = s.ComputeFree
	}
	if s.CopyFree > start {
		start = s.CopyFree
	}
	end := start + cost
	s.CopyFree = end
	if lane < 0 {
		s.Host = end
	} else {
		s.Ready[lane] = end
	}
}

// PackedWords returns the words a transfer of `values` values moves at the
// given packed bit width: gpusim.PackedLen when bits > 0, one word per value
// when bits == 0 (unpacked). Predictors price packed uploads through this so
// a candidate plan's transfer volume matches the bytes the device run will
// actually move.
func PackedWords(values, bits int) int {
	if bits > 0 {
		return gpusim.PackedLen(values, bits)
	}
	return values
}

// CopyPacked replays one DMA of `values` values at the given packed bit
// width (0 = unpacked). Identical scheduling to Copy; only the priced word
// count shrinks.
func (s *Sim) CopyPacked(lane, values, bits int, h2d bool) {
	s.Copy(lane, PackedWords(values, bits), h2d)
}

// Kernel replays one launch of the named calibrated kernel. Synchronous
// launches stall the host; stream launches wait for the lane's prior work.
// Both serialize on the compute engine.
func (s *Sim) Kernel(lane int, name string, units float64, threads int) {
	s.KernelRawNs(lane, s.M.KernelNs(name, units, threads))
}

// KernelRawNs replays a kernel launch whose total cost the caller computed
// directly — composite sequences (sort + gather) or lumped calibrations the
// per-unit model cannot price with a single occupancy shape.
func (s *Sim) KernelRawNs(lane int, ns float64) {
	start := s.Host
	if lane >= 0 && s.Ready[lane] > start {
		start = s.Ready[lane]
	}
	if s.ComputeFree > start {
		start = s.ComputeFree
	}
	end := start + ns
	s.ComputeFree = end
	if lane < 0 {
		s.Host = end
	} else {
		s.Ready[lane] = end
	}
}

// SyncLane blocks the host until the lane's enqueued work completes
// (Stream.Synchronize).
func (s *Sim) SyncLane(lane int) {
	if s.Ready[lane] > s.Host {
		s.Host = s.Ready[lane]
	}
}

// SyncAll blocks the host until both engines drain (Device.Synchronize).
func (s *Sim) SyncAll() {
	if s.ComputeFree > s.Host {
		s.Host = s.ComputeFree
	}
	if s.CopyFree > s.Host {
		s.Host = s.CopyFree
	}
}
