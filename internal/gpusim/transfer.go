package gpusim

import "fmt"

// Stream is an ordered queue of device work, the analogue of a CUDA stream.
// Work enqueued on a stream runs in order; work on different streams may
// overlap, and async copies overlap kernel execution (the K20 has dedicated
// copy engines). The paper's implementation is synchronous ("data movement
// operations implemented in current Thrust [are] synchronous") and names
// asynchronous transfer as the improvement that would hide the Data_g→c
// overhead of Table I; streams realize that improvement for the ablation.
type Stream struct {
	dev   *Device
	ready float64 // simulated time at which all enqueued work completes
}

// NewStream creates an empty stream on the device.
func (d *Device) NewStream() *Stream { return &Stream{dev: d} }

// Synchronize blocks the host until all work enqueued on the stream is
// complete, advancing the host's virtual clock.
func (s *Stream) Synchronize() {
	d := s.dev
	d.mu.Lock()
	if s.ready > d.hostClock {
		d.hostClock = s.ready
	}
	d.mu.Unlock()
}

// transferVolumeNs returns only the bandwidth-proportional part of a
// transfer: zero for a zero-length copy, which still pays TransferSetupNs
// (the DMA descriptor is programmed whether or not it moves data).
func (d *Device) transferVolumeNs(bytes int64, bw float64) float64 {
	return float64(bytes) / bw * 1e9
}

// CopyH2D copies len(src) words from host memory into buf starting at word
// offset dst. Synchronous: the host clock advances past completion
// (Thrust-style, the paper's mode).
func (d *Device) CopyH2D(buf *Buffer, dst int, src []uint32) error {
	return d.copyH2D(buf, dst, src, nil)
}

// CopyH2DAsync is CopyH2D enqueued on a stream; the host does not wait.
func (d *Device) CopyH2DAsync(s *Stream, buf *Buffer, dst int, src []uint32) error {
	return d.copyH2D(buf, dst, src, s)
}

func (d *Device) copyH2D(buf *Buffer, dst int, src []uint32, s *Stream) error {
	if buf.freed {
		return fmt.Errorf("gpusim: CopyH2D to freed buffer")
	}
	if dst < 0 || dst+len(src) > len(buf.words) {
		return fmt.Errorf("gpusim: CopyH2D range [%d,%d) outside buffer of %d words",
			dst, dst+len(src), len(buf.words))
	}
	if d.faultCheck(FaultH2D).Fail {
		// The DMA setup cost is burned even though no data moved.
		d.chargeFault("H2D-fault", d.cfg.TransferSetupNs)
		return fmt.Errorf("gpusim: CopyH2D of %d words: %w", len(src), ErrTransferFault)
	}
	copy(buf.words[dst:], src)
	bytes := int64(len(src)) * WordBytes
	volume := d.transferVolumeNs(bytes, d.cfg.H2DBandwidthBps)
	d.scheduleCopy(d.cfg.TransferSetupNs, volume, bytes, true, s)
	return nil
}

// CopyD2H copies len(dst) words from buf starting at word offset src into
// host memory. Synchronous.
func (d *Device) CopyD2H(dst []uint32, buf *Buffer, src int) error {
	return d.copyD2H(dst, buf, src, nil)
}

// CopyD2HAsync is CopyD2H enqueued on a stream. The destination slice is
// logically owned by the device until the stream is synchronized.
func (d *Device) CopyD2HAsync(s *Stream, dst []uint32, buf *Buffer, src int) error {
	return d.copyD2H(dst, buf, src, s)
}

func (d *Device) copyD2H(dst []uint32, buf *Buffer, src int, s *Stream) error {
	if buf.freed {
		return fmt.Errorf("gpusim: CopyD2H from freed buffer")
	}
	if src < 0 || src+len(dst) > len(buf.words) {
		return fmt.Errorf("gpusim: CopyD2H range [%d,%d) outside buffer of %d words",
			src, src+len(dst), len(buf.words))
	}
	if d.faultCheck(FaultD2H).Fail {
		d.chargeFault("D2H-fault", d.cfg.TransferSetupNs)
		return fmt.Errorf("gpusim: CopyD2H of %d words: %w", len(dst), ErrTransferFault)
	}
	copy(dst, buf.words[src:])
	bytes := int64(len(dst)) * WordBytes
	volume := d.transferVolumeNs(bytes, d.cfg.D2HBandwidthBps)
	d.scheduleCopy(d.cfg.TransferSetupNs, volume, bytes, false, s)
	return nil
}

// scheduleCopy places a transfer on the copy-engine timeline. A stream copy
// additionally waits for prior stream work and does not stall the host.
// A synchronous copy implicitly waits for outstanding kernels that produced
// its source (matching CUDA's default-stream semantics) and stalls the host.
// The duration is setupNs + volumeNs; the two parts are accounted
// separately in Metrics so the fixed per-call cost and the byte-volume cost
// stay distinguishable (a zero-length copy has volumeNs == 0, bytes == 0).
func (d *Device) scheduleCopy(setupNs, volumeNs float64, bytes int64, h2d bool, s *Stream) {
	cost := setupNs + volumeNs
	d.mu.Lock()
	defer d.mu.Unlock()
	start := d.hostClock
	if s != nil {
		if s.ready > start {
			start = s.ready
		}
	} else if d.computeFree > start {
		// Default-stream ordering: the copy begins after in-flight kernels.
		start = d.computeFree
	}
	if d.copyFree > start {
		start = d.copyFree
	}
	end := start + cost
	d.copyFree = end
	dir := "D2H"
	if h2d {
		dir = "H2D"
	}
	d.traceAdd(dir, "copy", start, end)
	if s == nil {
		d.hostClock = end
	} else {
		s.ready = end
	}
	if h2d {
		d.metrics.H2DTimeNs += cost
		d.metrics.H2DSetupNs += setupNs
		d.metrics.H2DVolumeNs += volumeNs
		d.metrics.H2DBytes += bytes
	} else {
		d.metrics.D2HTimeNs += cost
		d.metrics.D2HSetupNs += setupNs
		d.metrics.D2HVolumeNs += volumeNs
		d.metrics.D2HBytes += bytes
	}
}
