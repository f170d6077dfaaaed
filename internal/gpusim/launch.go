package gpusim

import (
	"fmt"
	"sync"
)

// Kernel is the per-thread device function executed by Launch. Each logical
// GPU thread receives its own ThreadCtx identifying it within the launch
// grid and collecting its cost accounting.
type Kernel func(ctx *ThreadCtx)

// ThreadCtx is one logical GPU thread's view of a launch: its coordinates
// (blockIdx, threadIdx, blockDim, gridDim as in CUDA) and the accounting
// sink for the cost model. Kernels must record the work they do — arithmetic
// via Ops, global-memory traffic via GlobalRead/GlobalWrite — because the
// simulator executes native Go and cannot observe instructions directly.
// The thrust package's primitives do this recording, so code composed from
// them (like the shingling pipeline) is fully accounted automatically.
type ThreadCtx struct {
	Block    int // blockIdx.x
	Thread   int // threadIdx.x
	BlockDim int // blockDim.x
	GridDim  int // gridDim.x

	ops    int64
	shared int64
	runs   []accessRun
	extra  int64 // accesses beyond the run cap, charged uncoalesced
}

// GlobalID returns the linear global thread id (blockIdx*blockDim+threadIdx).
func (c *ThreadCtx) GlobalID() int { return c.Block*c.BlockDim + c.Thread }

// Ops records n arithmetic/logic instructions executed by this thread.
func (c *ThreadCtx) Ops(n int) { c.ops += int64(n) }

// SharedAccess records n shared-memory accesses (shared memory is ~100X
// lower latency than global).
func (c *ThreadCtx) SharedAccess(n int) { c.shared += int64(n) }

// maxRunsPerThread bounds per-thread trace memory; further accesses are
// charged as individually uncoalesced transactions, a conservative model.
const maxRunsPerThread = 64

// accessRun is a strided run of global-memory accesses by one thread:
// word addresses start, start+stride, … (count of them). Runs at the same
// position in different lanes of a warp are aligned for coalescing analysis.
type accessRun struct {
	start  int64 // virtual word address (buffer base + offset)
	count  int32
	stride int32
	write  bool
}

// GlobalRead records a strided run of count global-memory reads starting at
// word index start within buf, with the given word stride between
// consecutive accesses by this thread.
func (c *ThreadCtx) GlobalRead(buf *Buffer, start, count, stride int) {
	c.record(buf, start, count, stride, false)
}

// GlobalWrite records a strided run of global-memory writes.
func (c *ThreadCtx) GlobalWrite(buf *Buffer, start, count, stride int) {
	c.record(buf, start, count, stride, true)
}

func (c *ThreadCtx) record(buf *Buffer, start, count, stride int, write bool) {
	if count <= 0 {
		return
	}
	if len(c.runs) >= maxRunsPerThread {
		c.extra += int64(count)
		return
	}
	c.runs = append(c.runs, accessRun{
		start:  buf.base + int64(start),
		count:  int32(count),
		stride: int32(stride),
		write:  write,
	})
}

// launchStats aggregates a launch's cost inputs across all warps.
type launchStats struct {
	threads       int64
	warpSerialOps int64
	threadOps     int64
	transactions  int64
	accesses      int64
	sharedAcc     int64
}

// Launch executes gridDim blocks of blockDim independent threads (there is
// no intra-block barrier). It is synchronous like the Thrust primitives the
// paper uses: the host's virtual clock advances past the kernel's completion.
func (d *Device) Launch(gridDim, blockDim int, kernel Kernel) error {
	return d.launch(gridDim, blockDim, kernel, nil)
}

// LaunchOnStream is Launch but enqueued on a stream: the kernel is ordered
// after prior work on the stream and the host clock does not wait for it.
func (d *Device) LaunchOnStream(s *Stream, gridDim, blockDim int, kernel Kernel) error {
	return d.launch(gridDim, blockDim, kernel, s)
}

func (d *Device) launch(gridDim, blockDim int, kernel Kernel, s *Stream) error {
	if gridDim <= 0 || blockDim <= 0 {
		return fmt.Errorf("gpusim: launch with grid %d × block %d", gridDim, blockDim)
	}
	if blockDim > 1024 {
		return fmt.Errorf("gpusim: block dimension %d exceeds 1024", blockDim)
	}
	if d.faultCheck(FaultKernel).Fail {
		// The launch overhead is burned even though the grid never ran.
		d.chargeFault("launch-fault", d.cfg.KernelLaunchNs)
		return fmt.Errorf("gpusim: launch %d×%d: %w", gridDim, blockDim, ErrLaunchFault)
	}

	stats := d.executeGrid(gridDim, blockDim, kernel)
	stats.threads = int64(gridDim) * int64(blockDim)
	kernelNs := d.kernelTime(stats)
	if slow := d.faultCheck(FaultSlowSM).Slow; slow > 1 {
		// A latency spike stretches the kernel body; the fixed launch
		// overhead is unaffected.
		kernelNs = d.cfg.KernelLaunchNs + (kernelNs-d.cfg.KernelLaunchNs)*slow
	}
	d.scheduleKernel(kernelNs, stats, s)
	d.recordProfile(gridDim, blockDim, kernelNs, stats)
	return nil
}

// recordProfile appends a KernelRecord when profiling is enabled, consuming
// any pending kernel name.
func (d *Device) recordProfile(gridDim, blockDim int, kernelNs float64, st launchStats) {
	d.mu.Lock()
	defer d.mu.Unlock()
	name := d.pendingName
	d.pendingName = ""
	if !d.profiling {
		return
	}
	occ := 1.0
	if d.cfg.SaturationThreads > 0 && st.threads < int64(d.cfg.SaturationThreads) {
		occ = float64(st.threads) / float64(d.cfg.SaturationThreads)
	}
	d.profile = append(d.profile, KernelRecord{
		Name: name, Grid: gridDim, Block: blockDim,
		DurationNs: kernelNs, Threads: st.threads,
		WarpOps: st.warpSerialOps, Transactions: st.transactions,
		Occupancy: occ,
	})
}

// executeGrid really runs every thread's kernel body, distributing blocks
// over worker goroutines (the SMs), and returns the aggregated cost inputs.
func (d *Device) executeGrid(gridDim, blockDim int, kernel Kernel) launchStats {
	var total launchStats
	var totalMu sync.Mutex

	warp := d.cfg.WarpSize
	workers := d.workers
	if workers > gridDim {
		workers = gridDim
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := getWorkerState(blockDim)
			defer workerPool.Put(ws)
			ctxs := ws.ctxs[:blockDim]
			var local launchStats
			for b := range next {
				for t := 0; t < blockDim; t++ {
					ctxs[t].reset(b, t, blockDim, gridDim)
					kernel(&ctxs[t])
				}
				accumulateBlock(&local, ctxs, warp, &ws.acc)
			}
			totalMu.Lock()
			total.warpSerialOps += local.warpSerialOps
			total.threadOps += local.threadOps
			total.transactions += local.transactions
			total.accesses += local.accesses
			total.sharedAcc += local.sharedAcc
			totalMu.Unlock()
		}()
	}
	for b := 0; b < gridDim; b++ {
		next <- b
	}
	close(next)
	wg.Wait()
	return total
}

// workerState is one executor worker's reusable host state: its thread
// contexts (whose run traces keep their capacity) and accounting scratch.
// Pooled across launches, so a warm launch allocates neither.
type workerState struct {
	ctxs []ThreadCtx
	acc  accountScratch
}

var workerPool = sync.Pool{New: func() any { return new(workerState) }}

// getWorkerState takes a pooled worker state with room for blockDim
// threads. Return it with workerPool.Put once the launch's blocks are done.
func getWorkerState(blockDim int) *workerState {
	ws := workerPool.Get().(*workerState)
	if cap(ws.ctxs) < blockDim {
		ws.ctxs = make([]ThreadCtx, blockDim)
	}
	return ws
}

// accountScratch is the reusable buffer through which accumulateBlock and
// warpTransactions fold a block into launchStats without allocating per
// block, warp or access site. The zero value is ready to use.
type accountScratch struct {
	segs []segMax // one access site's distinct segments
}

// segMax is one 128-byte segment touched at the access site being
// analysed, with the largest run count among the lanes that start in it.
type segMax struct {
	seg, max int64
}

// reset prepares a reused context for thread t of block b, keeping the
// capacity of its run trace.
func (c *ThreadCtx) reset(b, t, blockDim, gridDim int) {
	c.Block, c.Thread, c.BlockDim, c.GridDim = b, t, blockDim, gridDim
	c.ops, c.shared, c.extra = 0, 0, 0
	c.runs = c.runs[:0]
}

// accumulateBlock folds one executed block's thread contexts into the stats,
// applying the SIMT divergence and coalescing models warp by warp.
func accumulateBlock(st *launchStats, ctxs []ThreadCtx, warp int, sc *accountScratch) {
	for w := 0; w < len(ctxs); w += warp {
		end := w + warp
		if end > len(ctxs) {
			end = len(ctxs)
		}
		lanes := ctxs[w:end]

		// Divergence model: a warp's lanes share one instruction unit, so
		// the warp issues max(lane ops) instructions and every one of the
		// warp's lane-slots is occupied for all of them.
		var maxOps int64
		for i := range lanes {
			l := &lanes[i]
			maxOps = max(maxOps, l.ops)
			st.threadOps += l.ops
			st.sharedAcc += l.shared
			st.accesses += l.extra
			st.transactions += l.extra // overflow: one transaction each
		}
		st.warpSerialOps += maxOps * int64(warp)

		transactions, accesses := warpTransactions(lanes, sc)
		st.transactions += transactions
		st.accesses += accesses
	}
}

// segWords is the size of one global-memory transaction in 32-bit words
// (128 bytes, the Kepler L2 transaction granularity).
const segWords = 32

// warpTransactions computes the 128-byte transaction count for one warp's
// recorded access runs. Runs are aligned across lanes by position (the k-th
// run of each lane belongs to the same static access site). For each site,
// if all lanes share one stride, the lanes' step-t addresses are a uniform
// shift of their starts, so the distinct-segment count among the starts of
// the lanes still active at step t (those whose count exceeds t)
// approximates the step's transaction count. Summed over the steps, that is
// the sum over the distinct segments of the largest count among the lanes
// starting in each: segment g is touched at step t exactly when its largest
// count exceeds t. One pass over the lanes computes it, keeping each
// segment's running maximum; the newest-first segment scan hits the last
// entry at once when starts rise with the lane id. Mixed strides fall back
// to fully uncoalesced (one transaction per access, the sum of the counts).
// The second result is the number of accesses the runs record, the sum of
// every site's counts.
func warpTransactions(lanes []ThreadCtx, sc *accountScratch) (transactions, accesses int64) {
	maxRuns := 0
	for i := range lanes {
		if len(lanes[i].runs) > maxRuns {
			maxRuns = len(lanes[i].runs)
		}
	}
	for k := 0; k < maxRuns; k++ {
		segs := sc.segs[:0]
		var stride int32
		var sum int64
		mixed, first := false, true
		for i := range lanes {
			if k >= len(lanes[i].runs) {
				continue
			}
			r := &lanes[i].runs[k]
			if first {
				stride, first = r.stride, false
			} else if r.stride != stride {
				mixed = true
			}
			count := int64(r.count)
			sum += count
			seg := r.start / segWords
			j := len(segs) - 1
			for j >= 0 && segs[j].seg != seg {
				j--
			}
			if j < 0 {
				segs = append(segs, segMax{seg, count})
			} else if count > segs[j].max {
				segs[j].max = count
			}
		}
		sc.segs = segs
		accesses += sum
		if mixed {
			transactions += sum
			continue
		}
		for _, g := range segs {
			transactions += g.max
		}
	}
	return transactions, accesses
}

// kernelTime converts aggregated stats into a simulated duration via a
// roofline model: the kernel is bound by the slower of compute throughput
// (cores × clock × IPC, consuming warp-serialized ops) and global-memory
// throughput (transactions × 128B over the device bandwidth), plus fixed
// launch overhead and a small shared-memory term. Launches smaller than
// Config.SaturationThreads cannot keep the device busy and run at
// proportionally reduced throughput (occupancy model).
func (d *Device) kernelTime(st launchStats) float64 {
	cfg := d.cfg
	computeNs := float64(st.warpSerialOps) / (float64(cfg.TotalCores()) * cfg.ClockHz * cfg.IPC) * 1e9
	memNs := float64(st.transactions) * float64(segWords*WordBytes) / cfg.GlobalBandwidthBps * 1e9
	sharedNs := float64(st.sharedAcc) * cfg.SharedLatencyNs / float64(cfg.TotalCores())
	body := computeNs
	if memNs > body {
		body = memNs
	}
	body += sharedNs
	if cfg.SaturationThreads > 0 && st.threads < int64(cfg.SaturationThreads) && st.threads > 0 {
		body *= float64(cfg.SaturationThreads) / float64(st.threads)
	}

	d.mu.Lock()
	d.metrics.ComputeTimeNs += computeNs
	d.metrics.MemoryTimeNs += memNs
	d.mu.Unlock()

	return cfg.KernelLaunchNs + body
}

// scheduleKernel places the kernel on the virtual timeline and merges the
// stats into the device metrics. Synchronous launches advance the host
// clock; stream launches only advance the stream and compute timelines.
func (d *Device) scheduleKernel(kernelNs float64, st launchStats, s *Stream) {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := d.hostClock
	if s != nil && s.ready > start {
		start = s.ready
	}
	if d.computeFree > start {
		start = d.computeFree
	}
	end := start + kernelNs
	d.computeFree = end
	name := d.pendingName
	if name == "" {
		name = "kernel"
	}
	d.traceAdd(name, "compute", start, end)
	if s == nil {
		d.hostClock = end
	} else {
		s.ready = end
	}
	m := &d.metrics
	m.KernelTimeNs += kernelNs
	m.KernelLaunches++
	m.WarpSerialOps += st.warpSerialOps
	m.ThreadOps += st.threadOps
	m.GlobalTransactions += st.transactions
	m.GlobalAccesses += st.accesses
}
