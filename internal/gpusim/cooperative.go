package gpusim

import (
	"fmt"
	"sync"
)

// CoopCtx extends ThreadCtx with the intra-block cooperation facilities of
// the CUDA model: per-block shared memory and barrier synchronization
// ("Threads inside each thread block ... can cooperate with each other
// though barrier synchronizations or per-block shared memory", Section II).
type CoopCtx struct {
	ThreadCtx
	shared  []uint32
	barrier *barrier
}

// Shared returns the block's shared-memory array (one copy per block,
// visible to all its threads). Accesses should be recorded with
// SharedAccess for the cost model.
func (c *CoopCtx) Shared() []uint32 { return c.shared }

// SyncThreads blocks until every thread in the block has reached the
// barrier, like CUDA's __syncthreads().
func (c *CoopCtx) SyncThreads() { c.barrier.await() }

// barrier is a reusable cyclic barrier for n goroutines.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	phase   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	phase := b.phase
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		for b.phase == phase {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// LaunchCooperative executes gridDim blocks of blockDim threads where the
// threads of a block may use shared memory (sharedWords 32-bit words per
// block) and SyncThreads barriers. Each thread runs on its own goroutine so
// barriers really rendezvous; this is slower to simulate than Launch and is
// meant for block-cooperative primitives (reductions, scans). Synchronous.
func (d *Device) LaunchCooperative(gridDim, blockDim, sharedWords int, kernel func(*CoopCtx)) error {
	if gridDim <= 0 || blockDim <= 0 {
		return fmt.Errorf("gpusim: cooperative launch with grid %d × block %d", gridDim, blockDim)
	}
	if blockDim > 1024 {
		return fmt.Errorf("gpusim: block dimension %d exceeds 1024", blockDim)
	}
	if sharedWords*WordBytes > d.cfg.SharedMemPerBlock {
		return fmt.Errorf("gpusim: %d words of shared memory exceed the per-block limit of %d bytes",
			sharedWords, d.cfg.SharedMemPerBlock)
	}

	var total launchStats
	var totalMu sync.Mutex
	warp := d.cfg.WarpSize

	workers := d.workers
	if workers > gridDim {
		workers = gridDim
	}
	blockCh := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Contexts, their accounting copy and the scratch are reused
			// across this worker's blocks; tg.Wait orders each block's
			// threads before the next block's.
			ctxs := make([]CoopCtx, blockDim)
			ws := getWorkerState(blockDim)
			defer workerPool.Put(ws)
			plain := ws.ctxs[:blockDim]
			var local launchStats
			for b := range blockCh {
				shared := make([]uint32, sharedWords)
				bar := newBarrier(blockDim)
				var tg sync.WaitGroup
				for t := 0; t < blockDim; t++ {
					c := &ctxs[t]
					c.reset(b, t, blockDim, gridDim)
					c.shared, c.barrier = shared, bar
					tg.Add(1)
					go func() {
						defer tg.Done()
						kernel(c)
					}()
				}
				tg.Wait()
				for i := range ctxs {
					plain[i] = ctxs[i].ThreadCtx
				}
				accumulateBlock(&local, plain, warp, &ws.acc)
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
		blockCh <- b
	}
	close(blockCh)
	wg.Wait()

	total.threads = int64(gridDim) * int64(blockDim)
	kernelNs := d.kernelTime(total)
	d.scheduleKernel(kernelNs, total, nil)
	d.recordProfile(gridDim, blockDim, kernelNs, total)
	return nil
}
