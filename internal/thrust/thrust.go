// Package thrust reimplements, on top of the gpusim device, the Thrust
// parallel-primitive layer the paper builds gpClust from ("Our current
// implementation is implemented using the Thrust library", Section III-C).
// It provides the two primitives the paper identifies as carrying ~80% of
// the serial runtime — transform() (hashing) and segmented sorting — plus
// the standard supporting primitives (fill, iota, gather, reduce, scan).
//
// Every primitive executes for real on the device (results are exact) and
// records its arithmetic and memory traffic so the simulator's virtual
// clock reflects it.
package thrust

import (
	"fmt"

	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
)

// elemsPerThread is the grid-stride work granularity of elementwise
// kernels: each thread processes this many elements at stride gridSize,
// which keeps warp accesses coalesced.
const elemsPerThread = 8

// blockDim is the default thread-block size for elementwise kernels.
const blockDim = 256

// launchGeometry returns (gridDim, totalThreads) covering n elements at
// elemsPerThread each.
func launchGeometry(n int) (int, int) {
	threads := (n + elemsPerThread - 1) / elemsPerThread
	if threads == 0 {
		threads = 1
	}
	grid := (threads + blockDim - 1) / blockDim
	return grid, grid * blockDim
}

// launch dispatches synchronously or on a stream.
func launch(d *gpusim.Device, s *gpusim.Stream, grid, block int, k gpusim.Kernel) error {
	if s == nil {
		return d.Launch(grid, block, k)
	}
	return d.LaunchOnStream(s, grid, block, k)
}

// Transform computes dst[i] = f(src[i]) for i in [0, n), the analogue of
// thrust::transform. opsPerElem is the arithmetic cost of one application
// of f charged to the cost model.
func Transform(d *gpusim.Device, src, dst *gpusim.Buffer, n int, f func(uint32) uint32, opsPerElem int) error {
	if n < 0 || n > src.Len() || n > dst.Len() {
		return fmt.Errorf("thrust: Transform over %d elements with buffers of %d/%d", n, src.Len(), dst.Len())
	}
	if n == 0 {
		return nil
	}
	grid, total := launchGeometry(n)
	d.NextKernelName("transform")
	return d.Launch(grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		gid := ctx.GlobalID()
		s, t := src.Words(), dst.Words()
		count := 0
		for i := gid; i < n; i += total {
			t[i] = f(s[i])
			count++
		}
		if count > 0 {
			ctx.GlobalRead(src, gid, count, total)
			ctx.GlobalWrite(dst, gid, count, total)
			ctx.Ops(count * opsPerElem)
		}
	})
}

// hashOps is the charged arithmetic cost of one (A·v+B) mod P evaluation:
// a 64-bit multiply, add and modulo expand to roughly this many simple
// device instructions.
const hashOps = 6

// TransformHash computes dst[i] = h(src[i]) = (A·src[i] + B) mod P over n
// elements — the min-wise permutation hash h_i of Section III-B, fused to
// avoid per-element closure dispatch. P is the constant minwise.Prime.
func TransformHash(d *gpusim.Device, src, dst *gpusim.Buffer, n int, h minwise.HashPair) error {
	return TransformHashOnStream(d, nil, src, dst, n, h)
}

// TransformHashOnStream is TransformHash enqueued on a stream (nil stream =
// synchronous), used by the asynchronous-transfer pipeline.
func TransformHashOnStream(d *gpusim.Device, s *gpusim.Stream, src, dst *gpusim.Buffer, n int, h minwise.HashPair) error {
	if n < 0 || n > src.Len() || n > dst.Len() {
		return fmt.Errorf("thrust: TransformHash over %d elements with buffers of %d/%d", n, src.Len(), dst.Len())
	}
	if n == 0 {
		return nil
	}
	grid, total := launchGeometry(n)
	d.NextKernelName("transform_hash")
	return launch(d, s, grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		gid := ctx.GlobalID()
		s, t := src.Words(), dst.Words()
		count := 0
		for i := gid; i < n; i += total {
			t[i] = h.Apply(s[i])
			count++
		}
		if count > 0 {
			ctx.GlobalRead(src, gid, count, total)
			ctx.GlobalWrite(dst, gid, count, total)
			ctx.Ops(count * hashOps)
		}
	})
}

// Fill sets the first n words of dst to v (thrust::fill).
func Fill(d *gpusim.Device, dst *gpusim.Buffer, n int, v uint32) error {
	if n < 0 || n > dst.Len() {
		return fmt.Errorf("thrust: Fill %d elements into buffer of %d", n, dst.Len())
	}
	if n == 0 {
		return nil
	}
	grid, total := launchGeometry(n)
	d.NextKernelName("fill")
	return d.Launch(grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		gid := ctx.GlobalID()
		t := dst.Words()
		count := 0
		for i := gid; i < n; i += total {
			t[i] = v
			count++
		}
		if count > 0 {
			ctx.GlobalWrite(dst, gid, count, total)
			ctx.Ops(count)
		}
	})
}

// Iota writes dst[i] = start + i for i in [0, n) (thrust::sequence).
func Iota(d *gpusim.Device, dst *gpusim.Buffer, n int, start uint32) error {
	if n < 0 || n > dst.Len() {
		return fmt.Errorf("thrust: Iota %d elements into buffer of %d", n, dst.Len())
	}
	if n == 0 {
		return nil
	}
	grid, total := launchGeometry(n)
	d.NextKernelName("iota")
	return d.Launch(grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		gid := ctx.GlobalID()
		t := dst.Words()
		count := 0
		for i := gid; i < n; i += total {
			t[i] = start + uint32(i)
			count++
		}
		if count > 0 {
			ctx.GlobalWrite(dst, gid, count, total)
			ctx.Ops(count)
		}
	})
}

// Gather computes dst[i] = src[idx[i]] (thrust::gather). The gathered reads
// are data-dependent and charged as scattered accesses.
func Gather(d *gpusim.Device, src, idx, dst *gpusim.Buffer, n int) error {
	if n < 0 || n > idx.Len() || n > dst.Len() {
		return fmt.Errorf("thrust: Gather %d elements with idx/dst of %d/%d", n, idx.Len(), dst.Len())
	}
	if n == 0 {
		return nil
	}
	grid, total := launchGeometry(n)
	d.NextKernelName("gather")
	var launchErr error
	err := d.Launch(grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		gid := ctx.GlobalID()
		s, ix, t := src.Words(), idx.Words(), dst.Words()
		count := 0
		for i := gid; i < n; i += total {
			j := int(ix[i])
			if j >= len(s) {
				// Out-of-range index: surface as an error after the launch
				// rather than panicking mid-kernel.
				launchErr = fmt.Errorf("thrust: Gather index %d out of range %d", j, len(s))
				return
			}
			t[i] = s[j]
			// data-dependent read: its own run, effectively uncoalesced
			ctx.GlobalRead(src, j, 1, 1)
			count++
		}
		if count > 0 {
			ctx.GlobalRead(idx, gid, count, total)
			ctx.GlobalWrite(dst, gid, count, total)
			ctx.Ops(count * 2)
		}
	})
	if err != nil {
		return err
	}
	return launchErr
}
