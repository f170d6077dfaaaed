// Package thrust reimplements, on top of the gpusim device, the Thrust
// parallel-primitive layer the paper builds gpClust from ("Our current
// implementation is implemented using the Thrust library", Section III-C).
// It provides the two primitives the paper identifies as carrying ~80% of
// the serial runtime, transform() (hashing) and segmented sorting, both as
// the fused kernels the shingling pipeline launches and as the split
// reference kernels those are tested against; plus fill, the 64-bit-key
// pair sort, and the Smith-Waterman and MinHash/LSH kernels pGraph runs.
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

// hashOps is the charged arithmetic cost of one (A·v+B) mod P evaluation:
// a 64-bit multiply, add and modulo expand to roughly this many simple
// device instructions.
const hashOps = 6

// TransformHash computes dst[i] = h(src[i]) = (A·src[i] + B) mod P over n
// elements: the paper's transform() step, the min-wise permutation hash h_i
// of Section III-B. P is the constant minwise.Prime. The pipelines run it
// fused into FusedHashTopS/FusedHashSort; this split form is the reference
// those kernels are tested against.
func TransformHash(d *gpusim.Device, src, dst *gpusim.Buffer, n int, h minwise.HashPair) error {
	if n < 0 || n > src.Len() || n > dst.Len() {
		return fmt.Errorf("thrust: TransformHash over %d elements with buffers of %d/%d", n, src.Len(), dst.Len())
	}
	if n == 0 {
		return nil
	}
	grid, total := launchGeometry(n)
	d.NextKernelName("transform_hash")
	return d.Launch(grid, blockDim, func(ctx *gpusim.ThreadCtx) {
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
