// Gputuning explores two dimensions of the CPU-GPU pipeline's batch plan
// (Options.Plan) that the paper discusses: the device batch budget of
// Algorithm 2 (small device memory forces more batches and more
// host↔device traffic) and the synchronous-vs-overlapped transfer question
// the paper leaves as future work ("the data transfer overhead ... can be
// eliminated through asynchronous data transfer primitives provided by
// CUDA C/C++"), answered by a two-lane pipelined plan. All timings are
// virtual-clock.
package main

import (
	"fmt"
	"log"

	"gpclust"
)

func main() {
	g, _ := gpclust.Planted(gpclust.DefaultPlantedConfig(20000))
	fmt.Printf("input: %s\n\n", gpclust.ComputeGraphStats(g))

	base := gpclust.DefaultOptions()
	base.C1, base.C2 = 100, 50

	fmt.Println("batch-budget sweep (synchronous transfers):")
	fmt.Printf("%-16s %8s %8s %10s %10s %10s %10s\n",
		"batch (words)", "batches", "splits", "GPU s", "H2D s", "D2H s", "total s")
	for _, words := range []int{0, 4_000_000, 400_000, 80_000, 20_000} {
		o := base
		o.Plan.BudgetWords = words
		dev := gpclust.NewK20()
		res, err := gpclust.ClusterGPU(g, dev, o)
		if err != nil {
			log.Fatal(err)
		}
		label := "fit" // the largest budget that fits free device memory
		if words > 0 {
			label = fmt.Sprintf("%d", words)
		}
		t := res.Timings
		fmt.Printf("%-16s %8d %8d %10.3f %10.3f %10.3f %10.3f\n",
			label, res.Pass1.Batches, res.Pass1.SplitLists,
			t.GPUNs/1e9, t.H2DNs/1e9, t.D2HNs/1e9, t.TotalNs/1e9)
	}

	fmt.Println("\nsynchronous vs overlapped transfers:")
	for _, pipeline := range []bool{false, true} {
		o := base
		if pipeline {
			o.Plan.Lanes = 2
		}
		dev := gpclust.NewK20()
		res, err := gpclust.ClusterGPU(g, dev, o)
		if err != nil {
			log.Fatal(err)
		}
		mode := "sync (paper's Thrust implementation)"
		if pipeline {
			mode = "pipelined (paper's proposed improvement)"
		}
		fmt.Printf("  %-40s total %7.3fs  (GPU %.3fs, D2H %.3fs)\n",
			mode, res.Timings.TotalNs/1e9, res.Timings.GPUNs/1e9, res.Timings.D2HNs/1e9)
	}

	// Device metrics show why graph kernels underuse the GPU: uncoalesced
	// adjacency-list access (Section III-C's motivation).
	dev := gpclust.NewK20()
	if _, err := gpclust.ClusterGPU(g, dev, base); err != nil {
		log.Fatal(err)
	}
	m := dev.Metrics()
	fmt.Printf("\ndevice metrics: coalescing efficiency %.1f%%, divergence overhead %.1f%%, %d kernel launches\n",
		100*m.CoalescingEfficiency(), 100*m.DivergenceOverhead(), m.KernelLaunches)
}
