// Metagenome walks the paper's entire pipeline on synthetic data: generate
// a metagenomic ORF sample with planted protein families (the GOS-data
// stand-in), build its homology graph the pGraph way (suffix-structure
// filter + Smith–Waterman), cluster with gpClust and with the GOS
// k-neighbor baseline, and score both against the planted benchmark with
// the paper's PPV/NPV/SP/SE and density metrics (Tables III–IV).
package main

import (
	"fmt"
	"log"

	"gpclust"
)

func main() {
	// 1. Sequence sample: ancestral families, mutated members, shotgun
	//    fragments (Section I's data-generation story).
	mgCfg := gpclust.DefaultMetagenomeConfig(1200)
	mg, err := gpclust.GenerateMetagenome(mgCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metagenome: %d ORFs, %d planted families, %d super-families\n",
		len(mg.Seqs), mg.NumFamilies, mg.NumSupers)

	// 2. Homology graph (the pGraph phase).
	g, pst, err := gpclust.BuildHomologyGraph(mg.Seqs, gpclust.DefaultPGraphConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pgraph: %d candidate pairs -> %d verified edges\n", pst.Candidates, pst.Edges)
	fmt.Printf("graph: %s\n", gpclust.ComputeGraphStats(g))

	// 2b. The same graph built with the batched GPU Smith–Waterman backend:
	//     bit-identical edge set, Table-I-style component split.
	gpuCfg := gpclust.DefaultPGraphConfig()
	gpuCfg.GPU = true
	gGPU, gst, err := gpclust.BuildHomologyGraph(mg.Seqs, gpuCfg)
	if err != nil {
		log.Fatal(err)
	}
	if gst.Edges != pst.Edges {
		log.Fatalf("GPU-SW backend accepted %d edges, host accepted %d", gst.Edges, pst.Edges)
	}
	_ = gGPU
	fmt.Printf("pgraph-gpu: CPU filter %.2fs | GPU SW %.2fs | Data_c→g %.2fs | Data_g→c %.2fs | total %.2fs virtual (%d batches)\n\n",
		gst.FilterNs/1e9, gst.AlignNs/1e9, gst.H2DNs/1e9, gst.D2HNs/1e9, gst.TotalNs/1e9, gst.GPUBatches)

	// 3. Cluster with gpClust on the simulated K20.
	opts := gpclust.DefaultOptions()
	opts.C1, opts.C2 = 100, 50 // plenty for a 1.2K-sequence sample
	dev := gpclust.NewK20()
	ours, err := gpclust.ClusterGPU(g, dev, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gpClust: %d clusters, %s\n", ours.NumClusters(), ours.Timings.String())

	// 4. The GOS k-neighbor baseline (k scaled to the sample's density).
	gosOpt := gpclust.DefaultGOSOptions()
	gosOpt.K = 4
	gosClusters, err := gpclust.ClusterGOS(g, gosOpt)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Score both against the planted super-families (the benchmark's
	//    role), over clusters of at least minSize members.
	const minSize = 10
	n := g.NumVertices()
	bench := mg.SuperFamily
	score := func(name string, clusters [][]uint32) {
		kept := clusters[:0:0]
		for _, cl := range clusters {
			if len(cl) >= minSize {
				kept = append(kept, cl)
			}
		}
		labels := gpclust.LabelsFromClusters(kept, n, minSize)
		c := gpclust.PairConfusion(labels, bench, n)
		mean, std := gpclust.DensityStats(g, kept)
		fmt.Printf("%-8s PPV=%6.2f%% NPV=%6.2f%% SP=%6.2f%% SE=%6.2f%%  density=%.2f±%.2f  (%d clusters ≥ %d)\n",
			name, 100*c.PPV(), 100*c.NPV(), 100*c.Specificity(), 100*c.Sensitivity(),
			mean, std, len(kept), minSize)
	}
	// Extended baseline: Markov Clustering, the conventional choice for
	// protein families (TribeMCL) — the context that makes the paper's use
	// of Shingling unusual.
	mclClusters, err := gpclust.ClusterMCL(g, gpclust.DefaultMCLOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	score("gpClust", ours.Clustering.Clusters)
	score("GOS", gosClusters)
	score("MCL", mclClusters)
}
