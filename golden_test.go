package gpclust_test

import (
	"bytes"
	"reflect"
	"testing"

	"gpclust"
	"gpclust/internal/seq"
)

// TestGoldenPipelineBackends is the end-to-end golden gate over the full
// FASTA → homology graph → families pipeline: the graph is built with both
// Smith–Waterman backends (host worker pool and the batched GPU kernel,
// forced through several device batches), and each graph is clustered with
// Cluster, ClusterParallel and ClusterGPU. All builds must agree on the
// graph and all clusterings must agree on the partition.
func TestGoldenPipelineBackends(t *testing.T) {
	mgCfg := gpclust.DefaultMetagenomeConfig(250)
	mgCfg.Seed = 7
	mg, err := gpclust.GenerateMetagenome(mgCfg)
	if err != nil {
		t.Fatal(err)
	}

	// FASTA round trip, so the golden path exercises the on-disk format the
	// cmd tools consume.
	var fasta bytes.Buffer
	if err := seq.WriteFASTA(&fasta, mg.Seqs); err != nil {
		t.Fatal(err)
	}
	seqs, err := seq.ReadFASTA(&fasta)
	if err != nil {
		t.Fatal(err)
	}

	hostCfg := gpclust.DefaultPGraphConfig()
	gHost, hostStats, err := gpclust.BuildHomologyGraph(seqs, hostCfg)
	if err != nil {
		t.Fatal(err)
	}
	if hostStats.Edges == 0 {
		t.Fatal("host build produced no edges; golden test needs a non-trivial graph")
	}

	gpuCfg := hostCfg
	gpuCfg.GPU = true
	gpuCfg.Plan.BudgetWords = 8_000 // force several batches through the scheduler
	gGPU, gpuStats, err := gpclust.BuildHomologyGraph(seqs, gpuCfg)
	if err != nil {
		t.Fatal(err)
	}
	if gpuStats.GPUBatches < 2 {
		t.Fatalf("want a multi-batch GPU build, got %d batches", gpuStats.GPUBatches)
	}
	if !reflect.DeepEqual(gHost.Offsets, gGPU.Offsets) || !reflect.DeepEqual(gHost.Adj, gGPU.Adj) {
		t.Fatal("GPU-SW graph differs from host-SW graph")
	}

	opts := gpclust.DefaultOptions()
	opts.C1, opts.C2 = 60, 30

	var want [][]uint32
	for _, g := range map[string]*gpclust.Graph{"host-SW": gHost, "gpu-SW": gGPU} {
		serial, err := gpclust.Cluster(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		parOpts := opts
		parOpts.Workers = 3
		par, err := gpclust.ClusterParallel(g, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		gpu, err := gpclust.ClusterGPU(g, gpclust.NewK20(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = serial.Clustering.Clusters
			if len(want) == 0 {
				t.Fatal("no clusters; golden test needs a non-trivial partition")
			}
		}
		for name, r := range map[string]*gpclust.Result{"Cluster": serial, "ClusterParallel": par, "ClusterGPU": gpu} {
			if !reflect.DeepEqual(r.Clustering.Clusters, want) {
				t.Fatalf("%s partition diverged from the golden partition", name)
			}
		}
	}
}
