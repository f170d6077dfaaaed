package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
)

// Property: for any random graph and any valid parameter setting, the
// serial, parallel (across worker counts), and GPU backends (all variants,
// including the batch-pipelined path) produce the identical clustering, and
// that clustering is a partition of the vertex set.
func TestPropertyBackendsAgree(t *testing.T) {
	f := func(seed int64, rawS1, rawC1, rawBatch uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(150)
		m := n * (1 + rng.Intn(8))
		g := graph.RandomGraph(n, m, seed)

		o := DefaultOptions()
		o.S1 = 1 + int(rawS1%4)
		o.S2 = 1 + int(rawS1%3)
		o.C1 = 5 + int(rawC1%20)
		o.C2 = 3 + int(rawC1%10)
		o.Seed = seed

		serial, err := ClusterSerial(g, o)
		if err != nil {
			t.Logf("serial: %v", err)
			return false
		}

		// partition property
		seen := make([]bool, n)
		for _, cl := range serial.Clustering.Clusters {
			for _, v := range cl {
				if seen[v] {
					t.Logf("vertex %d twice", v)
					return false
				}
				seen[v] = true
			}
		}
		for _, ok := range seen {
			if !ok {
				t.Log("vertex missing")
				return false
			}
		}

		// Multi-core host backend across worker-pool sizes.
		for _, workers := range []int{1, 2, 8} {
			o.Workers = workers
			par, err := ClusterParallel(g, o)
			if err != nil {
				t.Logf("parallel(workers=%d): %v", workers, err)
				return false
			}
			if !reflect.DeepEqual(serial.Clustering, par.Clustering) {
				t.Logf("parallel clustering differs (workers=%d)", workers)
				return false
			}
		}
		o.Workers = 0

		// GPU with a randomized batch budget (possibly forcing splits).
		o.Plan.BudgetWords = 0
		if rawBatch%2 == 0 {
			o.Plan.BudgetWords = 64 + int(rawBatch)*8
		}
		dev := gpusim.MustNew(gpusim.K20Config())
		gpu, err := ClusterGPU(g, dev, o)
		if err != nil {
			t.Logf("gpu: %v", err)
			return false
		}
		if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
			t.Logf("gpu clustering differs (batch=%d)", o.Plan.BudgetWords)
			return false
		}

		// Batch-pipelined GPU variant on the same batch budget.
		o.Plan.Lanes = 2
		devP := gpusim.MustNew(gpusim.K20Config())
		pipe, err := ClusterGPU(g, devP, o)
		if err != nil {
			t.Logf("pipelined: %v", err)
			return false
		}
		if !reflect.DeepEqual(serial.Clustering, pipe.Clustering) {
			t.Logf("pipelined clustering differs (batch=%d)", o.Plan.BudgetWords)
			return false
		}

		// GPU aggregation variant, pipelined on the same batch budget.
		o.Plan.DeviceAggregate = true
		devA := gpusim.MustNew(gpusim.K20Config())
		agg, err := ClusterGPU(g, devA, o)
		if err != nil {
			t.Logf("gpuagg: %v", err)
			return false
		}
		if !reflect.DeepEqual(serial.Clustering, agg.Clustering) {
			t.Log("gpu-aggregate clustering differs")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: cluster supports never cross connected components.
func TestPropertyClustersWithinComponents(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomGraph(120, 200, seed) // sparse: many components
		labels, _ := graph.ConnectedComponents(g)
		o := testOptions()
		o.Seed = seed
		res, err := ClusterSerial(g, o)
		if err != nil {
			return false
		}
		for _, cl := range res.Clustering.Clusters {
			for _, v := range cl[1:] {
				if labels[v] != labels[cl[0]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: adding edges inside a planted clique never splits it, and the
// clique ends up in one cluster for adequate parameters.
func TestPropertyCliqueStaysTogether(t *testing.T) {
	f := func(seed int64, rawSize uint8) bool {
		size := 8 + int(rawSize%12)
		b := graph.NewBuilder(size + 20)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddEdge(uint32(i), uint32(j))
			}
		}
		// background noise among the other 20 vertices
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 15; k++ {
			u := uint32(size + rng.Intn(20))
			v := uint32(size + rng.Intn(20))
			b.AddEdge(u, v)
		}
		g := b.Build()
		o := testOptions()
		o.Seed = seed
		res, err := ClusterSerial(g, o)
		if err != nil {
			return false
		}
		labels := res.Clustering.Labels()
		for i := 1; i < size; i++ {
			if labels[i] != labels[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
