package pgraph

import (
	"fmt"
	"testing"

	"gpclust/internal/align"
	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
)

func testMetagenome(t testing.TB, n int) []seq.Sequence {
	t.Helper()
	cfg := seq.DefaultMetagenomeConfig(n)
	cfg.Seed = 7
	m, err := seq.GenerateMetagenome(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Seqs
}

func graphsEqual(t *testing.T, label string, want, got *graph.Graph) {
	t.Helper()
	if len(want.Offsets) != len(got.Offsets) || len(want.Adj) != len(got.Adj) {
		t.Fatalf("%s: shape differs: %d/%d offsets, %d/%d adj",
			label, len(want.Offsets), len(got.Offsets), len(want.Adj), len(got.Adj))
	}
	for i := range want.Offsets {
		if want.Offsets[i] != got.Offsets[i] {
			t.Fatalf("%s: offsets differ at %d", label, i)
		}
	}
	for i := range want.Adj {
		if want.Adj[i] != got.Adj[i] {
			t.Fatalf("%s: adjacency differs at %d", label, i)
		}
	}
}

// TestGPUMatchesHostEdges is the backend-equivalence gate: the GPU-SW path
// must accept the bit-identical edge set for every batch budget, with and
// without length binning.
func TestGPUMatchesHostEdges(t *testing.T) {
	seqs := testMetagenome(t, 120)
	host, hst, err := Build(seqs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if hst.Backend != "host" || hst.Edges == 0 {
		t.Fatalf("host build: backend %q, %d edges", hst.Backend, hst.Edges)
	}

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"default-budget", func(c *Config) {}},
		{"small-batches", func(c *Config) { c.Plan.BudgetWords = 6_000 }},
		{"tiny-batches", func(c *Config) { c.Plan.BudgetWords = 1_200 }},
		{"no-binning", func(c *Config) { c.Plan.LengthBin = false; c.Plan.BudgetWords = 6_000 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.GPU = true
			tc.mut(&cfg)
			g, st, err := Build(seqs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			graphsEqual(t, tc.name, host, g)
			if st.Backend != "gpu" || st.GPUBatches == 0 {
				t.Fatalf("gpu build: backend %q, %d batches", st.Backend, st.GPUBatches)
			}
			if st.AlignNs <= 0 || st.H2DNs <= 0 || st.D2HNs <= 0 || st.TotalNs <= st.FilterNs {
				t.Fatalf("breakdown not populated: %+v", st)
			}
		})
	}
}

// TestGPUSmallDeviceMemoryLimit drives the scheduler through a 1 MB device:
// the budget derives from FreeMemory, forcing many batches through the
// Algorithm-2-style packing, with the identical edge set.
func TestGPUSmallDeviceMemoryLimit(t *testing.T) {
	seqs := testMetagenome(t, 120)
	host, _, err := Build(seqs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.GPU = true
	devCfg := gpusim.SmallConfig()
	devCfg.GlobalMemBytes = 16 << 10 // tighter still: force real batching
	cfg.Device = gpusim.MustNew(devCfg)
	g, st, err := Build(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, "small device", host, g)
	if st.GPUBatches < 2 {
		t.Fatalf("1 MB device should force multiple batches, got %d", st.GPUBatches)
	}
	if err := cfg.Device.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestGPUBudgetTooSmall: a budget that cannot hold even one pair must fail
// loudly, not truncate the pair list.
func TestGPUBudgetTooSmall(t *testing.T) {
	seqs := testMetagenome(t, 40)
	cfg := DefaultConfig()
	cfg.GPU = true
	cfg.Plan.BudgetWords = swTableLen + 8
	if _, _, err := Build(seqs, cfg); err == nil {
		t.Fatal("expected an error for a batch budget below one pair")
	}
}

// TestGPUBinningReducesDivergence checks the warp-divergence rationale for
// length binning: scheduling mixed-cost pairs into the same warps must waste
// more warp issue slots than the binned order.
func TestGPUBinningReducesDivergence(t *testing.T) {
	seqs := testMetagenome(t, 250)
	run := func(noBin bool) Stats {
		cfg := DefaultConfig()
		cfg.GPU = true
		cfg.Plan.BudgetWords = 30_000
		cfg.Plan.LengthBin = !noBin
		_, st, err := Build(seqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	binned, unbinned := run(false), run(true)
	if binned.Divergence >= unbinned.Divergence {
		t.Fatalf("binned divergence %.4f not below unbinned %.4f",
			binned.Divergence, unbinned.Divergence)
	}
}

func BenchmarkPGraphGPU(b *testing.B) {
	seqs := testMetagenome(b, 250)
	cfg := DefaultConfig()
	cfg.GPU = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildLimitMatchesExactAcceptance: Build scores each pair only up to
// its acceptance limit, yet its edge set must be exactly the candidates
// whose full align.ScoreOnly score passes the float comparison
// score >= MinScorePerResidue·minLen — on the host, on the device, and on
// the device's host fallback, for both filters, at rate 0 (every
// candidate), the default 1.2 and 6.0 (above most pairs' scores).
func TestBuildLimitMatchesExactAcceptance(t *testing.T) {
	seqs := testMetagenome(t, 120)
	backends := []struct {
		name string
		mut  func(*Config)
	}{
		{"host", func(c *Config) {}},
		{"gpu", func(c *Config) { c.GPU = true }},
		{"gpu-fallback", func(c *Config) {
			c.GPU, c.FaultRetries = true, -1
			c.Device = gpusim.MustNew(gpusim.K20Config())
			sch, err := faults.Parse("kernel op=1 count=1000000")
			if err != nil {
				t.Fatal(err)
			}
			c.Device.SetFaultInjector(faults.NewInjector(sch))
		}},
	}
	for _, filter := range []string{FilterExact, FilterLSH} {
		cfg := DefaultConfig()
		cfg.Filter = filter
		var st Stats
		pairs, err := runFilterHost(sched.NewLedger(nil, nil), seqs, cfg, &st)
		if err != nil {
			t.Fatal(err)
		}
		exact := make([]int, len(pairs))
		for i, p := range pairs {
			a, b := p.unpack()
			exact[i] = align.ScoreOnly(seqs[a].Residues, seqs[b].Residues, cfg.Align)
		}
		for _, rate := range []float64{0, 1.2, 6.0} {
			eb := graph.NewBuilder(len(seqs))
			for i, p := range pairs {
				a, b := p.unpack()
				minLen := min(len(seqs[a].Residues), len(seqs[b].Residues))
				if float64(exact[i]) >= rate*float64(minLen) {
					eb.AddEdge(uint32(a), uint32(b))
				}
			}
			want := eb.Build()
			if rate == 6.0 && 2*want.NumEdges() > int64(len(pairs)) {
				t.Fatalf("%s: rate 6.0 accepts %d of %d candidates; it should reject most", filter, want.NumEdges(), len(pairs))
			}
			for _, be := range backends {
				label := fmt.Sprintf("%s/%s/rate=%g", filter, be.name, rate)
				c := cfg
				c.MinScorePerResidue = rate
				be.mut(&c)
				g, st, err := Build(seqs, c)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if st.Candidates != len(pairs) {
					t.Fatalf("%s: %d candidates, host filter %d", label, st.Candidates, len(pairs))
				}
				if be.name == "gpu-fallback" && st.Faults.HostFallbacks == 0 {
					t.Fatalf("%s: no batch fell back to the host", label)
				}
				graphsEqual(t, label, want, g)
			}
		}
	}
}
