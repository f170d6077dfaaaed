package pgraph

import (
	"testing"

	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
)

func checkSWPlan(t *testing.T, label string, p sched.PlanReport, wantAuto bool) {
	t.Helper()
	if p.AutoTuned != wantAuto {
		t.Fatalf("%s: AutoTuned=%v, want %v (%s)", label, p.AutoTuned, wantAuto, p.String())
	}
	if p.BudgetWords <= 0 || p.Lanes <= 0 || p.Batches <= 0 {
		t.Fatalf("%s: degenerate plan %s", label, p.String())
	}
	if p.PredictedNs <= 0 {
		t.Fatalf("%s: no cost prediction recorded: %s", label, p.String())
	}
	if p.ActualNs <= 0 {
		t.Fatalf("%s: no scheduler window measured: %s", label, p.String())
	}
	if d := p.DriftFrac(); d > 0.25 {
		t.Fatalf("%s: cost-model drift %.0f%% exceeds the 25%% gate (%s)",
			label, d*100, p.String())
	}
}

// TestAutoTuneMatchesHostEdges is the -batchwords auto contract: the tuner
// picks the plan, the edge set stays bit-identical to the host pool.
func TestAutoTuneMatchesHostEdges(t *testing.T) {
	seqs := testMetagenome(t, 150)
	host, _, err := Build(seqs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.GPU = true
	cfg.AutoTune = true
	cfg.Device = gpusim.MustNew(gpusim.K20Config())
	g, st, err := Build(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, "auto", host, g)
	checkSWPlan(t, "auto", st.Plan, true)
	if cfg.Device.AllocatedBuffers() != 0 {
		t.Fatalf("%d device buffers leaked", cfg.Device.AllocatedBuffers())
	}
}

// TestPredictCostFixedSWPlan: a fixed budget, run without tuning, is still
// priced and held to the same drift gate — the fixed rows of the autotune
// ablation.
func TestPredictCostFixedSWPlan(t *testing.T) {
	seqs := testMetagenome(t, 150)
	cfg := DefaultConfig()
	cfg.GPU = true
	cfg.Plan.BudgetWords = 40_000
	cfg.Device = gpusim.MustNew(gpusim.K20Config())
	_, st, err := Build(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSWPlan(t, "fixed", st.Plan, false)
	if st.Plan.BudgetWords != 40_000 {
		t.Fatalf("fixed budget not honoured: %s", st.Plan.String())
	}
}

// TestAutoTuneNotWorseThanLegacySW: the candidate sweep tops at the largest
// budget that fits, the budget of the default fixed plan, so the tuned build
// can never be slower than that plan.
func TestAutoTuneNotWorseThanLegacySW(t *testing.T) {
	seqs := testMetagenome(t, 250)
	legacyCfg := DefaultConfig()
	legacyCfg.GPU = true
	legacyCfg.Device = gpusim.MustNew(gpusim.K20Config())
	hostG, lst, err := Build(seqs, legacyCfg)
	if err != nil {
		t.Fatal(err)
	}
	autoCfg := DefaultConfig()
	autoCfg.GPU = true
	autoCfg.AutoTune = true
	autoCfg.Device = gpusim.MustNew(gpusim.K20Config())
	g, ast, err := Build(seqs, autoCfg)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, "auto vs legacy", hostG, g)
	if ast.Plan.ActualNs > lst.Plan.ActualNs {
		t.Fatalf("auto-tuned scheduler window %.3fms exceeds legacy %.3fms",
			ast.Plan.ActualNs/1e6, lst.Plan.ActualNs/1e6)
	}
}

// TestLegacySWBudget pins the budget of a plan that pins none: the
// verification batches of a fixed plan and the LSH filter's stage batches,
// fixed or tuned, take sched.FitBudget of a fresh K20's free words.
func TestLegacySWBudget(t *testing.T) {
	seqs := testMetagenome(t, 150)
	want := sched.FitBudget(sched.FreeWords(gpusim.MustNew(gpusim.K20Config())))
	if want != 1_006_632_960 {
		t.Fatalf("fresh K20 fits %d words", want)
	}
	for _, auto := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.GPU, cfg.AutoTune, cfg.Filter = true, auto, FilterLSH
		_, st, err := Build(seqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.LSHPlan.BudgetWords != want {
			t.Errorf("auto=%v: LSH filter planned at %d words, want %d", auto, st.LSHPlan.BudgetWords, want)
		}
		if !auto && st.Plan.BudgetWords != want {
			t.Errorf("fixed verification planned at %d words, want %d", st.Plan.BudgetWords, want)
		}
	}
}

// TestAutoTuneSWBeatsFixedLayouts: on the benchmark corpus (1,200 ORFs,
// seed 7, ten-member families of 210-residue ancestors) the auto plan's
// build is no slower on the virtual clock than either residue layout run
// fixed at the budget the tuner chose, and all three accept the same edges.
func TestAutoTuneSWBeatsFixedLayouts(t *testing.T) {
	if testing.Short() {
		t.Skip("three 1,200-ORF builds")
	}
	mcfg := seq.DefaultMetagenomeConfig(1200)
	mcfg.MinFamily, mcfg.MaxFamily = 10, 10
	mcfg.AncestorLenMin, mcfg.AncestorLenMax = 210, 210
	mcfg.Seed = 7
	mg, err := seq.GenerateMetagenome(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	build := func(mutate func(*Config)) (*graph.Graph, Stats) {
		cfg := DefaultConfig()
		cfg.GPU = true
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		mutate(&cfg)
		g, st, err := Build(mg.Seqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g, st
	}
	autoG, auto := build(func(c *Config) { c.AutoTune = true })
	checkSWPlan(t, "auto", auto.Plan, true)
	for _, packed := range []bool{false, true} {
		g, fixed := build(func(c *Config) { c.Plan.BudgetWords, c.Plan.Packed = auto.Plan.BudgetWords, packed })
		graphsEqual(t, "auto vs fixed", autoG, g)
		if auto.TotalNs > fixed.TotalNs {
			t.Errorf("auto plan (%s) took %.3fms virtual, fixed packed=%v at its budget %.3fms",
				auto.Plan.String(), auto.TotalNs/1e6, packed, fixed.TotalNs/1e6)
		}
	}
}
