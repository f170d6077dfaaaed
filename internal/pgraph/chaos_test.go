package pgraph

import (
	"errors"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
)

// TestChaosSweepBothSchedulers is the pGraph half of the chaos acceptance
// harness: over ≥ 20 seeded random fault schedules, the GPU verification
// scheduler must recover to the bit-identical host edge set under both plan
// schedulers — a fixed multi-batch budget and the cost-model auto-tuner —
// and Stats.Faults must be nonzero exactly when injected faults failed ops.
func TestChaosSweepBothSchedulers(t *testing.T) {
	seqs := testMetagenome(t, 120)
	host, _, err := Build(seqs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	for _, auto := range []bool{false, true} {
		name := "fixed"
		if auto {
			name = "auto-tuned"
		}
		for seed := int64(1); seed <= 20; seed++ {
			sch := faults.RandSchedule(seed, 5)
			inj := faults.NewInjector(sch)
			cfg := DefaultConfig()
			cfg.GPU = true
			if auto {
				cfg.AutoTune = true
			} else {
				cfg.Plan.BudgetWords = 6_000 // force several batches
			}
			cfg.Device = gpusim.MustNew(gpusim.K20Config())
			cfg.Device.SetFaultInjector(inj)
			g, st, err := Build(seqs, cfg)
			if err != nil {
				t.Fatalf("%s seed %d (schedule %q): %v", name, seed, sch.String(), err)
			}
			graphsEqual(t, name, host, g)
			failed := inj.TotalFailures() > 0
			if st.Faults.Any() != failed {
				t.Fatalf("%s seed %d: Faults.Any()=%v but injector failed %d ops (schedule %q)",
					name, seed, st.Faults.Any(), inj.TotalFailures(), sch.String())
			}
			if err := cfg.Device.LeakCheck(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// TestChaosSweepLSHFilter extends the sweep to the on-device LSH filter:
// random fault schedules now hit the signature, band-hash, sort and bucket
// kernels (and their copies) before verification ever runs, and the build
// must still recover to the bit-identical fault-free edge set — the filter's
// ladder retries the idempotent pipeline or degrades to the host LSH path.
func TestChaosSweepLSHFilter(t *testing.T) {
	seqs := testMetagenome(t, 60)
	base := DefaultConfig()
	base.Filter = FilterLSH
	host, _, err := Build(seqs, base)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 20; seed++ {
		sch := faults.RandSchedule(seed, 5)
		inj := faults.NewInjector(sch)
		cfg := base
		cfg.GPU = true
		// Must hold the resident signature matrix (256 hashes × ~60 eligible
		// sequences) while still forcing several band-stage spans.
		cfg.Plan.BudgetWords = 40_000
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		cfg.Device.SetFaultInjector(inj)
		g, st, err := Build(seqs, cfg)
		if err != nil {
			t.Fatalf("seed %d (schedule %q): %v", seed, sch.String(), err)
		}
		graphsEqual(t, "lsh", host, g)
		failed := inj.TotalFailures() > 0
		if st.Faults.Any() != failed {
			t.Fatalf("seed %d: Faults.Any()=%v but injector failed %d ops (schedule %q)",
				seed, st.Faults.Any(), inj.TotalFailures(), sch.String())
		}
		if err := cfg.Device.LeakCheck(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestChaosSWRecoveryLadder drives each rung of the pGraph ladder.
func TestChaosSWRecoveryLadder(t *testing.T) {
	seqs := testMetagenome(t, 80)
	host, _, err := Build(seqs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		schedule string
		check    func(t *testing.T, st Stats)
	}{
		{"transfer retry", "h2d op=2; d2h op=4", func(t *testing.T, st Stats) {
			if st.Faults.TransferRetries == 0 {
				t.Fatalf("no transfer retries recorded: %s", st.Faults)
			}
		}},
		{"kernel retry", "kernel op=1", func(t *testing.T, st Stats) {
			if st.Faults.KernelRetries == 0 {
				t.Fatalf("no kernel retries recorded: %s", st.Faults)
			}
		}},
		// malloc op=1 is the resident score table's allocation, which cannot
		// split; op=2 is the first batch buffer, whose persistent OOM must
		// retry then split.
		{"oom split", "malloc op=2 count=8", func(t *testing.T, st Stats) {
			if st.Faults.OOMRetries == 0 || st.Faults.OOMSplits == 0 {
				t.Fatalf("persistent OOM should retry then split: %s", st.Faults)
			}
		}},
		{"host fallback", "h2d op=1 count=60", func(t *testing.T, st Stats) {
			if st.Faults.HostFallbacks == 0 {
				t.Fatalf("exhausted budget did not fall back to the host: %s", st.Faults)
			}
		}},
		{"slow sm only", "slowsm op=1 count=4 x=5", func(t *testing.T, st Stats) {
			if st.Faults.Any() {
				t.Fatalf("latency spike needed no recovery but recorded: %s", st.Faults)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := faults.Parse(tc.schedule)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.GPU = true
			cfg.Plan.BudgetWords = 6_000
			cfg.Device = gpusim.MustNew(gpusim.K20Config())
			cfg.Device.SetFaultInjector(faults.NewInjector(sched))
			g, st, err := Build(seqs, cfg)
			if err != nil {
				t.Fatalf("schedule %q: %v", tc.schedule, err)
			}
			graphsEqual(t, tc.name, host, g)
			tc.check(t, st)
			if err := cfg.Device.LeakCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosSWNoFallbackTypedError: with the fallback disabled, a fault
// storm must surface as a clean error wrapping ErrRetryBudget — and the
// device must not leak batch buffers on the failure path.
func TestChaosSWNoFallbackTypedError(t *testing.T) {
	seqs := testMetagenome(t, 60)
	for _, schedule := range []string{
		"h2d op=1 count=1000000",
		"kernel op=1 count=1000000",
		"malloc op=1 count=1000000",
	} {
		sched, err := faults.Parse(schedule)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.GPU = true
		cfg.Plan.BudgetWords = 6_000
		cfg.FaultRetries = 2
		cfg.NoHostFallback = true
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		cfg.Device.SetFaultInjector(faults.NewInjector(sched))
		_, _, err = Build(seqs, cfg)
		if err == nil {
			t.Fatalf("schedule %q: build succeeded under a fault storm with fallback disabled", schedule)
		}
		if !errors.Is(err, ErrRetryBudget) {
			t.Fatalf("schedule %q: error %v does not wrap ErrRetryBudget", schedule, err)
		}
		if err := cfg.Device.LeakCheck(); err != nil {
			t.Fatalf("schedule %q: %v", schedule, err)
		}
	}
}
