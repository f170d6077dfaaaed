package pgraph

import (
	"errors"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
)

// lshSettings are the banding shapes the equivalence tests sweep: the tuned
// default and a deliberately aggressive high-precision shape.
var lshSettings = []struct {
	label       string
	bands, rows int
}{
	{"default", 0, 0},
	{"16x2", 16, 2},
}

func lshConfig(bands, rows int) Config {
	cfg := DefaultConfig()
	cfg.Filter = FilterLSH
	cfg.LSHBands = bands
	cfg.LSHRows = rows
	return cfg
}

// TestLSHDeviceMatchesHost: the device filter must produce the bit-identical
// candidate set to the host path at every setting — same shingles, same
// permutation family, same band keys, same buckets.
func TestLSHDeviceMatchesHost(t *testing.T) {
	seqs := testMetagenome(t, 80)
	for _, s := range lshSettings {
		cfg := lshConfig(s.bands, s.rows)
		_, prm, err := resolveFilter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := lshPairsHost(seqs, cfg, prm)
		dev := gpusim.MustNew(gpusim.K20Config())
		var st Stats
		cfg.GPU = true
		cfg.Device = dev
		got, err := lshDeviceFilter(dev, sched.NewLedger(dev, nil), seqs, cfg, prm, &st)
		if err != nil {
			t.Fatalf("%s: %v", s.label, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: device found %d candidates, host %d", s.label, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				a, b := p.unpack()
				t.Fatalf("%s: host pair (%d,%d) missing on device", s.label, a, b)
			}
		}
		if st.Faults.Any() {
			t.Fatalf("%s: fault-free run recorded recovery %+v", s.label, st.Faults)
		}
	}
}

// TestLSHFilterGraphsMatchHostGPU: at every banding shape, the LSH-filtered
// build must be backend-independent — host and device runs accept the
// identical edge set.
func TestLSHFilterGraphsMatchHostGPU(t *testing.T) {
	seqs := testMetagenome(t, 80)
	for _, s := range lshSettings {
		cfg := lshConfig(s.bands, s.rows)
		want, _, err := Build(seqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.GPU = true
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		got, st, err := Build(seqs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.label, err)
		}
		graphsEqual(t, s.label, want, got)
		if st.Filter != FilterLSH {
			t.Fatalf("%s: Stats.Filter = %q", s.label, st.Filter)
		}
	}
}

// TestLSHAllocFailureFallsBackToHost: persistent malloc faults starve the
// resident signature buffer; the ladder must degrade the whole filter to the
// bit-identical host LSH path and count the fallback.
func TestLSHAllocFailureFallsBackToHost(t *testing.T) {
	seqs := testMetagenome(t, 60)
	cfg := lshConfig(0, 0)
	want, _, err := Build(seqs, cfg) // host reference
	if err != nil {
		t.Fatal(err)
	}

	sch, err := faults.Parse("malloc op=1 count=500")
	if err != nil {
		t.Fatal(err)
	}
	gpu := lshConfig(0, 0)
	gpu.GPU = true
	gpu.Device = gpusim.MustNew(gpusim.K20Config())
	gpu.Device.SetFaultInjector(faults.NewInjector(sch))
	got, st, err := Build(seqs, gpu)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, "alloc-starved lsh", want, got)
	if st.Faults.HostFallbacks < 1 {
		t.Fatalf("expected a host fallback, recovery %+v", st.Faults)
	}
}

// TestLSHNoHostFallbackFailsTyped: with the fallback disabled, the starved
// filter must fail wrapping ErrRetryBudget.
func TestLSHNoHostFallbackFailsTyped(t *testing.T) {
	seqs := testMetagenome(t, 60)
	sch, err := faults.Parse("malloc op=1 count=500")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lshConfig(0, 0)
	cfg.GPU = true
	cfg.NoHostFallback = true
	cfg.FaultRetries = 2
	cfg.Device = gpusim.MustNew(gpusim.K20Config())
	cfg.Device.SetFaultInjector(faults.NewInjector(sch))
	_, _, err = Build(seqs, cfg)
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("error %v does not wrap ErrRetryBudget", err)
	}
}

// TestLSHBudgetTooSmall: a budget that cannot hold the resident signature
// buffer is a planning error, not a device fault — Build fails fast without
// retry noise.
func TestLSHBudgetTooSmall(t *testing.T) {
	seqs := testMetagenome(t, 60)
	cfg := lshConfig(0, 0)
	cfg.GPU = true
	cfg.Plan.BudgetWords = 64
	var st Stats
	dev := gpusim.MustNew(gpusim.K20Config())
	_, prm, err := resolveFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lshDeviceFilter(dev, sched.NewLedger(dev, nil), seqs, cfg, prm, &st); err == nil {
		t.Fatal("64-word budget accepted for the banded filter")
	}
	if st.Faults.Any() {
		t.Fatalf("planning failure charged recovery %+v", st.Faults)
	}
}

// TestFilterValidation: Config.Filter/LSHBands/LSHRows combinations that
// make no sense must be rejected before any work runs.
func TestFilterValidation(t *testing.T) {
	seqs := testMetagenome(t, 10)
	bad := []Config{
		func() Config { c := DefaultConfig(); c.Filter = "minhash"; return c }(),
		func() Config { c := DefaultConfig(); c.LSHBands = 8; return c }(),
		func() Config { c := DefaultConfig(); c.LSHRows = 2; return c }(),
		func() Config { c := DefaultConfig(); c.Filter = FilterLSH; c.LSHBands = -7; return c }(),
		func() Config { c := DefaultConfig(); c.Filter = "cascade"; return c }(),
	}
	for i, cfg := range bad {
		if _, _, err := Build(seqs, cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	// The exact spelling and the empty default are both fine.
	for _, f := range []string{"", FilterExact} {
		cfg := DefaultConfig()
		cfg.Filter = f
		if _, st, err := Build(seqs, cfg); err != nil {
			t.Fatal(err)
		} else if st.Filter != FilterExact {
			t.Fatalf("Stats.Filter = %q for Filter=%q", st.Filter, f)
		}
	}
}

// TestLSHPlanRecorded: a fixed-budget GPU LSH run must land a populated,
// priced plan in Stats.LSHPlan with a sane predicted-vs-actual window.
func TestLSHPlanRecorded(t *testing.T) {
	seqs := testMetagenome(t, 80)
	cfg := lshConfig(0, 0)
	cfg.GPU = true
	cfg.Device = gpusim.MustNew(gpusim.K20Config())
	_, st, err := Build(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := st.LSHPlan
	if p.Batches < 1 || p.BudgetWords <= 0 {
		t.Fatalf("LSH plan not populated: %+v", p)
	}
	if p.PredictedNs <= 0 || p.ActualNs <= 0 {
		t.Fatalf("LSH plan not priced: %+v", p)
	}
	if d := p.DriftFrac(); d > 0.25 {
		t.Fatalf("LSH cost-model drift %.0f%% above the gate: %+v", 100*d, p)
	}
	// The verification plan is independent and still reported.
	if st.Plan.Batches < 1 {
		t.Fatalf("verification plan missing: %+v", st.Plan)
	}
}

// TestLSHSignatureSpansMatchHost: under a budget that splits stage A into
// several spans, every span's one-launch signature kernel fills its own
// columns of the resident matrix, and the assembled matrix is bit-identical
// to the host signatures — for a family size off the permutation-group
// multiple. The filter's candidates at that budget still match the host's.
func TestLSHSignatureSpansMatchHost(t *testing.T) {
	seqs := testMetagenome(t, 80)
	cfg := lshConfig(20, 3) // 60 permutations: not a multiple of the group
	_, prm, err := resolveFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eligible, ids, total, _ := shingleSets(seqs, cfg.MinExactMatch)
	dev := gpusim.MustNew(gpusim.K20Config())
	env := &lshEnv{dev: dev, led: sched.NewLedger(dev, nil), cfg: cfg, shape: prm, sets: eligible, ids: ids, seqs: seqs,
		total: total, budget: prm.hashes()*len(eligible) + total/3}
	spansA, _, err := env.lshPlans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spansA) < 2 {
		t.Fatalf("budget %d planned %d signature spans, want ≥ 2", env.budget, len(spansA))
	}
	sigBuf := dev.MustMalloc(env.lshSigWords())
	defer sigBuf.Free()
	fam := prm.Family()
	for _, sp := range spansA {
		if err := env.runSigSpan(sigBuf, fam, sp); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]uint32, sigBuf.Len())
	if err := dev.CopyD2H(got, sigBuf, 0); err != nil {
		t.Fatal(err)
	}
	want := fam.SequenceSignatures(eligible).Vals
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("signature word %d (perm %d, column %d) = %#x, want %#x",
				i, i/len(eligible), i%len(eligible), got[i], want[i])
		}
	}

	cfg.GPU = true
	cfg.Plan.BudgetWords = env.budget
	var st Stats
	dev2 := gpusim.MustNew(gpusim.K20Config())
	pairs, err := lshDeviceFilter(dev2, sched.NewLedger(dev2, nil), seqs, cfg, prm, &st)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := lshPairsHost(seqs, cfg, prm)
	if len(pairs) != len(host) {
		t.Fatalf("split-budget device filter found %d candidates, host %d", len(pairs), len(host))
	}
	for p := range host {
		if !pairs[p] {
			a, b := p.unpack()
			t.Fatalf("host pair (%d,%d) missing from the split-budget device filter", a, b)
		}
	}
}

// TestLSHLaunchesIndependentOfPermutations: the device filter launches one
// signature kernel per stage-A span and one band-key kernel per stage-B
// span, so quadrupling the permutation count leaves its launch count alone.
func TestLSHLaunchesIndependentOfPermutations(t *testing.T) {
	seqs := testMetagenome(t, 80)
	launches := map[int]int64{}
	for _, bands := range []int{64, 256} {
		cfg := lshConfig(bands, 1)
		_, prm, err := resolveFilter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.GPU = true
		dev := gpusim.MustNew(gpusim.K20Config())
		var st Stats
		if _, err := lshDeviceFilter(dev, sched.NewLedger(dev, nil), seqs, cfg, prm, &st); err != nil {
			t.Fatal(err)
		}
		if st.LSHPlan.Batches != 2 {
			t.Fatalf("%dx1: %d stage spans, want one per stage", bands, st.LSHPlan.Batches)
		}
		launches[bands] = dev.Metrics().KernelLaunches
	}
	if launches[64] != launches[256] {
		t.Fatalf("kernel launches depend on the permutation count: 64x1 %d, 256x1 %d",
			launches[64], launches[256])
	}
}

// FuzzLSHCandidates is the banded filter's oracle: for any sequence set,
// the host filter at the default shape pairs two sequences exactly when
// they share a band key under LSHShape.BandKeys, the per-sequence path the
// resident serving index buckets on.
func FuzzLSHCandidates(f *testing.F) {
	f.Add("MKVLITGAGSGIGLEAARQLA", "GKVLITGAGSGIGLEAARQFA", "MSTNPKPQRKTKRNTNRRPQD")
	f.Add("AAAAAAAAAAAAAAAA", "AAAAAAAAAAAAAAAA", "CCCCCCCCCCCCCCCC")
	f.Add("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ", "APKYIAKQRQISFVKSHFSRQ", "")
	cfg := lshConfig(0, 0)
	shape, err := ResolveLSHShape(cfg)
	if err != nil {
		f.Fatal(err)
	}
	fam := shape.Family()
	f.Fuzz(func(t *testing.T, a, b, c string) {
		var seqs []seq.Sequence
		var keys [][]uint32 // per sequence; nil when it has no shingle
		for i, s := range []string{a, b, c} {
			if s == "" {
				continue
			}
			seqs = append(seqs, seq.Sequence{ID: string(rune('a' + i)), Residues: []byte(s)})
			var k []uint32
			if set := ShingleSet([]byte(s), cfg.MinExactMatch); len(set) > 0 {
				k = shape.BandKeys(fam, set)
			}
			keys = append(keys, k)
		}
		got, _ := lshPairsHost(seqs, cfg, shape)
		want := 0
		for i := range seqs {
			for j := i + 1; j < len(seqs); j++ {
				share := false
				for band := range keys[i] {
					if keys[j] != nil && keys[i][band] == keys[j][band] {
						share = true
						break
					}
				}
				if share {
					want++
				}
				if got[makePair(int32(i), int32(j))] != share {
					t.Fatalf("pair (%d,%d): filter emitted %v, shared band key %v", i, j, !share, share)
				}
			}
		}
		if len(got) != want {
			t.Fatalf("filter emitted %d pairs, %d share a band key", len(got), want)
		}
	})
}
