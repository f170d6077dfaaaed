package pgraph

import (
	"runtime"
	"slices"
	"testing"

	"gpclust/internal/align"
	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
)

// verifierTestPairs builds every cross pair of the first n sequences — a
// dense request set exercising length binning and batch planning.
func verifierTestPairs(n int) []Pair {
	var ps []Pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ps = append(ps, Pair{A: int32(i), B: int32(j)})
		}
	}
	return ps
}

// TestVerifierScoresMatchScoreOnly: both backends return align.ScoreOnly's
// exact scores in input order, and Accept applies Build's threshold.
func TestVerifierScoresMatchScoreOnly(t *testing.T) {
	seqs := testMetagenome(t, 30)
	for _, gpu := range []bool{false, true} {
		name := "host"
		cfg := DefaultConfig()
		cfg.Filter = FilterLSH
		if gpu {
			name = "gpu"
			cfg.GPU = true
			cfg.GPUBatchWords = 2_000 // force several batches
		}
		v, err := NewVerifier(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, s := range seqs {
			idx, err := v.Add(s)
			if err != nil {
				t.Fatalf("%s: Add %d: %v", name, i, err)
			}
			if idx != i {
				t.Fatalf("%s: Add returned index %d, want %d", name, idx, i)
			}
		}
		reqs := verifierTestPairs(len(seqs))
		scores, batches, err := v.Score(reqs)
		if err != nil {
			t.Fatalf("%s: Score: %v", name, err)
		}
		if gpu && batches < 2 {
			t.Fatalf("%s: budget %d produced %d batches, want several", name, cfg.GPUBatchWords, batches)
		}
		for i, p := range reqs {
			sa, sb := seqs[p.A].Residues, seqs[p.B].Residues
			want := int32(align.ScoreOnly(sa, sb, cfg.Align))
			if scores[i] != want {
				t.Fatalf("%s: pair (%d,%d) scored %d, want %d", name, p.A, p.B, scores[i], want)
			}
			minLen := min(len(sa), len(sb))
			wantAccept := float64(want) >= cfg.MinScorePerResidue*float64(minLen)
			if v.Accept(scores[i], int(p.A), int(p.B)) != wantAccept {
				t.Fatalf("%s: Accept disagrees with Build's threshold on pair (%d,%d)", name, p.A, p.B)
			}
		}
		if gpu {
			if err := func() error { v.Close(); return v.dev.LeakCheck() }(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestVerifierFaultLadder: injected kernel faults are retried and the
// scores stay bit-identical; Recovery records what it cost.
func TestVerifierFaultLadder(t *testing.T) {
	seqs := testMetagenome(t, 20)
	cfg := DefaultConfig()
	cfg.Filter = FilterLSH
	cfg.GPU = true
	cfg.GPUBatchWords = 2_000
	cfg.Device = gpusim.MustNew(gpusim.K20Config())
	sch, err := faults.Parse("kernel op=1 count=2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Device.SetFaultInjector(faults.NewInjector(sch))
	v, err := NewVerifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for _, s := range seqs {
		if _, err := v.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	scores, _, err := v.Score(verifierTestPairs(len(seqs)))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range verifierTestPairs(len(seqs)) {
		want := int32(align.ScoreOnly(seqs[p.A].Residues, seqs[p.B].Residues, cfg.Align))
		if scores[i] != want {
			t.Fatalf("pair (%d,%d) scored %d after faults, want %d", p.A, p.B, scores[i], want)
		}
	}
	if v.Recovery().KernelRetries == 0 {
		t.Fatalf("injected kernel faults left no retries in Recovery: %s", v.Recovery())
	}
}

// TestVerifierDegradesWhenTableUploadFails: a device whose mallocs fail
// persistently cannot host the resident table; construction degrades to
// permanent host scoring instead of failing, and scores stay exact.
func TestVerifierDegradesWhenTableUploadFails(t *testing.T) {
	seqs := testMetagenome(t, 10)
	cfg := DefaultConfig()
	cfg.Filter = FilterLSH
	cfg.GPU = true
	cfg.FaultRetries = 2
	cfg.Device = gpusim.MustNew(gpusim.K20Config())
	sch, err := faults.Parse("malloc op=1 count=1000000")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Device.SetFaultInjector(faults.NewInjector(sch))
	v, err := NewVerifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if !v.Degraded() {
		t.Fatal("persistent malloc failure did not degrade the Verifier")
	}
	for _, s := range seqs {
		if _, err := v.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	reqs := verifierTestPairs(len(seqs))
	scores, batches, err := v.Score(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if batches != 0 {
		t.Fatalf("degraded Score reported %d device batches", batches)
	}
	for i, p := range reqs {
		want := int32(align.ScoreOnly(seqs[p.A].Residues, seqs[p.B].Residues, cfg.Align))
		if scores[i] != want {
			t.Fatalf("pair (%d,%d) scored %d degraded, want %d", p.A, p.B, scores[i], want)
		}
	}
}

// TestVerifierScoreAnyWorkers: host scoring runs on Config.Workers, and
// Score returns bit-equal scores and batch counts, and charges the same
// virtual time, for Workers 1, 4 and 0, and for 0 under GOMAXPROCS 1 and
// 3 — on the host backend and on a degraded Verifier. A negative Workers
// is rejected.
func TestVerifierScoreAnyWorkers(t *testing.T) {
	seqs := testMetagenome(t, 24)
	reqs := verifierTestPairs(len(seqs))
	cases := []struct {
		name           string
		workers, procs int // procs > 0: run under GOMAXPROCS(procs)
	}{
		{"Workers=1", 1, 0}, {"Workers=4", 4, 0}, {"Workers=0", 0, 0},
		{"Workers=0,GOMAXPROCS=1", 0, 1}, {"Workers=0,GOMAXPROCS=3", 0, 3},
	}
	procs := runtime.GOMAXPROCS(0)
	for _, degraded := range []bool{false, true} {
		path := map[bool]string{false: "host", true: "degraded"}[degraded]
		score := func(workers int) (scores []int32, batches int, ns float64) {
			cfg := DefaultConfig()
			cfg.Filter = FilterLSH
			cfg.Workers = workers
			if degraded {
				cfg.GPU = true
				cfg.FaultRetries = 2
				cfg.Device = gpusim.MustNew(gpusim.K20Config())
				sch, err := faults.Parse("malloc op=1 count=1000000")
				if err != nil {
					t.Fatal(err)
				}
				cfg.Device.SetFaultInjector(faults.NewInjector(sch))
			}
			v, err := NewVerifier(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			if v.Degraded() != degraded {
				t.Fatalf("%s: Degraded() = %v", path, v.Degraded())
			}
			for _, s := range seqs {
				if _, err := v.Add(s); err != nil {
					t.Fatal(err)
				}
			}
			var t0 float64
			if dev := v.Device(); dev != nil {
				t0 = dev.HostTime()
			}
			scores, batches, err = v.Score(reqs)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if dev := v.Device(); dev != nil {
				ns = dev.HostTime() - t0
			}
			return scores, batches, ns
		}
		var want []int32
		var wantBatches int
		var wantNs float64
		for i, c := range cases {
			got, batches, ns := func() ([]int32, int, float64) {
				if c.procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
				}
				return score(c.workers)
			}()
			if runtime.GOMAXPROCS(0) != procs {
				t.Fatalf("%s %s: GOMAXPROCS left at %d, want %d", path, c.name, runtime.GOMAXPROCS(0), procs)
			}
			if i == 0 {
				for k, p := range reqs {
					if w := int32(align.ScoreOnly(seqs[p.A].Residues, seqs[p.B].Residues, DefaultConfig().Align)); got[k] != w {
						t.Fatalf("%s %s: pair (%d,%d) scored %d, want %d", path, c.name, p.A, p.B, got[k], w)
					}
				}
				if degraded && ns <= 0 {
					t.Fatalf("degraded Score charged %g virtual ns", ns)
				}
				want, wantBatches, wantNs = got, batches, ns
				continue
			}
			if !slices.Equal(got, want) || batches != wantBatches || ns != wantNs {
				t.Fatalf("%s %s: %d batches, %g virtual ns, scores equal %v; %s read %d batches, %g ns",
					path, c.name, batches, ns, slices.Equal(got, want), cases[0].name, wantBatches, wantNs)
			}
		}
	}

	cfg := DefaultConfig()
	cfg.Filter = FilterLSH
	cfg.Workers = -1
	if _, err := NewVerifier(cfg); err == nil {
		t.Fatal("NewVerifier accepted Workers -1")
	}
}

// TestVerifierTruncate: truncation drops the tail, re-adding reuses the
// indices, and out-of-range or degenerate pairs are rejected.
func TestVerifierTruncate(t *testing.T) {
	seqs := testMetagenome(t, 6)
	cfg := DefaultConfig()
	cfg.Filter = FilterLSH
	v, err := NewVerifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		if _, err := v.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	v.Truncate(4)
	if v.Len() != 4 {
		t.Fatalf("Len after Truncate(4) = %d", v.Len())
	}
	if _, _, err := v.Score([]Pair{{A: 0, B: 5}}); err == nil {
		t.Fatal("Score accepted a truncated index")
	}
	if _, _, err := v.Score([]Pair{{A: 2, B: 2}}); err == nil {
		t.Fatal("Score accepted a self pair")
	}
	idx, err := v.Add(seqs[5])
	if err != nil {
		t.Fatal(err)
	}
	if idx != 4 {
		t.Fatalf("Add after Truncate returned %d, want 4", idx)
	}
	scores, _, err := v.Score([]Pair{{A: 0, B: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := int32(align.ScoreOnly(seqs[0].Residues, seqs[5].Residues, cfg.Align))
	if scores[0] != want {
		t.Fatalf("score after Truncate+Add = %d, want %d", scores[0], want)
	}
	// No-op truncations.
	v.Truncate(-1)
	v.Truncate(10)
	if v.Len() != 5 {
		t.Fatalf("no-op Truncate changed Len to %d", v.Len())
	}
}

// TestResolveLSHShape: only FilterLSH resolves; the exact filter (whose
// batch candidate set is order-dependent) and unknown names are rejected.
func TestResolveLSHShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = FilterLSH
	s, err := ResolveLSHShape(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Bands != DefaultLSHBands || s.Rows != DefaultLSHRows {
		t.Fatalf("default shape = %+v", s)
	}
	for _, f := range []string{"", FilterExact, "cascade", "bogus"} {
		c := DefaultConfig()
		c.Filter = f
		if _, err := ResolveLSHShape(c); err == nil {
			t.Fatalf("filter %q resolved an LSH shape", f)
		}
	}
}

// TestIncrementalLSHMatchesBatchFilter is the equivalence the serving index
// rests on: inserting sequences one at a time into resident band-bucket
// maps (via ShingleSet/BandKeys) emits exactly the pair set the batch
// filter computes over the whole corpus, for two banded shapes.
func TestIncrementalLSHMatchesBatchFilter(t *testing.T) {
	seqs := testMetagenome(t, 40)
	for _, setting := range lshSettings {
		cfg := lshConfig(setting.bands, setting.rows)
		shape, err := ResolveLSHShape(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := lshPairsHost(seqs, cfg, shape)

		// Incremental replay: one insert at a time against resident buckets.
		fam := shape.Family()
		got := make(map[pairKey]bool)
		buckets := make([]map[uint32][]int32, shape.Bands)
		for b := range buckets {
			buckets[b] = make(map[uint32][]int32)
		}
		for i, s := range seqs {
			set := ShingleSet(s.Residues, cfg.MinExactMatch)
			if len(set) == 0 {
				continue // ineligible, exactly like the batch filter
			}
			for b, k := range shape.BandKeys(fam, set) {
				for _, other := range buckets[b][k] {
					got[makePair(other, int32(i))] = true
				}
				buckets[b][k] = append(buckets[b][k], int32(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: incremental emitted %d pairs, batch %d", setting.label, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				a, b := p.unpack()
				t.Fatalf("%s: batch pair (%d,%d) missing from incremental set", setting.label, a, b)
			}
		}
	}
}
