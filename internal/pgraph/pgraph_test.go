package pgraph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"gpclust/internal/graph"
	"gpclust/internal/seq"
)

func mkSeqs(bodies ...string) []seq.Sequence {
	out := make([]seq.Sequence, len(bodies))
	for i, b := range bodies {
		out[i] = seq.Sequence{ID: string(rune('a' + i)), Residues: []byte(b)}
	}
	return out
}

func TestSuffixIndexSorted(t *testing.T) {
	seqs := mkSeqs("ACDACD", "CDAC", "WWW")
	idx := buildSuffixIndex(seqs)
	// Every position (residues + separators) is present exactly once.
	want := 0
	for _, s := range seqs {
		want += s.Len() + 1
	}
	if len(idx.sa) != want {
		t.Fatalf("suffix array has %d entries, want %d", len(idx.sa), want)
	}
	for i := 1; i < len(idx.sa); i++ {
		if idx.compareSuffixes(idx.sa[i-1], idx.sa[i]) > 0 {
			t.Fatalf("suffix array out of order at %d", i)
		}
	}
}

func TestSuffixArrayMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		sym := make([]int32, n)
		for i := range sym {
			sym[i] = int32(rng.Intn(4)) // small alphabet: many ties
		}
		sa, _ := buildSuffixArray(sym)
		naive := make([]int32, n)
		for i := range naive {
			naive[i] = int32(i)
		}
		less := func(a, b int32) bool {
			for int(a) < n && int(b) < n {
				if sym[a] != sym[b] {
					return sym[a] < sym[b]
				}
				a++
				b++
			}
			return int(a) == n && int(b) < n
		}
		sort.Slice(naive, func(i, j int) bool { return less(naive[i], naive[j]) })
		for i := range sa {
			if sa[i] != naive[i] {
				t.Fatalf("trial %d: sa[%d] = %d, naive %d", trial, i, sa[i], naive[i])
			}
		}
	}
}

func TestLCPMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(150)
		sym := make([]int32, n)
		for i := range sym {
			sym[i] = int32(rng.Intn(3))
		}
		sa, rank := buildSuffixArray(sym)
		lcp := computeLCP(sym, sa, rank)
		for i := 1; i < n; i++ {
			a, b := sa[i-1], sa[i]
			want := 0
			for int(a) < n && int(b) < n && sym[a] == sym[b] {
				a++
				b++
				want++
			}
			if int(lcp[i]) != want {
				t.Fatalf("trial %d: lcp[%d] = %d, want %d", trial, i, lcp[i], want)
			}
		}
	}
}

func TestLCPStopsAtBoundary(t *testing.T) {
	// Identical sequences: their suffixes' LCPs must cap at the sequence
	// length, never running through the unique separators.
	seqs := mkSeqs("AAAA", "AAAA")
	idx := buildSuffixIndex(seqs)
	if got := idx.lcp(0, 5); got != 4 {
		t.Fatalf("lcp(full copies) = %d, want 4 (capped at boundary)", got)
	}
	for i := 1; i < len(idx.sa); i++ {
		if idx.lcps[i] > 4 {
			t.Fatalf("lcp[%d] = %d crosses a sequence boundary", i, idx.lcps[i])
		}
	}
}

func TestCandidatePairsSharedSubstring(t *testing.T) {
	// a and b share a 12-mer; c is unrelated.
	shared := "WCWHMKTAYIAK"
	seqs := mkSeqs(
		"PPPPP"+shared+"GGGGG",
		"KKKKK"+shared+"TTTTT",
		"RNDEQRNDEQRNDEQRNDEQ",
	)
	idx := buildSuffixIndex(seqs)
	pairs := idx.candidatePairs(12, 8)
	if !pairs[makePair(0, 1)] {
		t.Fatal("pair (a,b) sharing a 12-mer not found")
	}
	if pairs[makePair(0, 2)] || pairs[makePair(1, 2)] {
		t.Fatal("unrelated sequence produced candidate pairs")
	}
}

func TestCandidatePairsMinMatch(t *testing.T) {
	// shared substring of length 8 < minMatch 12: no candidates
	shared := "WCWHMKTA"
	seqs := mkSeqs("PPPPP"+shared+"GGGGG", "KKKKK"+shared+"TTTTT")
	idx := buildSuffixIndex(seqs)
	if pairs := idx.candidatePairs(12, 8); len(pairs) != 0 {
		t.Fatalf("%d candidate pairs from an 8-mer with minMatch=12", len(pairs))
	}
	if pairs := idx.candidatePairs(8, 8); !pairs[makePair(0, 1)] {
		t.Fatal("pair not found with minMatch=8")
	}
}

func TestCandidatePairsDeepMatch(t *testing.T) {
	// A 60-residue exact match — far beyond any small seed window — must be
	// found with minMatch up to its full length (the full suffix array has
	// no depth cap).
	core := strings.Repeat("MKTAYIAKQR", 6)
	seqs := mkSeqs("PP"+core+"GG", "KK"+core+"TT")
	idx := buildSuffixIndex(seqs)
	if pairs := idx.candidatePairs(60, 8); !pairs[makePair(0, 1)] {
		t.Fatal("60-residue exact match not found at minMatch=60")
	}
	if pairs := idx.candidatePairs(61, 8); len(pairs) != 0 {
		t.Fatal("61-residue match reported from a 60-residue core")
	}
}

func TestPairKey(t *testing.T) {
	p := makePair(7, 3)
	a, b := p.unpack()
	if a != 3 || b != 7 {
		t.Fatalf("unpack = (%d,%d), want (3,7)", a, b)
	}
	if makePair(3, 7) != p {
		t.Fatal("pair key not order-independent")
	}
}

func TestBuildValidation(t *testing.T) {
	seqs := mkSeqs("MKTAYIAKQRMKTAYIAKQR")
	cfg := DefaultConfig()
	cfg.MinExactMatch = 2
	if _, _, err := Build(seqs, cfg); err == nil {
		t.Fatal("tiny MinExactMatch accepted")
	}
	cfg = DefaultConfig()
	cfg.WindowCap = 0
	if _, _, err := Build(seqs, cfg); err == nil {
		t.Fatal("WindowCap 0 accepted")
	}
	cfg = DefaultConfig()
	bad := mkSeqs("MKTA*IAKQR")
	if _, _, err := Build(bad, cfg); err == nil {
		t.Fatal("invalid residues accepted")
	}
}

// TestBuildRejectsNegativeSizes: a negative batch budget or worker count,
// or a lane count verification does not run, is a configuration error of
// Build on either backend and of NewVerifier, never a silent fallback to
// the largest budget that fits, one lane or the default pool.
func TestBuildRejectsNegativeSizes(t *testing.T) {
	seqs := mkSeqs("MKTAYIAKQRMKTAYIAKQR", "MKTAYIAKQRMKTAYIAKQR")
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"batch words auto-tuned", func(c *Config) { c.GPU, c.AutoTune, c.Plan.BudgetWords = true, true, -1 },
			"negative Plan.BudgetWords"},
		{"batch words fixed", func(c *Config) { c.GPU, c.Plan.BudgetWords = true, -1 }, "negative Plan.BudgetWords"},
		{"pipelined lanes", func(c *Config) { c.GPU, c.Plan.Lanes = true, 2 }, "Plan.Lanes 2 outside 0..1"},
		{"negative lanes", func(c *Config) { c.Plan.Lanes = -1 }, "Plan.Lanes -1 outside 0..1"},
		{"workers host", func(c *Config) { c.Workers = -1 }, "negative Workers"},
		{"workers gpu", func(c *Config) { c.GPU, c.Workers = true, -2 }, "negative Workers"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		_, _, err := Build(seqs, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Build returned %v, want an error containing %q", tc.name, err, tc.want)
		}
		cfg.Filter = FilterLSH
		if _, err := NewVerifier(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewVerifier returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestScoreRateValidation: a MinScorePerResidue that no integer limit
// represents — NaN, an infinity, a negative rate — is rejected by Build on
// either backend and by NewVerifier; 0 and a finite rate above every
// reachable score are valid (they accept every pair and none).
func TestScoreRateValidation(t *testing.T) {
	seqs := mkSeqs("MKTAYIAKQRMKTAYIAKQR", "MKTAYIAKQRMKTAYIAKQR")
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, -math.SmallestNonzeroFloat64} {
		for _, gpu := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.MinScorePerResidue, cfg.GPU = rate, gpu
			if _, _, err := Build(seqs, cfg); err == nil || !strings.Contains(err.Error(), "MinScorePerResidue") {
				t.Errorf("Build(rate %g, gpu %v) returned %v, want a MinScorePerResidue error", rate, gpu, err)
			}
		}
		cfg := DefaultConfig()
		cfg.Filter, cfg.MinScorePerResidue = FilterLSH, rate
		if _, err := NewVerifier(cfg); err == nil || !strings.Contains(err.Error(), "MinScorePerResidue") {
			t.Errorf("NewVerifier(rate %g) returned %v, want a MinScorePerResidue error", rate, err)
		}
	}
	for _, tc := range []struct {
		rate  float64
		edges int64
	}{{0, 1}, {1e300, 0}} {
		cfg := DefaultConfig()
		cfg.MinScorePerResidue = tc.rate
		_, st, err := Build(seqs, cfg)
		if err != nil || st.Edges != tc.edges {
			t.Errorf("Build(rate %g) = %d edges, %v; want %d edges", tc.rate, st.Edges, err, tc.edges)
		}
	}
}

// TestAcceptLimitMatchesFloatComparison: for finite rates >= 0, an integer
// score passes score >= acceptLimit(rate, minLen) exactly when it passes
// the float comparison acceptance used to make, including at the limit
// and one below it; scoreLimit caps the limit to int32.
func TestAcceptLimitMatchesFloatComparison(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rates := []float64{0, 0.1, 1.2, 1.25, 6.0, 1.0 / 3, 7.7, 1e9, 1e300}
	for range 200 {
		rates = append(rates, r.Float64()*8)
	}
	for _, rate := range rates {
		for _, minLen := range []int{0, 1, 3, 10, 97, 210, 1000, 123457} {
			lim := acceptLimit(rate, minLen)
			for _, s := range []int64{lim - 1, lim, lim + 1, 0, math.MaxInt32} {
				if s < math.MinInt32 || s > math.MaxInt32 {
					continue
				}
				if got, want := s >= lim, float64(int32(s)) >= rate*float64(minLen); got != want {
					t.Fatalf("rate %g minLen %d score %d: limit %d says %v, float comparison %v",
						rate, minLen, s, lim, got, want)
				}
			}
			cfg := Config{MinScorePerResidue: rate}
			if got := cfg.scoreLimit(minLen); int64(got) != min(lim, math.MaxInt32) {
				t.Fatalf("rate %g minLen %d: scoreLimit %d, limit %d", rate, minLen, got, lim)
			}
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	g, st, err := Build(nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || st.Candidates != 0 {
		t.Fatalf("empty build: %d vertices, %d candidates", g.NumVertices(), st.Candidates)
	}
}

// End to end: a synthetic metagenome's homology graph must be dense inside
// planted families and sparse across super-families.
func TestBuildSeparatesFamilies(t *testing.T) {
	cfg := seq.DefaultMetagenomeConfig(250)
	cfg.Seed = 5
	m, err := seq.GenerateMetagenome(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, st, err := Build(m.Seqs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates == 0 || st.Edges == 0 {
		t.Fatalf("no candidates/edges: %+v", st)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	intra, intraPoss := 0, 0
	crossSuper := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) > u {
				continue
			}
			fv, fu := m.Family[v], m.Family[u]
			sv, su := m.SuperFamily[v], m.SuperFamily[u]
			if fv >= 0 && fv == fu {
				intra++
			} else if sv < 0 || su < 0 || sv != su {
				crossSuper++
			}
		}
	}
	// Count possible intra-family pairs.
	famSize := map[int32]int{}
	for _, f := range m.Family {
		if f >= 0 {
			famSize[f]++
		}
	}
	for _, s := range famSize {
		intraPoss += s * (s - 1) / 2
	}
	recall := float64(intra) / float64(intraPoss)
	if recall < 0.5 {
		t.Errorf("intra-family edge recall = %.2f, want ≥ 0.5", recall)
	}
	if float64(crossSuper) > 0.05*float64(g.NumEdges()) {
		t.Errorf("%d cross-super edges of %d total; want < 5%%", crossSuper, g.NumEdges())
	}
}

// TestBuildDeterministicAcrossWorkers: the host backend's graph and its
// virtual-clock figures are the same for every worker count and every
// GOMAXPROCS. The clock prices operations, not cores, so Workers only moves
// wall time.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	cfg := seq.DefaultMetagenomeConfig(120)
	m, err := seq.GenerateMetagenome(cfg)
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) (*graph.Graph, Stats) {
		c := DefaultConfig()
		c.Workers = workers
		g, st, err := Build(m.Seqs, c)
		if err != nil {
			t.Fatal(err)
		}
		return g, st
	}
	g1, st1 := build(1)
	check := func(label string, g *graph.Graph, st Stats) {
		t.Helper()
		if g1.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: edge count %d, want %d", label, g.NumEdges(), g1.NumEdges())
		}
		if !slices.Equal(g1.Offsets, g.Offsets) || !slices.Equal(g1.Adj, g.Adj) {
			t.Fatalf("%s: adjacency differs from the 1-worker build", label)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"FilterNs", st.FilterNs, st1.FilterNs},
			{"AlignNs", st.AlignNs, st1.AlignNs},
			{"TotalNs", st.TotalNs, st1.TotalNs},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Errorf("%s: %s = %v, want %v (1 worker)", label, f.name, f.got, f.want)
			}
		}
	}
	// Workers 0 means GOMAXPROCS.
	for _, w := range []int{4, 0} {
		g, st := build(w)
		check(fmt.Sprintf("Workers %d", w), g, st)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		g, st := build(0)
		check(fmt.Sprintf("Workers 0 at GOMAXPROCS %d", procs), g, st)
	}
}

func BenchmarkBuild250(b *testing.B) {
	cfg := seq.DefaultMetagenomeConfig(250)
	m, err := seq.GenerateMetagenome(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(m.Seqs, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuffixArray(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sym := make([]int32, 50_000)
	for i := range sym {
		sym[i] = int32(rng.Intn(20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa, rank := buildSuffixArray(sym)
		computeLCP(sym, sa, rank)
	}
}
