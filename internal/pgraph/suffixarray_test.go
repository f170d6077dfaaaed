package pgraph

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"gpclust/internal/seq"
)

// refSuffixArray is the comparison-sort prefix doubling buildSuffixArray
// replaced, kept as its oracle: O(n log² n) with library sorting, int64
// ranks, one sort.Slice per round.
func refSuffixArray(sym []int32) []int32 {
	n := len(sym)
	sa := make([]int32, n)
	rank := make([]int64, n)
	for i := 0; i < n; i++ {
		sa[i] = int32(i)
		rank[i] = int64(sym[i])
	}
	tmp := make([]int64, n)

	for k := 1; ; k *= 2 {
		key := func(i int32) (int64, int64) {
			hi := rank[i]
			lo := int64(-1 << 62)
			if int(i)+k < n {
				lo = rank[int(i)+k]
			}
			return hi, lo
		}
		sort.Slice(sa, func(a, b int) bool {
			ha, la := key(sa[a])
			hb, lb := key(sa[b])
			if ha != hb {
				return ha < hb
			}
			return la < lb
		})
		// Re-rank.
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			hp, lp := key(sa[i-1])
			hc, lc := key(sa[i])
			tmp[sa[i]] = tmp[sa[i-1]]
			if hp != hc || lp != lc {
				tmp[sa[i]]++
			}
		}
		copy(rank, tmp)
		if rank[sa[n-1]] == int64(n-1) {
			break
		}
	}
	return sa
}

// checkSuffixArray compares buildSuffixArray with the oracle bit for bit,
// checks rank is sa's inverse, and checks every Kasai LCP against the
// per-pair lcp.
func checkSuffixArray(t *testing.T, label string, sym []int32) {
	t.Helper()
	sa, rank := buildSuffixArray(sym)
	if len(sym) == 0 { // the oracle indexes sa[0]; buildSuffixIndex never asks for it
		if len(sa) != 0 || len(rank) != 0 {
			t.Fatalf("%s: %d suffixes of an empty sequence", label, len(sa))
		}
		return
	}
	want := refSuffixArray(sym)
	if len(sa) != len(want) || len(rank) != len(sym) {
		t.Fatalf("%s: %d suffixes and %d ranks, want %d", label, len(sa), len(rank), len(want))
	}
	for j := range want {
		if sa[j] != want[j] {
			t.Fatalf("%s: sa[%d] = %d, oracle %d", label, j, sa[j], want[j])
		}
		if rank[sa[j]] != int32(j) {
			t.Fatalf("%s: rank[sa[%d]] = %d, want %d", label, j, rank[sa[j]], j)
		}
	}
	x := &suffixIndex{sym: sym}
	lcp := computeLCP(sym, sa, rank)
	for j := 1; j < len(sa); j++ {
		if got, want := int(lcp[j]), x.lcp(sa[j-1], sa[j]); got != want {
			t.Fatalf("%s: lcp[%d] = %d, want %d", label, j, got, want)
		}
	}
}

func TestSuffixArrayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	seps := make([]int32, 300)
	for i := range seps {
		seps[i] = int32(-1 - i)
	}
	same := make([]string, 10)
	for i := range same {
		same[i] = "MKVLAACDEFGHIKLMNPQRSTVWY"
	}
	wide := make([]int32, 3_000)
	for i := range wide {
		wide[i] = int32(rng.Uint32())
	}
	narrow := make([]int32, 3_000)
	for i := range narrow {
		narrow[i] = int32(rng.Intn(5)) - 2
	}
	// The 1,200-ORF benchmark corpus at seed 7: families of ten members
	// descended from 210-residue ancestors.
	cfg := seq.DefaultMetagenomeConfig(1200)
	cfg.MinFamily, cfg.MaxFamily = 10, 10
	cfg.AncestorLenMin, cfg.AncestorLenMax = 210, 210
	cfg.Seed = 7
	mg, err := seq.GenerateMetagenome(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		label string
		sym   []int32
	}{
		{"n=1", []int32{7}},
		{"n=2 equal", []int32{3, 3}},
		{"n=2 falling", []int32{5, -5}},
		{"all separators", seps},
		// One 500-residue run of one letter takes the most rounds.
		{"one letter", buildSuffixIndex(mkSeqs(strings.Repeat("A", 500))).sym},
		{"ten identical sequences", buildSuffixIndex(mkSeqs(same...)).sym},
		{"random full-width", wide},
		{"random narrow with negatives", narrow},
		{"seed-7 corpus", buildSuffixIndex(mg.Seqs).sym},
	}
	for _, tc := range cases {
		checkSuffixArray(t, tc.label, tc.sym)
	}
}

// FuzzSuffixArray checks buildSuffixArray and computeLCP against the
// oracle. alpha 0 reads full-width little-endian int32 symbols; any other
// value reads one symbol per byte from an alphabet of alpha letters centred
// on zero, so ties, negatives and long repeats are common.
func FuzzSuffixArray(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte(strings.Repeat("a", 64)))
	f.Add(uint8(2), []byte("abracadabra"))
	f.Add(uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add(uint8(20), []byte("MKVLAACDEFMKVLAACDEFMKVLA"))

	f.Fuzz(func(t *testing.T, alpha uint8, raw []byte) {
		var sym []int32
		if alpha == 0 {
			for i := 0; i+4 <= len(raw); i += 4 {
				sym = append(sym, int32(binary.LittleEndian.Uint32(raw[i:])))
			}
		} else {
			for _, b := range raw {
				sym = append(sym, int32(b%alpha)-int32(alpha/2))
			}
		}
		checkSuffixArray(t, "fuzz", sym)
	})
}
