package align

import (
	"math/rand"
	"testing"
)

// FuzzScoreCodes checks the code-level scorer against ScoreOnly, the
// letter-level oracle: both operands are arbitrary byte strings (unknown
// letters score as X on both sides), encoded once and scored over
// Blosum62Table under fuzzed gap penalties.
func FuzzScoreCodes(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(11), uint8(1))
	f.Add([]byte{}, []byte("MKT"), uint8(11), uint8(1))
	f.Add([]byte("W"), []byte("W"), uint8(11), uint8(1))
	f.Add([]byte("W"), []byte("MKTAYIAKQR"), uint8(0), uint8(0))
	f.Add([]byte("XXXXXXXX"), []byte("XXXX"), uint8(3), uint8(2))
	f.Add([]byte("WWWWCCCCWWWW"), []byte("WWWWCCCCKKKWWWW"), uint8(11), uint8(1))
	f.Add([]byte("mktayiakqr*zb"), []byte("MKTAYIAKQRQISF"), uint8(5), uint8(7))
	f.Fuzz(func(t *testing.T, a, b []byte, open, ext uint8) {
		p := Params{GapOpen: int(open % 64), GapExtend: int(ext % 16)}
		got := ScoreCodes(Encode(a), Encode(b), Blosum62Table, AlphabetSize, p, new(Scratch))
		if want := ScoreOnly(a, b, p); int(got) != want {
			t.Fatalf("ScoreCodes(%q, %q, %+v) = %d, ScoreOnly %d", a, b, p, got, want)
		}
	})
}

// TestEncode: letters map to their Alphabet index in either case, and
// every other byte to X.
func TestEncode(t *testing.T) {
	got := Encode([]byte("ArX*zv"))
	const x = byte(AlphabetSize - 1)
	want := []byte{0, 1, x, x, x, 19}
	if string(got) != string(want) {
		t.Fatalf("Encode = %v, want %v", got, want)
	}
	for i := range Alphabet {
		for j := range Alphabet {
			if s := int32(Blosum62Table[i*AlphabetSize+j]); int(s) != Blosum62[i][j] {
				t.Fatalf("Blosum62Table[%d·%d+%d] = %d, want %d", i, AlphabetSize, j, s, Blosum62[i][j])
			}
		}
	}
}

// refScoreCodes is the query-profile loop ScoreCodes ran before its row
// kernel, kept as the oracle for arbitrary tables: each code of a selects
// its table row, the inner loop indexes that row by the code of b, and H and
// E live in separate rows.
func refScoreCodes(a, b []byte, table []uint32, alphabet int, p Params) int32 {
	const negInf = -1 << 30
	// h[j], e[j] hold column j+1 of the DP; column 0 is H = 0 throughout.
	h, e := make([]int32, len(b)), make([]int32, len(b))
	for j := range h {
		h[j] = 0
		e[j] = negInf
	}
	gapExt, gapOpenExt := int32(p.GapExtend), int32(p.GapOpen+p.GapExtend)
	var best int32
	for _, ca := range a {
		prof := table[int(ca)*alphabet:]
		var diag, left int32 // H[i-1][j-1] and H[i][j-1]
		var f int32 = negInf
		for j, cb := range b {
			hj := h[j]
			ej := max(e[j]-gapExt, hj-gapOpenExt)
			e[j] = ej
			f = max(f-gapExt, left-gapOpenExt)
			v := diag + int32(prof[cb])
			if v < 0 {
				v = 0
			}
			v = max(v, ej, f)
			if v < 0 {
				v = 0
			}
			diag = hj
			h[j] = v
			left = v
			if v > best {
				best = v
			}
		}
	}
	return best
}

// randomTable returns an alphabet×alphabet table of scores in [-64, 64]
// drawn from seed.
func randomTable(alphabet int, seed int64) []uint32 {
	r := rand.New(rand.NewSource(seed))
	table := make([]uint32, alphabet*alphabet)
	for i := range table {
		table[i] = uint32(int32(r.Intn(129) - 64))
	}
	return table
}

// toCodes maps arbitrary bytes to codes below alphabet.
func toCodes(raw []byte, alphabet int) []byte {
	codes := make([]byte, len(raw))
	for i, c := range raw {
		codes[i] = byte(int(c) % alphabet)
	}
	return codes
}

// FuzzScoreCodesTable checks ScoreCodes against refScoreCodes over random
// tables: an alphabet of 1–256 codes, scores in ±64, codes below the
// alphabet, fuzzed gap penalties, and operands of any length (the seeds
// cover empty, length 1, odd and even lengths, and alphabet 256).
func FuzzScoreCodesTable(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(20), int64(1), uint8(11), uint8(1))
	f.Add([]byte{}, []byte{3, 1}, uint8(20), int64(1), uint8(11), uint8(1))
	f.Add([]byte{3, 1}, []byte{}, uint8(20), int64(1), uint8(11), uint8(1))
	f.Add([]byte{7}, []byte{7}, uint8(20), int64(2), uint8(11), uint8(1))
	f.Add([]byte{7}, []byte{1, 2, 3, 4, 5, 6, 7}, uint8(0), int64(3), uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6}, []byte{6, 5, 4, 3, 2, 1}, uint8(5), int64(4), uint8(3), uint8(2))
	f.Add([]byte{9, 200, 255, 0, 17}, []byte{255, 0, 200, 9}, uint8(255), int64(5), uint8(11), uint8(1))
	f.Add([]byte("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"), []byte("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"),
		uint8(255), int64(6), uint8(5), uint8(7))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, alpha uint8, seed int64, open, ext uint8) {
		alphabet := int(alpha) + 1
		table := randomTable(alphabet, seed)
		a, b := toCodes(rawA, alphabet), toCodes(rawB, alphabet)
		p := Params{GapOpen: int(open % 64), GapExtend: int(ext % 16)}
		got := ScoreCodes(a, b, table, alphabet, p, new(Scratch))
		if want := refScoreCodes(a, b, table, alphabet, p); got != want {
			t.Fatalf("ScoreCodes(%v, %v, alphabet %d, seed %d, %+v) = %d, refScoreCodes %d",
				a, b, alphabet, seed, p, got, want)
		}
	})
}

// TestScoreCodesScratchReuse reuses one Scratch, from its zero value, across
// calls whose b grows, shrinks and becomes empty, and whose query, table and
// alphabet change: every score must equal a fresh-Scratch call, so no stale
// H/E cell or profile row leaks from one call into the next.
func TestScoreCodesScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	residues := func(n, alphabet int) []byte {
		codes := make([]byte, n)
		for i := range codes {
			codes[i] = byte(r.Intn(alphabet))
		}
		return codes
	}
	hot := residues(90, AlphabetSize)
	steps := []struct {
		a, b     []byte
		table    []uint32
		alphabet int
	}{
		{hot, hot, Blosum62Table, AlphabetSize}, // high H everywhere
		{residues(41, AlphabetSize), hot[:30], Blosum62Table, AlphabetSize},
		{residues(7, AlphabetSize), residues(200, AlphabetSize), Blosum62Table, AlphabetSize},
		{residues(12, AlphabetSize), nil, Blosum62Table, AlphabetSize},
		{residues(33, 256), residues(64, 256), randomTable(256, 3), 256},
		{residues(20, 4), residues(150, 4), randomTable(4, 4), 4},
		{hot[:1], hot[:1], Blosum62Table, AlphabetSize},
		{residues(60, AlphabetSize), residues(90, AlphabetSize), Blosum62Table, AlphabetSize},
	}
	var s Scratch
	p := DefaultParams()
	for i, st := range steps {
		got := ScoreCodes(st.a, st.b, st.table, st.alphabet, p, &s)
		want := ScoreCodes(st.a, st.b, st.table, st.alphabet, p, new(Scratch))
		if got != want {
			t.Fatalf("step %d: reused Scratch scored %d, fresh Scratch %d", i, got, want)
		}
	}
}
