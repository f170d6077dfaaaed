package align

import "testing"

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
