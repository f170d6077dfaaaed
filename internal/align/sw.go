package align

// Params configures Smith–Waterman alignment. Affine gaps: opening a gap
// costs GapOpen, each further position GapExtend (both positive penalties).
type Params struct {
	GapOpen   int
	GapExtend int
}

// DefaultParams returns the conventional BLOSUM62 pairing (11, 1).
func DefaultParams() Params { return Params{GapOpen: 11, GapExtend: 1} }

// Result describes a local alignment.
type Result struct {
	Score int
	// AStart/AEnd and BStart/BEnd delimit the aligned regions (half-open).
	AStart, AEnd int
	BStart, BEnd int
	// Matches and Length give the identity statistics of the alignment path.
	Matches int
	Length  int
}

// Identity returns the fraction of identical residues along the alignment.
func (r Result) Identity() float64 {
	if r.Length == 0 {
		return 0
	}
	return float64(r.Matches) / float64(r.Length)
}

// ScoreOnly computes the optimal local alignment score of a and b with
// linear memory (two rows of the Gotoh recurrence), looking both residues
// up by letter on every cell. It is the reference that ScoreCodes, the
// scorer every verification path runs, is tested against.
func ScoreOnly(a, b []byte, p Params) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	n := len(b)
	h := make([]int, n+1) // H[i-1][j] rolling
	e := make([]int, n+1) // E[i][j]: gap in a
	for j := range e {
		e[j] = negInf
	}
	best := 0
	for i := 1; i <= len(a); i++ {
		diag := 0 // H[i-1][j-1]
		f := negInf
		for j := 1; j <= n; j++ {
			e[j] = max(e[j]-p.GapExtend, h[j]-p.GapOpen-p.GapExtend)
			f = max(f-p.GapExtend, h[j-1]-p.GapOpen-p.GapExtend)
			score := diag + Score(a[i-1], b[j-1])
			if score < 0 {
				score = 0
			}
			score = max(score, e[j], f)
			if score < 0 {
				score = 0
			}
			diag = h[j]
			h[j] = score
			if score > best {
				best = score
			}
		}
	}
	return best
}

// Scratch holds the DP row and the query profile ScoreCodes reuses across
// calls; the zero value is ready to use.
type Scratch struct {
	row  []cell
	prof [256]int32
}

// cell is one column of the DP row: H[i][j] and E[i][j] of the last row swept.
type cell struct{ h, e int32 }

// negInf starts the gap recurrences: it loses every max against a real
// score, and one gap extension below it still fits an int32.
const negInf = -1 << 30

// ScoreCodes is ScoreOnly over residue codes in the query-profile form of
// Nguyen & Lavenier. The table is a flat alphabet×alphabet matrix of int32
// scores stored as uint32 words, codes x, y at x·alphabet+y; every code of a
// and b must be below alphabet. For each residue of a, its table row is
// copied into a 256-entry profile, which the byte codes of b index with no
// bounds check, and sweepRow advances the DP by one row over b, keeping its
// loop state in registers; H and E share one interleaved row.
// Clamps and tie order are ScoreOnly's, so over Encode and Blosum62Table it
// returns ScoreOnly's score (every intermediate fits an int32: after the
// first max, gap scores are bounded below by -(GapOpen+2·GapExtend)).
func ScoreCodes(a, b []byte, table []uint32, alphabet int, p Params, s *Scratch) int32 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if cap(s.row) < len(b) {
		s.row = make([]cell, len(b))
	}
	// row[j] holds column j+1 of the DP; column 0 is H = 0 throughout.
	row := s.row[:len(b)]
	for j := range row {
		row[j] = cell{0, negInf}
	}
	gapExt, gapOpenExt := int32(p.GapExtend), int32(p.GapOpen+p.GapExtend)
	width := min(alphabet, len(s.prof)) // byte codes never reach column 256
	var best int32
	for _, ca := range a {
		base := int(ca) * alphabet
		for y, w := range table[base : base+width] {
			s.prof[y] = int32(w)
		}
		best = sweepRow(row, b, &s.prof, gapExt, gapOpenExt, best)
	}
	return best
}

// sweepRow advances row from DP row i-1 to row i for the query residue whose
// profile is prof, and returns the larger of best and every H of row i. It
// is not inlined so that its few live values, not ScoreCodes', hold the
// registers.
//
//go:noinline
func sweepRow(row []cell, b []byte, prof *[256]int32, gapExt, gapOpenExt, best int32) int32 {
	row = row[:len(b)]
	var diag, left int32 // H[i-1][j-1] and H[i][j-1]
	var f int32 = negInf
	for j, cb := range b {
		h, e := row[j].h, row[j].e
		e = max(e-gapExt, h-gapOpenExt)
		f = max(f-gapExt, left-gapOpenExt)
		left = max(diag+prof[cb], 0, e, f)
		diag = h
		row[j] = cell{left, e}
		best = max(best, left)
	}
	return best
}

// Align computes the optimal local alignment with full traceback. Memory is
// O(len(a)·len(b)); use ScoreCodes for bulk screening.
func Align(a, b []byte, p Params) Result {
	if len(a) == 0 || len(b) == 0 {
		return Result{}
	}
	m, n := len(a), len(b)
	idx := func(i, j int) int { return i*(n+1) + j }
	h := make([]int32, (m+1)*(n+1))
	eArr := make([]int32, (m+1)*(n+1))
	fArr := make([]int32, (m+1)*(n+1))
	for j := 0; j <= n; j++ {
		eArr[idx(0, j)] = negInf
	}
	for i := 0; i <= m; i++ {
		fArr[idx(i, 0)] = negInf
	}
	best, bi, bj := int32(0), 0, 0
	for i := 1; i <= m; i++ {
		eArr[idx(i, 0)] = negInf
		for j := 1; j <= n; j++ {
			e := max(eArr[idx(i, j-1)]-int32(p.GapExtend), h[idx(i, j-1)]-int32(p.GapOpen+p.GapExtend))
			f := max(fArr[idx(i-1, j)]-int32(p.GapExtend), h[idx(i-1, j)]-int32(p.GapOpen+p.GapExtend))
			s := h[idx(i-1, j-1)] + int32(Score(a[i-1], b[j-1]))
			v := max(0, s, e, f)
			h[idx(i, j)] = v
			eArr[idx(i, j)] = e
			fArr[idx(i, j)] = f
			if v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	res := Result{Score: int(best), AEnd: bi, BEnd: bj}
	// Traceback from the maximum to the first zero cell.
	i, j := bi, bj
	for i > 0 && j > 0 && h[idx(i, j)] > 0 {
		v := h[idx(i, j)]
		switch {
		case v == h[idx(i-1, j-1)]+int32(Score(a[i-1], b[j-1])):
			if a[i-1] == b[j-1] {
				res.Matches++
			}
			res.Length++
			i--
			j--
		case v == eArr[idx(i, j)]:
			// gap in a: walk left while extending
			for j > 0 && h[idx(i, j)] == eArr[idx(i, j)] &&
				eArr[idx(i, j)] == eArr[idx(i, j-1)]-int32(p.GapExtend) {
				res.Length++
				j--
			}
			res.Length++
			j--
		default:
			for i > 0 && h[idx(i, j)] == fArr[idx(i, j)] &&
				fArr[idx(i, j)] == fArr[idx(i-1, j)]-int32(p.GapExtend) {
				res.Length++
				i--
			}
			res.Length++
			i--
		}
	}
	res.AStart, res.BStart = i, j
	return res
}
