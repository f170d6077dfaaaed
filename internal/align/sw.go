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
	const negInf = -1 << 30
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

// Scratch holds the two DP rows ScoreCodes reuses across calls; the zero
// value is ready to use.
type Scratch struct{ h, e []int32 }

// ScoreCodes is ScoreOnly over residue codes in the query-profile form of
// Nguyen & Lavenier: each code of a selects its row of the flat
// alphabet×alphabet table (int32 scores as uint32 words, codes x, y at
// x·alphabet+y) once, and the inner loop indexes that row by the code of b.
// Clamps and tie order are ScoreOnly's, so over Encode and Blosum62Table it
// returns ScoreOnly's score (every intermediate fits an int32: after the
// first max, gap scores are bounded below by -(GapOpen+2·GapExtend)).
func ScoreCodes(a, b []byte, table []uint32, alphabet int, p Params, s *Scratch) int32 {
	const negInf = -1 << 30
	if cap(s.h) < len(b) {
		s.h, s.e = make([]int32, len(b)), make([]int32, len(b))
	}
	// h[j], e[j] hold column j+1 of the DP; column 0 is H = 0 throughout.
	h, e := s.h[:len(b)], s.e[:len(b)]
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

// Align computes the optimal local alignment with full traceback. Memory is
// O(len(a)·len(b)); use ScoreCodes for bulk screening.
func Align(a, b []byte, p Params) Result {
	if len(a) == 0 || len(b) == 0 {
		return Result{}
	}
	const negInf = -1 << 30
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
