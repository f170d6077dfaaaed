package thrust

import (
	"math/rand"
	"testing"

	"gpclust/internal/align"
	"gpclust/internal/gpusim"
)

// swHarness packs sequences and pairs into the kernel's single-buffer
// layout, mirroring what pgraph's batch scheduler does.
type swHarness struct {
	cfg   SWConfig
	image []uint32 // [table | pair records | packed residues]
	seqs  [][]byte // residue codes
}

func packSW(seqs [][]byte, pairs [][2]int, prm align.Params) *swHarness {
	alpha := align.AlphabetSize
	table := make([]uint32, alpha*alpha)
	for ia, row := range align.Blosum62 {
		for ib, s := range row {
			table[ia*alpha+ib] = uint32(int32(s))
		}
	}
	offs := make([]uint32, len(seqs))
	pos := uint32(0)
	for i, s := range seqs {
		offs[i] = pos
		pos += uint32((len(s) + 3) &^ 3) // word-aligned starts
	}
	seqWords := int(pos) / 4
	packed := make([]uint32, seqWords)
	for i, s := range seqs {
		for k, c := range s {
			r := offs[i] + uint32(k)
			packed[r>>2] |= uint32(c) << (8 * (r & 3))
		}
	}
	image := table
	for _, p := range pairs {
		image = append(image, offs[p[0]], uint32(len(seqs[p[0]])), offs[p[1]], uint32(len(seqs[p[1]])))
	}
	image = append(image, packed...)
	return &swHarness{
		cfg: SWConfig{
			NumPairs:  len(pairs),
			Alphabet:  alpha,
			GapOpen:   int32(prm.GapOpen),
			GapExtend: int32(prm.GapExtend),
			TableBase: 0,
			PairBase:  alpha * alpha,
			SeqBase:   alpha*alpha + 4*len(pairs),
			SeqWords:  seqWords,
			ScoreBase: alpha*alpha + 4*len(pairs) + seqWords,
		},
		image: image,
		seqs:  seqs,
	}
}

// runSW uploads the harness image, launches the kernel and returns the
// scores.
func runSW(t testing.TB, d *gpusim.Device, s *gpusim.Stream, h *swHarness) []int32 {
	t.Helper()
	buf, err := d.Malloc(len(h.image) + h.cfg.NumPairs)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	if err := d.CopyH2D(buf, 0, h.image); err != nil {
		t.Fatal(err)
	}
	if err := SWScoreBatch(d, s, buf, h.cfg); err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, h.cfg.NumPairs)
	if err := d.CopyD2H(out, buf, h.cfg.ScoreBase); err != nil {
		t.Fatal(err)
	}
	if s != nil {
		s.Synchronize()
	}
	scores := make([]int32, len(out))
	for i, v := range out {
		scores[i] = int32(v)
	}
	return scores
}

func randCodes(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(align.AlphabetSize))
	}
	return s
}

func decode(codes []byte) []byte {
	r := make([]byte, len(codes))
	for i, c := range codes {
		r[i] = align.Alphabet[c]
	}
	return r
}

// TestSWScoreBatchMatchesScoreOnly is the kernel's oracle: for random
// batches of random-length sequences, every device score must equal
// align.ScoreOnly on the decoded residues.
func TestSWScoreBatchMatchesScoreOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prm := align.DefaultParams()
	d := newDev(t)
	for trial := 0; trial < 5; trial++ {
		nseq := 3 + rng.Intn(6)
		seqs := make([][]byte, nseq)
		for i := range seqs {
			seqs[i] = randCodes(rng, 1+rng.Intn(90))
		}
		var pairs [][2]int
		for a := 0; a < nseq; a++ {
			for b := a + 1; b < nseq; b++ {
				pairs = append(pairs, [2]int{a, b})
			}
		}
		got := runSW(t, d, nil, packSW(seqs, pairs, prm))
		for i, p := range pairs {
			want := align.ScoreOnly(decode(seqs[p[0]]), decode(seqs[p[1]]), prm)
			if int(got[i]) != want {
				t.Fatalf("trial %d pair %v: device score %d, ScoreOnly %d", trial, p, got[i], want)
			}
		}
	}
}

// TestSWScoreBatchOnStream: the stream path must score identically to the
// synchronous path.
func TestSWScoreBatchOnStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prm := align.DefaultParams()
	d := newDev(t)
	seqs := [][]byte{randCodes(rng, 40), randCodes(rng, 64), randCodes(rng, 17)}
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	h := packSW(seqs, pairs, prm)
	syncScores := runSW(t, d, nil, h)
	streamScores := runSW(t, d, d.NewStream(), h)
	for i := range syncScores {
		if syncScores[i] != streamScores[i] {
			t.Fatalf("pair %d: stream score %d != sync %d", i, streamScores[i], syncScores[i])
		}
	}
}

// TestSWScoreBatchEmptySequence: zero-length operands score 0, like
// align.ScoreOnly.
func TestSWScoreBatchEmptySequence(t *testing.T) {
	d := newDev(t)
	seqs := [][]byte{{}, {1, 2, 3, 4, 5}}
	got := runSW(t, d, nil, packSW(seqs, [][2]int{{0, 1}}, align.DefaultParams()))
	if got[0] != 0 {
		t.Fatalf("empty operand scored %d, want 0", got[0])
	}
}

// TestSWScoreBatchValidation: layouts that spill out of the buffer, and
// residue codes wider than a byte, are rejected before any thread runs.
func TestSWScoreBatchValidation(t *testing.T) {
	d := newDev(t)
	buf, err := d.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	wide, err := d.Malloc(257 * 257) // room for a 257-code table
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Free()
	bad := []SWConfig{
		{NumPairs: 1, Alphabet: 0},
		{NumPairs: -1, Alphabet: 21},
		{NumPairs: 1, Alphabet: 21, ScoreBase: 600},             // table alone exceeds 100 words
		{NumPairs: 4, Alphabet: 5, PairBase: 90},                // pair records spill
		{NumPairs: 1, Alphabet: 5, SeqBase: 95, SeqWords: 10},   // residues spill
		{NumPairs: 8, Alphabet: 5, PairBase: 25, ScoreBase: 95}, // scores spill
		{NumPairs: 1, Alphabet: 5, TableBase: -1},               // negative base
		{NumPairs: 1, Alphabet: 5, SeqBits: 9},                  // codes wider than a byte
		{NumPairs: 0, Alphabet: 257, Table: wide},               // alphabet past a byte code
	}
	for i, cfg := range bad {
		if err := SWScoreBatch(d, nil, buf, cfg); err == nil {
			t.Fatalf("case %d: invalid layout accepted", i)
		}
	}
	// A zero-pair launch is a no-op, not an error.
	if err := SWScoreBatch(d, nil, buf, SWConfig{Alphabet: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestSWScoreBatchKernelProfile: the launch must show up under its kernel
// name with compute-bound accounting — the designed contrast with the
// memory-bound shingling path.
func TestSWScoreBatchKernelProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := newDev(t)
	d.EnableProfiling()
	seqs := [][]byte{randCodes(rng, 80), randCodes(rng, 80)}
	runSW(t, d, nil, packSW(seqs, [][2]int{{0, 1}}, align.DefaultParams()))
	recs := d.Profile()
	found := false
	for _, r := range recs {
		if r.Name == "sw_score" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sw_score kernel in profile: %+v", recs)
	}
	m := d.Metrics()
	if m.ComputeTimeNs <= m.MemoryTimeNs {
		t.Fatalf("SW kernel should be compute-bound: compute %.0fns <= memory %.0fns",
			m.ComputeTimeNs, m.MemoryTimeNs)
	}
}
