package pgraph

import (
	"bytes"
	"testing"

	"gpclust/internal/align"
	"gpclust/internal/gpusim"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
)

// FuzzSWBatch is the oracle for the whole GPU verification stack: random
// sequence batches go through binning, Algorithm-2-style batch packing and
// the device kernel, and every score must equal a per-pair
// align.ScoreOnly on the host — or, in Build's capped launch, that score
// capped at the pair's acceptance limit (rate/20 points per residue of the
// shorter sequence). This is the enforcement of the bit-identical-edge-set
// contract at its root.
func FuzzSWBatch(f *testing.F) {
	f.Add([]byte("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQV"), uint8(3), uint16(64), uint8(24))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAWWWWWWWWWWVVVVVVVVVV"), uint8(5), uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 250, 251}, 40), uint8(2), uint16(900), uint8(24))
	f.Add(bytes.Repeat([]byte{17, 17, 4, 18}, 60), uint8(1), uint16(300), uint8(120))
	f.Fuzz(func(t *testing.T, data []byte, nseq uint8, extra uint16, rate uint8) {
		n := 2 + int(nseq%6)
		const maxLen = 300
		seqs := make([]seq.Sequence, n)
		chunk := min(len(data)/n, maxLen)
		longest := 0
		for i := range seqs {
			body := data[i*chunk : (i+1)*chunk]
			res := make([]byte, len(body))
			for k, b := range body {
				res[k] = align.Alphabet[int(b)%align.AlphabetSize]
			}
			seqs[i] = seq.Sequence{ID: "f", Residues: res}
			longest = max(longest, len(res))
		}
		var pairs []pairKey
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				pairs = append(pairs, makePair(int32(a), int32(b)))
			}
		}
		enc := encodeSeqs(seqs)
		prm := align.DefaultParams()
		capped := Config{MinScorePerResidue: float64(rate) / 20}

		for _, bin := range []bool{true, false} {
			order := binPairs(enc, pairs, bin)
			// Both residue layouts must reproduce the host scores: byte image
			// and packed image decoded in place; each runs exact and capped.
			for _, packed := range []bool{false, true} {
				for _, limit := range []func(int) int32{nil, capped.scoreLimit} {
					cfg := Config{Align: prm}
					ly := layoutFor(packed)
					// Budget always admits the costliest pair under the bulkiest
					// (byte) layout; extra varies how many pairs share a batch.
					w := 2 * seqWords(make([]byte, longest))
					budget := swTableLen + 5 + w + int(extra)
					plans, err := planSWBatches(enc, pairs, order, budget, ly)
					if err != nil {
						t.Fatal(err)
					}
					devSeq := gpusim.MustNew(gpusim.SmallConfig())
					table, err := uploadSWTable(devSeq)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]int32, len(pairs))
					env := &swEnv{dev: devSeq, led: sched.NewLedger(devSeq, nil), table: table, enc: enc,
						pairs: pairs, order: order, cfg: cfg, ly: ly, limit: limit, scores: got}
					for _, p := range plans {
						if err := env.runOneSWBatch(p); err != nil {
							t.Fatal(err)
						}
					}
					table.Free()
					for k, idx := range order {
						a, b := pairs[idx].unpack()
						want := align.ScoreOnly(seqs[a].Residues, seqs[b].Residues, prm)
						if limit != nil {
							want = min(want, int(limit(min(len(seqs[a].Residues), len(seqs[b].Residues)))))
						}
						if int(got[k]) != want {
							t.Fatalf("bin=%v packed=%v capped=%v pair (%d,%d): sequential device score %d, want %d",
								bin, packed, limit != nil, a, b, got[k], want)
						}
					}
					if err := devSeq.LeakCheck(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	})
}
