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
// align.ScoreOnly on the host. This is the enforcement of the
// bit-identical-edge-set contract at its root.
func FuzzSWBatch(f *testing.F) {
	f.Add([]byte("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQV"), uint8(3), uint16(64))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAWWWWWWWWWWVVVVVVVVVV"), uint8(5), uint16(0))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 250, 251}, 40), uint8(2), uint16(900))
	f.Fuzz(func(t *testing.T, data []byte, nseq uint8, extra uint16) {
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
		// Both residue layouts must reproduce the host scores: byte image
		// and packed image decoded in place.
		modes := []Config{
			{Align: prm},
			{Align: prm, Packed: true},
		}

		for _, bin := range []bool{true, false} {
			order := binPairs(enc, pairs, bin)
			for _, cfg := range modes {
				// Budget always admits the costliest pair under the bulkiest
				// (byte) layout; extra varies how many pairs share a batch.
				w := 2 * seqWords(make([]byte, longest))
				budget := swTableLen + 5 + w + int(extra)
				plans, err := planSWBatches(enc, pairs, order, budget, layoutFor(cfg.Packed))
				if err != nil {
					t.Fatal(err)
				}
				devSeq := gpusim.MustNew(gpusim.SmallConfig())
				table, err := uploadSWTable(devSeq)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]int32, len(pairs))
				var data, out []uint32
				led := sched.NewLedger(devSeq, nil)
				for _, p := range plans {
					data, out, err = runOneSWBatch(devSeq, led, table, p, enc, pairs, order, cfg, got, data, out)
					if err != nil {
						t.Fatal(err)
					}
				}
				table.Free()
				for k, idx := range order {
					a, b := pairs[idx].unpack()
					want := align.ScoreOnly(seqs[a].Residues, seqs[b].Residues, prm)
					if int(got[k]) != want {
						t.Fatalf("bin=%v packed=%v pair (%d,%d): sequential device score %d, ScoreOnly %d",
							bin, cfg.Packed, a, b, got[k], want)
					}
				}
				if err := devSeq.LeakCheck(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
