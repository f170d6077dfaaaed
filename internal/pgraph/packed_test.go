package pgraph

import (
	"testing"

	"gpclust/internal/align"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
)

// TestResidueBitsFitAlphabet pins the packed image width to the alphabet:
// every BLOSUM62 residue code (and the zero pad) must fit residueBits, or
// PackBits would panic mid-build on real input.
func TestResidueBitsFitAlphabet(t *testing.T) {
	if align.AlphabetSize > 1<<residueBits {
		t.Fatalf("%d residue codes do not fit %d bits", align.AlphabetSize, residueBits)
	}
	// The width is also minimal — one bit fewer could not hold the alphabet.
	if align.AlphabetSize <= 1<<(residueBits-1) {
		t.Fatalf("residueBits = %d wastes a bit: %d codes fit %d bits",
			residueBits, align.AlphabetSize, residueBits-1)
	}
}

// TestPackedShrinksH2D compares full builds across the two residue
// layouts: identical edge sets, and a strictly smaller host→device byte
// total for the packed image.
func TestPackedShrinksH2D(t *testing.T) {
	seqs := testMetagenome(t, 120)
	run := func(packed bool) (*graph.Graph, Stats) {
		cfg := DefaultConfig()
		cfg.GPU = true
		cfg.Plan.BudgetWords = 6_000
		cfg.Plan.Packed = packed
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		g, st, err := Build(seqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g, st
	}
	byteG, byteSt := run(false)
	packedG, packedSt := run(true)
	graphsEqual(t, "packed layout", byteG, packedG)
	if packedSt.H2DBytes >= byteSt.H2DBytes {
		t.Errorf("packed build moved %d H2D bytes, byte layout %d — packing must shrink the upload",
			packedSt.H2DBytes, byteSt.H2DBytes)
	}
	for name, st := range map[string]Stats{"byte": byteSt, "packed": packedSt} {
		if st.H2DNs < st.H2DSetupNs+st.H2DVolumeNs-1e-6 || st.H2DNs > st.H2DSetupNs+st.H2DVolumeNs+1e-6 {
			t.Errorf("%s: H2D time %.0f is not setup %.0f + volume %.0f",
				name, st.H2DNs, st.H2DSetupNs, st.H2DVolumeNs)
		}
	}
}
