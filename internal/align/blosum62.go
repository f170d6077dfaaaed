// Package align implements the Smith–Waterman local alignment algorithm
// (Smith & Waterman 1981) with affine gap penalties over the BLOSUM62
// substitution matrix — the "optimality-guaranteeing Smith-Waterman
// alignment algorithm" the pGraph homology-detection phase applies to
// candidate sequence pairs (Section I-A).
package align

import "fmt"

// Alphabet is the 20 standard amino acids plus X (unknown), in the order
// used by the substitution matrix.
const Alphabet = "ARNDCQEGHILKMFPSTWYVX"

// AlphabetSize is the number of residue codes.
const AlphabetSize = len(Alphabet)

// residueIndex maps ASCII residue letters to matrix indices, -1 if invalid.
var residueIndex [256]int8

func init() {
	for i := range residueIndex {
		residueIndex[i] = -1
	}
	for i, r := range Alphabet {
		residueIndex[r] = int8(i)
		residueIndex[r+'a'-'A'] = int8(i)
	}
	for ia, row := range Blosum62 {
		for ib, s := range row {
			Blosum62Table[ia*AlphabetSize+ib] = uint32(int32(s))
		}
	}
}

// Blosum62 is the standard BLOSUM62 substitution matrix over Alphabet
// (half-bit scores as published by Henikoff & Henikoff 1992). The final row
// and column score X (unknown residue) against everything.
var Blosum62 = [AlphabetSize][AlphabetSize]int{
	//        A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V   X
	/* A */ {4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0, -1},
	/* R */ {-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3, -1},
	/* N */ {-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3, -1},
	/* D */ {-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3, -1},
	/* C */ {0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -1},
	/* Q */ {-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2, -1},
	/* E */ {-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2, -1},
	/* G */ {0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3, -1},
	/* H */ {-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3, -1},
	/* I */ {-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3, -1},
	/* L */ {-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1, -1},
	/* K */ {-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2, -1},
	/* M */ {-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1, -1},
	/* F */ {-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1, -1},
	/* P */ {-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2, -1},
	/* S */ {1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2, -1},
	/* T */ {0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0, -1},
	/* W */ {-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3, -1},
	/* Y */ {-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1, -1},
	/* V */ {0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4, -1},
	/* X */ {-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1},
}

// Score returns the BLOSUM62 score of aligning residues a and b (ASCII).
// Unknown letters score as X.
func Score(a, b byte) int {
	ia, ib := residueIndex[a], residueIndex[b]
	if ia < 0 {
		ia = int8(AlphabetSize - 1)
	}
	if ib < 0 {
		ib = int8(AlphabetSize - 1)
	}
	return Blosum62[ia][ib]
}

// Blosum62Table is Blosum62 flattened row-major into int32 scores stored as
// uint32 words: the score of codes a and b sits at a·AlphabetSize+b. It is
// the table ScoreCodes reads on the host and the one pgraph uploads for the
// device kernel.
var Blosum62Table = make([]uint32, AlphabetSize*AlphabetSize)

// Encode returns the residue codes of s: each letter's index in Alphabet
// (lowercase accepted), with any other byte coded as X, as Score treats it.
func Encode(s []byte) []byte {
	codes := make([]byte, len(s))
	for i, r := range s {
		c := residueIndex[r]
		if c < 0 {
			c = int8(AlphabetSize - 1)
		}
		codes[i] = byte(c)
	}
	return codes
}

// ValidateSequence reports the first non-residue character in s, if any.
func ValidateSequence(s []byte) error {
	for i, c := range s {
		if residueIndex[c] < 0 {
			return fmt.Errorf("align: invalid residue %q at position %d", c, i)
		}
	}
	return nil
}
