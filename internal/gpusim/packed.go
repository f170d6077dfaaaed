package gpusim

import "fmt"

// Packed device images. Residue codes and adjacency values are small
// integers — protein residues fit 5 bits (21-letter alphabet), DNA 2 bits,
// vertex ids whatever the graph needs — yet the buffers shipped over PCIe
// carry them one per 32-bit word (or one per byte for residues). Packing
// them bit-continuously before the H2D copy cuts the bandwidth-proportional
// part of the transfer by the same ratio while leaving results untouched:
// the device kernels that consume an image (internal/thrust's fused
// shingling kernels and the SW kernel) extract each value in place before
// any arithmetic, so every downstream bit is identical. These helpers
// define the host-side image format.
//
// Layout: value i occupies bits [i·bits, (i+1)·bits) of a little-endian
// bit stream stored in uint32 words — bit b lives in word b/32 at position
// b%32. A value may straddle a word boundary. The tail of the last word is
// zero-padded, which keeps packing deterministic and images comparable.

// PackedLen returns the number of 32-bit words a packed image of n values
// at the given bit width occupies.
func PackedLen(n, bits int) int {
	if n <= 0 {
		return 0
	}
	return (n*bits + 31) / 32
}

// MinBits returns the smallest bit width able to represent every value in
// vals, at least 1 (an all-zero stream still needs one bit per value).
func MinBits(vals []uint32) int {
	var maxV uint32
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	bits := 1
	for bits < 32 && uint64(maxV) >= 1<<uint(bits) {
		bits++
	}
	return bits
}

// PackBits packs vals into a bit-continuous little-endian word stream at
// the given width. It panics if bits is outside [1,32] or a value does not
// fit — packing is always driven by MinBits or a fixed alphabet width, so
// an overflow is a programming error, not an input condition.
func PackBits(vals []uint32, bits int) []uint32 {
	if bits < 1 || bits > 32 {
		panic(fmt.Sprintf("gpusim: PackBits width %d outside [1,32]", bits))
	}
	out := make([]uint32, PackedLen(len(vals), bits))
	for i, v := range vals {
		if bits < 32 && v >= 1<<uint(bits) {
			panic(fmt.Sprintf("gpusim: PackBits value %d does not fit %d bits", v, bits))
		}
		bit := i * bits
		word, off := bit/32, uint(bit%32)
		out[word] |= v << off
		if off+uint(bits) > 32 {
			out[word+1] |= v >> (32 - off)
		}
	}
	return out
}

// UnpackBits expands a packed image back to one value per word: the
// host-side inverse of PackBits that the packed format is fuzz-tested
// against.
func UnpackBits(packed []uint32, n, bits int) []uint32 {
	if bits < 1 || bits > 32 {
		panic(fmt.Sprintf("gpusim: UnpackBits width %d outside [1,32]", bits))
	}
	out := make([]uint32, n)
	mask := uint32(0xFFFFFFFF)
	if bits < 32 {
		mask = 1<<uint(bits) - 1
	}
	for i := range out {
		bit := i * bits
		word, off := bit/32, uint(bit%32)
		v := packed[word] >> off
		if off+uint(bits) > 32 {
			v |= packed[word+1] << (32 - off)
		}
		out[i] = v & mask
	}
	return out
}
