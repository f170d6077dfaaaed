package thrust

import (
	"fmt"

	"gpclust/internal/gpusim"
)

// SortPairs64 sorts n records of a 64-bit key (split across keyHi/keyLo
// word buffers, since device words are 32-bit) with a 32-bit value payload,
// ascending by (hi, lo, value) — the thrust::sort_by_key used by the
// GPU-aggregation extension to group shingle tuples on the device instead
// of the CPU, and by the device LSH filter to group band keys. The records
// are reordered for real by an LSD radix sort, value first and the high key
// word last. The cost model charges six 16-bit passes, each streaming every
// record through global memory, whatever digit width and skipped passes the
// host sort uses.
func SortPairs64(d *gpusim.Device, keyHi, keyLo, val *gpusim.Buffer, n int) error {
	return SortPairs64OnStream(d, nil, keyHi, keyLo, val, n)
}

// SortPairs64OnStream is SortPairs64 enqueued on a stream (nil stream =
// synchronous).
func SortPairs64OnStream(d *gpusim.Device, st *gpusim.Stream, keyHi, keyLo, val *gpusim.Buffer, n int) error {
	if n < 0 || n > keyHi.Len() || n > keyLo.Len() || n > val.Len() {
		return fmt.Errorf("thrust: SortPairs64 over %d records with buffers %d/%d/%d",
			n, keyHi.Len(), keyLo.Len(), val.Len())
	}
	if n <= 1 {
		return nil
	}
	radixSortPairs64(keyHi.Words()[:n], keyLo.Words()[:n], val.Words()[:n])

	// Charge radix cost: 6 passes × (read keys+value, write keys+value).
	grid, total := launchGeometry(n)
	d.NextKernelName("sort_pairs64")
	return launch(d, st, grid, blockDim, func(ctx *gpusim.ThreadCtx) {
		gid := ctx.GlobalID()
		count := 0
		for i := gid; i < n; i += total {
			count++
		}
		if count > 0 {
			const passes = 6
			ctx.GlobalRead(keyHi, gid, count*passes, total)
			ctx.GlobalRead(keyLo, gid, count*passes, total)
			ctx.GlobalRead(val, gid, count*passes, total)
			ctx.GlobalWrite(keyHi, gid, count*passes, total)
			ctx.GlobalWrite(keyLo, gid, count*passes, total)
			ctx.GlobalWrite(val, gid, count*passes, total)
			ctx.Ops(count * passes * 6)
		}
	})
}

// radixSortPairs64 reorders the records (hi[i], lo[i], v[i]) ascending by
// (hi, lo, v): an LSD radix sort, least significant digit first, moving the
// three word streams together. Digits are 16 bits wide from 1<<16 records
// up and 8 bits below, where clearing and scanning 1<<16 counters per digit
// would cost more than the records. A digit's histogram does not depend on
// the order earlier passes leave, so one read over the keys counts every
// digit up front. A pass whose digit is the same on every record leaves the
// order as it is and is skipped. The scratch is allocated per call, not
// pooled: a pooled copy of the device LSH filter's band-sort scratch
// (three words per record) stays live between builds and raises their peak
// memory by about a fifth.
func radixSortPairs64(hi, lo, v []uint32) {
	n := len(hi)
	width := uint(16)
	if n < 1<<16 {
		width = 8
	}
	radix := 1 << width
	digits := int(32 / width) // per word
	mask := uint32(radix - 1)

	counts := make([]int32, 3*digits*radix)
	src := [3][]uint32{hi, lo, v}
	dst := [3][]uint32{make([]uint32, n), make([]uint32, n), make([]uint32, n)}
	for word, key := range src {
		histogram(counts[word*digits*radix:(word+1)*digits*radix], key, width)
	}
	for _, word := range [...]int{2, 1, 0} { // v, lo, hi
		for d := range digits {
			shift := uint(d) * width
			c := counts[(word*digits+d)*radix : (word*digits+d+1)*radix]
			key := src[word]
			if c[key[0]>>shift&mask] == int32(n) {
				continue
			}
			sum := int32(0)
			for i, k := range c {
				c[i] = sum
				sum += k
			}
			sh, sl, sv := src[0], src[1], src[2]
			dh, dl, dv := dst[0], dst[1], dst[2]
			for i, w := range key {
				x := w >> shift & mask
				j := c[x]
				c[x]++
				dh[j], dl[j], dv[j] = sh[i], sl[i], sv[i]
			}
			src, dst = dst, src
		}
	}
	if &src[0][0] != &hi[0] {
		copy(hi, src[0])
		copy(lo, src[1])
		copy(v, src[2])
	}
}

// histogram adds every digit of every word of key to c, whose counters for
// the digit at bit width·d sit at c[d<<width:]: four 8-bit digits, or two
// 16-bit digits.
func histogram(c []int32, key []uint32, width uint) {
	if width == 8 {
		c0, c1 := (*[1 << 8]int32)(c[0<<8:]), (*[1 << 8]int32)(c[1<<8:])
		c2, c3 := (*[1 << 8]int32)(c[2<<8:]), (*[1 << 8]int32)(c[3<<8:])
		for _, x := range key {
			c0[uint8(x)]++
			c1[uint8(x>>8)]++
			c2[uint8(x>>16)]++
			c3[x>>24]++
		}
		return
	}
	c0, c1 := (*[1 << 16]int32)(c[0:]), (*[1 << 16]int32)(c[1<<16:])
	for _, x := range key {
		c0[uint16(x)]++
		c1[x>>16]++
	}
}
