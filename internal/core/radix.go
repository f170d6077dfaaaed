package core

// Radix digits of sortTuples: 11 bits (2,048 counters) each, three over the
// owner (11+11+10 bits) then six over the key (5×11+9 bits), least
// significant first.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
	ownerDigits  = 3
	radixDigits  = ownerDigits + 6
)

// radixDigit returns digit d of the (key, owner) sort order: digits
// 0..ownerDigits-1 index the owner, the rest the key.
func radixDigit(t tuple, d int) uint32 {
	if d < ownerDigits {
		return t.owner >> (d * radixBits) & radixMask
	}
	return uint32(t.key>>((d-ownerDigits)*radixBits)) & radixMask
}

// sortTuples orders tuples by (key, owner) with an LSD radix sort over
// 11-bit digits. One read of the input counts every digit's histogram; a
// digit every tuple shares (say the high owner digits when owners are small,
// or every digit of a run of equal tuples) is skipped, since a stable pass on
// it moves nothing. Small digits keep the per-pass counter work (clear and
// prefix sum over 2,048 buckets) below the tuple moves even for the ~2K-tuple
// streams of a pass-1 trial, while a 16-bit digit's 65,536 counters would
// dwarf them; radix keeps the real (not just simulated) aggregation linear at
// full experiment scale, where a comparison sort's constant factors would
// dominate the CPU side.
func sortTuples(ts []tuple) {
	n := len(ts)
	if n < 64 {
		insertionSortTuples(ts)
		return
	}
	sc := getRadixScratch(n)
	defer radixPool.Put(sc)
	hist := &sc.hist
	*hist = [radixDigits][radixBuckets]int32{}
	for _, t := range ts {
		hist[0][t.owner&radixMask]++
		hist[1][t.owner>>radixBits&radixMask]++
		hist[2][t.owner>>(2*radixBits)]++
		hist[3][t.key&radixMask]++
		hist[4][t.key>>radixBits&radixMask]++
		hist[5][t.key>>(2*radixBits)&radixMask]++
		hist[6][t.key>>(3*radixBits)&radixMask]++
		hist[7][t.key>>(4*radixBits)&radixMask]++
		hist[8][t.key>>(5*radixBits)]++
	}

	src, dst := ts, sc.buf[:n]
	for d := range hist {
		counts := &hist[d]
		if counts[radixDigit(ts[0], d)] == int32(n) {
			continue // every tuple shares this digit
		}
		sum := int32(0)
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for _, t := range src {
			k := radixDigit(t, d)
			dst[counts[k]] = t
			counts[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
}

func insertionSortTuples(ts []tuple) {
	for i := 1; i < len(ts); i++ {
		v := ts[i]
		j := i
		for j > 0 && tupleGreater(ts[j-1], v) {
			ts[j] = ts[j-1]
			j--
		}
		ts[j] = v
	}
}

func tupleGreater(a, b tuple) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.owner > b.owner
}
