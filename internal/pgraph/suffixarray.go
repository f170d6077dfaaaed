package pgraph

// Full suffix-array machinery: radix prefix doubling (Manber–Myers with
// counting sorts, O(n log n)) and Kasai's linear-time LCP.
// Sequence separators are given unique symbols below every residue, so no
// match ever crosses a sequence boundary — the property a generalized
// suffix tree gives the original pGraph.

// buildSuffixArray sorts all suffixes of the symbol sequence and returns the
// suffix array with its inverse permutation (rank[sa[j]] == j). Symbols are
// arbitrary int32s; suffix order is lexicographic on them, a suffix
// ordering before every longer suffix it is a prefix of.
//
// With the suffixes ranked by their first k symbols, ranking them by the
// pair (rank[i], rank[i+k]) ranks them by their first 2k. Each round orders
// by the second key in one linear pass, then by the first with one stable
// counting sort over the dense ranks. Rounds stop as soon as every rank is
// distinct, which is at most bits.Len(n) of them.
func buildSuffixArray(sym []int32) (sa, rank []int32) {
	n := len(sym)
	sa = make([]int32, n)
	rank = make([]int32, n)
	if n == 0 {
		return sa, rank
	}
	spare := make([]int32, n)
	cnt := make([]int32, max(n, 1<<16))

	// Round 0 orders the suffixes by their first symbol: two 16-bit LSD
	// counting-sort passes over the symbol's order-preserving unsigned image.
	for i := range sa {
		sa[i] = int32(i)
	}
	src, dst := sa, spare
	for _, shift := range [...]uint{0, 16} {
		c := cnt[:1<<16]
		clear(c)
		for _, i := range src {
			c[(uint32(sym[i])^1<<31)>>shift&0xFFFF]++
		}
		prefixSums(c)
		for _, i := range src {
			d := (uint32(sym[i]) ^ 1<<31) >> shift & 0xFFFF
			dst[c[d]] = i
			c[d]++
		}
		src, dst = dst, src
	}
	r := int32(0) // highest rank
	rank[sa[0]] = 0
	for j := 1; j < n; j++ {
		if sym[sa[j]] != sym[sa[j-1]] {
			r++
		}
		rank[sa[j]] = r
	}

	// Every suffix no longer than k is fully ranked, so while ranks repeat
	// k < n holds.
	for k := 1; int(r) < n-1; k *= 2 {
		// Second key: the suffixes with no symbol at i+k come first, then
		// every i whose i+k appears in sa's current order.
		p := 0
		for i := n - k; i < n; i++ {
			spare[p] = int32(i)
			p++
		}
		for _, s := range sa {
			if int(s) >= k {
				spare[p] = s - int32(k)
				p++
			}
		}
		// First key: a stable counting sort on rank, from spare into sa.
		c := cnt[:r+1]
		clear(c)
		for _, x := range rank {
			c[x]++
		}
		prefixSums(c)
		for _, i := range spare {
			x := rank[i]
			sa[c[x]] = i
			c[x]++
		}
		// Re-rank into spare, which is free again.
		second := func(i int32) int32 {
			if int(i)+k < n {
				return rank[int(i)+k]
			}
			return -1
		}
		r = 0
		spare[sa[0]] = 0
		for j := 1; j < n; j++ {
			a, b := sa[j-1], sa[j]
			if rank[a] != rank[b] || second(a) != second(b) {
				r++
			}
			spare[b] = r
		}
		rank, spare = spare, rank
	}
	return sa, rank
}

// prefixSums turns counts into exclusive prefix sums in place: each bucket's
// first output slot.
func prefixSums(c []int32) {
	sum := int32(0)
	for i, x := range c {
		c[i] = sum
		sum += x
	}
}

// computeLCP returns Kasai's LCP array: lcp[i] is the common-prefix length
// of suffixes sa[i-1] and sa[i] (lcp[0] = 0). rank is sa's inverse
// permutation. Separator symbols are unique, so common prefixes never extend
// across sequence boundaries.
func computeLCP(sym, sa, rank []int32) []int32 {
	n := len(sym)
	lcp := make([]int32, n)
	h := 0
	for i := 0; i < n; i++ {
		p := rank[i]
		if p == 0 {
			h = 0
			continue
		}
		j := int(sa[p-1])
		for i+h < n && j+h < n && sym[i+h] == sym[j+h] {
			h++
		}
		lcp[p] = int32(h)
		if h > 0 {
			h--
		}
	}
	return lcp
}
