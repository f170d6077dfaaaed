package pgraph

import (
	"fmt"
	"math/bits"
	"slices"

	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
	"gpclust/internal/obs"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
)

// Candidate-filter backends. Phase 1 of Build is a pluggable filter behind
// Config.Filter: the generalized-suffix-structure exact-match filter stays
// the default and the oracle, and the MinHash/LSH banding filter replaces
// it, trading bounded recall for a near-linear candidate pass (Sunarso et
// al. use LSH instead of the seed filter, not in front of it).
//
// LSH shingles are MinExactMatch-length residue k-mers hashed to 31 bits, so
// at the conservative preset (bucket on every raw shingle) any pair sharing
// an exact match of at least MinExactMatch residues shares a shingle and is
// found: conservative LSH candidates are a superset of the exact filter's
// pairs by construction. Banded settings trade candidates for recall along
// the 1-(1-J^r)^b S-curve, quantified by the bench ablation.

// Filter backend names for Config.Filter ("" means FilterExact).
const (
	FilterExact = "exact"
	FilterLSH   = "lsh"
)

// ConservativeBands is the Config.LSHBands sentinel selecting the
// conservative preset: bucket on every raw shingle instead of banded
// signatures (recall 1 relative to the exact filter, most candidates).
const ConservativeBands = -1

// DefaultLSHBands/DefaultLSHRows are the default banding shape, tuned on the
// 1200-ORF bench corpus to hold ≥ 0.95 edge recall while generating fewer
// candidates than the exact filter (the benchcheck-enforced operating point).
// Homologous ORFs share few of their k-mer shingles (a single conserved
// region among hundreds of windows puts the pair's Jaccard in the low
// percent range), so the S-curve needs rows=1 and many bands: measured on
// the bench corpus, 256×1 holds 0.966 edge recall at 0.97× the exact
// filter's candidate count, while 128×1 drops to 0.91 and 24×1 to 0.53.
const (
	DefaultLSHBands = 256
	DefaultLSHRows  = 1
)

// lshFamilySeed fixes the MinHash permutation family, so the filter output
// is a deterministic function of the input alone.
const lshFamilySeed = 0x5c1517

// lshParams is the resolved banding shape.
type lshParams struct {
	bands, rows  int
	conservative bool
}

// hashes is the permutation-family size the banded shape needs.
func (p lshParams) hashes() int { return p.bands * p.rows }

// resolveFilter validates Config.Filter/LSHBands/LSHRows and resolves the
// banding shape (zero-valued for the exact filter).
func resolveFilter(cfg Config) (string, lshParams, error) {
	f := cfg.Filter
	if f == "" {
		f = FilterExact
	}
	switch f {
	case FilterExact:
		if cfg.LSHBands != 0 || cfg.LSHRows != 0 {
			return "", lshParams{}, fmt.Errorf("pgraph: LSHBands/LSHRows set without Filter %q", FilterLSH)
		}
		return f, lshParams{}, nil
	case FilterLSH:
	default:
		return "", lshParams{}, fmt.Errorf("pgraph: unknown Filter %q", cfg.Filter)
	}
	p := lshParams{bands: cfg.LSHBands, rows: cfg.LSHRows}
	if p.bands == ConservativeBands {
		if p.rows != 0 {
			return "", lshParams{}, fmt.Errorf("pgraph: conservative preset takes no LSHRows, got %d", p.rows)
		}
		return f, lshParams{conservative: true}, nil
	}
	if p.bands == 0 {
		p.bands = DefaultLSHBands
	}
	if p.rows == 0 {
		p.rows = DefaultLSHRows
	}
	if p.bands < 1 || p.rows < 1 {
		return "", lshParams{}, fmt.Errorf("pgraph: invalid LSH shape %d bands × %d rows", p.bands, p.rows)
	}
	return f, p, nil
}

// sortedPairs flattens a candidate set into the deterministic scheduling
// order.
func sortedPairs(set map[pairKey]bool) []pairKey {
	pairs := make([]pairKey, 0, len(set))
	for p := range set {
		pairs = append(pairs, p)
	}
	slices.Sort(pairs)
	return pairs
}

// exactPairSet runs the generalized-suffix-structure filter and prices it:
// suffix construction (prefix-doubling rounds over the symbol stream) plus
// pair generation.
func exactPairSet(seqs []seq.Sequence, cfg Config) (map[pairKey]bool, float64) {
	idx := buildSuffixIndex(seqs)
	set := idx.candidatePairs(cfg.MinExactMatch, cfg.WindowCap)
	// rounds is the pricing bound on prefix-doubling rounds, bits.Len(n),
	// not the count buildSuffixArray executes: it stops as soon as every
	// rank is distinct, and the price must not depend on how soon that is.
	rounds := bits.Len(uint(len(idx.sym)))
	ns := float64(int64(len(idx.sym))*int64(rounds)+int64(len(set))) * FilterNsPerOp
	return set, ns
}

// shingleOne returns the sorted distinct k-length k-mer shingles of one
// residue string (31-bit FNV-1a over the raw residue bytes; nil when the
// string is shorter than k). seen is caller-provided scratch, cleared on
// entry. Both the batch filter and the incremental serving index go through
// this function, so their shingle sets are bit-identical by construction.
func shingleOne(r []byte, k int, seen map[uint32]bool) []uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	if len(r) < k {
		return nil
	}
	clear(seen)
	set := make([]uint32, 0, len(r)-k+1)
	for w := 0; w+k <= len(r); w++ {
		h := uint64(offset64)
		for _, b := range r[w : w+k] {
			h ^= uint64(b)
			h *= prime64
		}
		v := uint32(h^(h>>32)) & 0x7fffffff
		if !seen[v] {
			seen[v] = true
			set = append(set, v)
		}
	}
	slices.Sort(set)
	return set
}

// shingleSets returns, per sequence, its sorted distinct MinExactMatch-length
// k-mer shingles (sequences shorter than k get an empty set), the total
// shingle count, and the window op count (each window hashes k bytes) for
// pricing.
func shingleSets(seqs []seq.Sequence, k int) (sets [][]uint32, total int, ops int64) {
	sets = make([][]uint32, len(seqs))
	seen := make(map[uint32]bool)
	for i, s := range seqs {
		r := s.Residues
		if len(r) < k {
			continue
		}
		sets[i] = shingleOne(r, k, seen)
		total += len(sets[i])
		ops += int64(len(r)-k+1) * int64(k)
	}
	return sets, total, ops
}

// eligibleSeqs lists the sequences with at least one shingle — the only ones
// the LSH filter can bucket (and the only ones the exact filter can seed, so
// skipping the rest loses nothing).
func eligibleSeqs(sets [][]uint32) []int32 {
	var ids []int32
	for i, s := range sets {
		if len(s) > 0 {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// emitBucketPairs adds every cross pair of one bucket's members to out.
// Members are original sequence indices; self-pairs (a sequence bucketed
// once per distinct shingle can't repeat within a bucket) never occur.
func emitBucketPairs(members []int32, out map[pairKey]bool) {
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			out[makePair(members[i], members[j])] = true
		}
	}
}

// conservativeLSHPairs buckets sequences on every raw shingle value: two
// sequences are candidates iff they share a shingle, i.e. an exact
// MinExactMatch-residue substring (modulo 31-bit hash collisions, which only
// add candidates). Returns the bucketing op count.
func conservativeLSHPairs(sets [][]uint32, ids []int32, out map[pairKey]bool) int64 {
	buckets := make(map[uint32][]int32)
	var ops int64
	for _, id := range ids {
		for _, v := range sets[id] {
			buckets[v] = append(buckets[v], id)
			ops++
		}
	}
	keys := make([]uint32, 0, len(buckets))
	for v := range buckets {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	for _, v := range keys {
		emitBucketPairs(buckets[v], out)
	}
	return ops
}

// bandedLSHPairs buckets the eligible sequences by each band's key over the
// given signature matrix (columns follow ids' order). Returns the banding op
// count.
func bandedLSHPairs(g minwise.Signatures, ids []int32, p lshParams, out map[pairKey]bool) int64 {
	buckets := make(map[uint32][]int32, len(ids))
	var ops int64
	for band := 0; band < p.bands; band++ {
		clear(buckets)
		for col, id := range ids {
			k := g.BandKey(col, band, p.rows)
			buckets[k] = append(buckets[k], id)
		}
		ops += int64(p.rows) * int64(len(ids))
		keys := make([]uint32, 0, len(buckets))
		for v := range buckets {
			keys = append(keys, v)
		}
		slices.Sort(keys)
		for _, v := range keys {
			emitBucketPairs(buckets[v], out)
		}
	}
	return ops
}

// lshPairsHost is the host LSH filter: shingle, sign (banded shapes),
// bucket, emit. It is bit-identical to the device filter — same shingles,
// same permutation family, same band keys, same bucket grouping — and
// doubles as its degrade path. Returns the candidate set and its virtual
// cost.
func lshPairsHost(seqs []seq.Sequence, cfg Config, p lshParams) (map[pairKey]bool, float64) {
	sets, total, ops := shingleSets(seqs, cfg.MinExactMatch)
	ids := eligibleSeqs(sets)
	out := make(map[pairKey]bool)
	if p.conservative {
		ops += conservativeLSHPairs(sets, ids, out)
	} else {
		fam := minwise.NewFamily(p.hashes(), lshFamilySeed)
		eligible := make([][]uint32, len(ids))
		for col, id := range ids {
			eligible[col] = sets[id]
		}
		g := fam.SequenceSignatures(eligible)
		ops += int64(p.hashes()) * int64(total)
		ops += bandedLSHPairs(g, ids, p, out)
	}
	ops += int64(len(out))
	return out, float64(ops) * FilterNsPerOp
}

// runFilterHost is Phase 1 on the host backend: it resolves the filter,
// produces the scheduled candidate pairs, and prices the whole phase into
// st.FilterNs on the synthetic host timeline.
func runFilterHost(seqs []seq.Sequence, cfg Config, st *Stats) ([]pairKey, error) {
	f, prm, err := resolveFilter(cfg)
	if err != nil {
		return nil, err
	}
	st.Filter = f
	var set map[pairKey]bool
	switch f {
	case FilterExact:
		set, st.FilterNs = exactPairSet(seqs, cfg)
	case FilterLSH:
		set, st.FilterNs = lshPairsHost(seqs, cfg, prm)
	}
	st.Candidates = len(set)
	return sortedPairs(set), nil
}

// runFilterGPU is Phase 1 on the GPU backend. The exact filter runs on the
// host and is charged onto the device's host clock; the LSH pass runs
// on-device through the scheduler (lshDeviceFilter), its kernels and copies
// landing on the device clock directly. Either way st.FilterNs is the
// phase's share of the virtual clock and the phase span brackets it.
func runFilterGPU(dev *gpusim.Device, seqs []seq.Sequence, cfg Config, st *Stats) ([]pairKey, error) {
	f, prm, err := resolveFilter(cfg)
	if err != nil {
		return nil, err
	}
	st.Filter = f
	host0 := dev.HostTime()
	var set map[pairKey]bool
	switch f {
	case FilterExact:
		var ns float64
		set, ns = exactPairSet(seqs, cfg)
		sched.ChargeHost(dev, cfg.Obs, "filter", ns)
	case FilterLSH:
		set, err = lshDeviceFilter(dev, seqs, cfg, prm, st)
	}
	if err != nil {
		return nil, err
	}
	st.FilterNs = dev.HostTime() - host0
	if cfg.Obs.Enabled() {
		cfg.Obs.Span(obs.TrackPhases, "filter", host0, dev.HostTime())
	}
	st.Candidates = len(set)
	return sortedPairs(set), nil
}
