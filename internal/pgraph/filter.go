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
// LSH shingles are MinExactMatch-length residue k-mers hashed to 31 bits,
// signed by a fixed MinHash permutation family and bucketed band by band:
// the banded shape trades candidates for recall along the 1-(1-J^r)^b
// S-curve, quantified by the bench ablation. The exact filter stays the
// recall-1 path.

// Filter backend names for Config.Filter ("" means FilterExact).
const (
	FilterExact = "exact"
	FilterLSH   = "lsh"
)

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

// LSHShape is a Config's resolved MinHash banding shape: Bands bands of
// Rows signature rows each.
type LSHShape struct {
	Bands, Rows int
}

// hashes is the permutation-family size the shape needs.
func (s LSHShape) hashes() int { return s.Bands * s.Rows }

// resolveFilter validates Config.Filter/LSHBands/LSHRows and resolves the
// banding shape (zero-valued for the exact filter).
func resolveFilter(cfg Config) (string, LSHShape, error) {
	f := cfg.Filter
	if f == "" {
		f = FilterExact
	}
	switch f {
	case FilterExact:
		if cfg.LSHBands != 0 || cfg.LSHRows != 0 {
			return "", LSHShape{}, fmt.Errorf("pgraph: LSHBands/LSHRows set without Filter %q", FilterLSH)
		}
		return f, LSHShape{}, nil
	case FilterLSH:
	default:
		return "", LSHShape{}, fmt.Errorf("pgraph: unknown Filter %q", cfg.Filter)
	}
	p := LSHShape{Bands: cfg.LSHBands, Rows: cfg.LSHRows}
	if p.Bands == 0 {
		p.Bands = DefaultLSHBands
	}
	if p.Rows == 0 {
		p.Rows = DefaultLSHRows
	}
	if p.Bands < 1 || p.Rows < 1 {
		return "", LSHShape{}, fmt.Errorf("pgraph: invalid LSH shape %d bands × %d rows", p.Bands, p.Rows)
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

// shingleSets returns the sorted distinct MinExactMatch-length k-mer
// shingles of every eligible sequence — one at least k residues long, so
// with at least one shingle — as columns, ids mapping each column to its
// sequence index, the total shingle count, and the window op count (each
// window hashes k bytes) for pricing. Shorter sequences are the ones the
// LSH filter cannot bucket (and the exact filter cannot seed, so skipping
// them loses nothing).
func shingleSets(seqs []seq.Sequence, k int) (sets [][]uint32, ids []int32, total int, ops int64) {
	seen := make(map[uint32]bool)
	for i, s := range seqs {
		r := s.Residues
		if len(r) < k {
			continue
		}
		set := shingleOne(r, k, seen)
		sets = append(sets, set)
		ids = append(ids, int32(i))
		total += len(set)
		ops += int64(len(r)-k+1) * int64(k)
	}
	return sets, ids, total, ops
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

// bandedLSHPairs buckets the eligible sequences by each band's key over the
// given signature matrix (columns follow ids' order). Returns the banding op
// count.
func bandedLSHPairs(g minwise.Signatures, ids []int32, p LSHShape, out map[pairKey]bool) int64 {
	buckets := make(map[uint32][]int32, len(ids))
	var ops int64
	for band := 0; band < p.Bands; band++ {
		clear(buckets)
		for col, id := range ids {
			k := g.BandKey(col, band, p.Rows)
			buckets[k] = append(buckets[k], id)
		}
		ops += int64(p.Rows) * int64(len(ids))
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

// lshPairsHost is the host LSH filter: shingle, sign, bucket, emit. It is
// bit-identical to the device filter — same shingles, same permutation
// family, same band keys, same bucket grouping — and doubles as its degrade
// path. Returns the candidate set and its virtual cost.
func lshPairsHost(seqs []seq.Sequence, cfg Config, p LSHShape) (map[pairKey]bool, float64) {
	sets, ids, total, ops := shingleSets(seqs, cfg.MinExactMatch)
	out := make(map[pairKey]bool)
	g := p.Family().SequenceSignatures(sets)
	ops += int64(p.hashes()) * int64(total)
	ops += bandedLSHPairs(g, ids, p, out)
	ops += int64(len(out))
	return out, float64(ops) * FilterNsPerOp
}

// runFilterHost is Phase 1 on the host backend: it resolves the filter,
// produces the scheduled candidate pairs, and prices the whole phase into
// st.FilterNs, charged to the build's ledger.
func runFilterHost(led *sched.Ledger, seqs []seq.Sequence, cfg Config, st *Stats) ([]pairKey, error) {
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
	led.Charge("filter", st.FilterNs)
	st.Candidates = len(set)
	return sortedPairs(set), nil
}

// runFilterGPU is Phase 1 on the GPU backend. The exact filter runs on the
// host and is charged onto the device's host clock; the LSH pass runs
// on-device through the scheduler (lshDeviceFilter), its kernels and copies
// landing on the device clock directly. Either way st.FilterNs is the
// phase's share of the virtual clock and the phase span brackets it.
func runFilterGPU(dev *gpusim.Device, led *sched.Ledger, seqs []seq.Sequence, cfg Config, st *Stats) ([]pairKey, error) {
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
		led.Charge("filter", ns)
	case FilterLSH:
		set, err = lshDeviceFilter(dev, led, seqs, cfg, prm, st)
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
