package serve

import (
	"math"
	"math/bits"
	"slices"

	"gpclust/internal/minwise"
	"gpclust/internal/pgraph"
)

// lshIndex is the resident candidate index: the batch LSH filter's band
// buckets kept alive between requests so each new sequence is bucketed
// once, against the members already resident. Because a sequence's band keys depend only on
// its own shingle set, inserting sequences one at a time emits exactly the
// pair set the batch filter computes over the union corpus — the
// equivalence pinned by pgraph's TestIncrementalLSHMatchesBatchFilter.
//
// Each band maps a bucket key to one int32. Most buckets ever hold a single
// member (94% of them at 4,800 residents of gpbench's corpus), so a value
// v ≥ 0 is that member, inline; a value v < 0 names lists[-v-1], the
// members of a shared bucket in insertion order. Candidates therefore come
// out in the order members were bucketed, and a singleton bucket costs one
// 8-byte entry of its band and nothing else (the index is most of serve's
// resident memory, and grows with every insert; see band).
//
// keys is pure and safe to call from any goroutine; everything else is
// owned by the server's scheduler goroutine and not safe for concurrent use.
type lshIndex struct {
	shape pgraph.LSHShape
	fam   minwise.Family
	k     int // shingle length (Config.MinExactMatch)

	bands []band
	lists [][]int32 // shared buckets' members, in insertion order

	// undo logs every bucket change since the last mark, so a failed insert
	// pass can be rolled back without rebuilding the index.
	undo []undoRec
}

// bucketKey is a bucket's coordinates in the undo log: its band and its
// key in that band.
type bucketKey struct {
	band int32
	key  uint32
}

// absent is the undo log's value for a bucket that did not exist. No
// bucket holds it: members are ≥ 0, and a list value is never below
// -len(lists).
const absent = math.MinInt32

// undoRec is one insert into a bucket: its coordinates and the bucket's
// value before the insert (absent: the insert created the bucket).
type undoRec struct {
	bucketKey
	prev int32
}

// band is one band's buckets, key → value. The bulk lives in base, sorted
// by key, each bucket one word key<<32 | uint32(value): a hash map's empty
// slots would double the index's memory just after every growth step, and
// all bands grow in step. start indexes base by the keys' top bits (keys
// are hashes): the buckets whose key>>shift is h are
// base[start[h]:start[h+1]], four to eight of them on average, so a lookup
// reads about two cache lines, not a binary search's dozen. Buckets made
// since the last merge live in delta; commit merges delta into base once
// it holds an eighth as many buckets, so each bucket is copied O(1) times
// on average. A value can change in either part; a bucket never leaves
// base.
type band struct {
	base  []uint64
	start []int32
	shift uint
	delta map[uint32]int32
}

// mergeShare is the delta size, as a fraction 1/mergeShare of base's, at
// which commit merges a band.
const mergeShare = 8

// find returns the bucket's value and its slot in base (-1: in delta, or
// absent when !ok). base is read first: it holds most buckets, and a
// resident sequence's query finds its own in every band.
func (b *band) find(key uint32) (slot int, v int32, ok bool) {
	if len(b.base) > 0 {
		h := key >> b.shift
		for i := b.start[h]; i < b.start[h+1]; i++ {
			if k := uint32(b.base[i] >> 32); k >= key {
				if k == key {
					return int(i), int32(uint32(b.base[i])), true
				}
				break
			}
		}
	}
	v, ok = b.delta[key]
	return -1, v, ok
}

// set stores the bucket's value in the slot find returned for it.
func (b *band) set(slot int, key uint32, v int32) {
	if slot >= 0 {
		b.base[slot] = uint64(key)<<32 | uint64(uint32(v))
		return
	}
	if b.delta == nil {
		b.delta = make(map[uint32]int32)
	}
	b.delta[key] = v
}

// merge folds delta into base (a new exact-size array) once delta holds
// an eighth as many buckets as base.
func (b *band) merge() {
	if len(b.delta) == 0 || len(b.delta)*mergeShare < len(b.base) {
		return
	}
	add := make([]uint64, 0, len(b.delta))
	for k, v := range b.delta {
		add = append(add, uint64(k)<<32|uint64(uint32(v)))
	}
	slices.Sort(add)
	merged := make([]uint64, 0, len(b.base)+len(add))
	i, j := 0, 0
	for i < len(b.base) && j < len(add) {
		if b.base[i] < add[j] {
			merged = append(merged, b.base[i])
			i++
		} else {
			merged = append(merged, add[j])
			j++
		}
	}
	merged = append(append(merged, b.base[i:]...), add[j:]...)
	b.base, b.delta = merged, nil

	// 2^top is in (n/8, n/4], so four to eight buckets per start entry; a
	// shift of 32 (a tiny base) maps every key to entry 0.
	top := bits.Len(uint(len(merged)) >> 3)
	b.shift = uint(32 - top)
	b.start = make([]int32, 1<<top+1)
	for _, w := range merged {
		b.start[uint32(w>>32)>>b.shift+1]++
	}
	for h := 1; h < len(b.start); h++ {
		b.start[h] += b.start[h-1]
	}
}

func newLSHIndex(shape pgraph.LSHShape, k int) *lshIndex {
	return &lshIndex{shape: shape, fam: shape.Family(), k: k, bands: make([]band, shape.Bands)}
}

// keys returns the band keys of one residue string, band b's at index b
// (nil: shorter than the shingle length, so ineligible and never bucketed —
// exactly the batch filter's treatment of short sequences). It reads only
// the index's fixed shape, so a pass computes its sequences' keys on a
// worker pool, and the assign cache keeps them for the query's next pass.
func (ix *lshIndex) keys(residues []byte) []uint32 {
	set := pgraph.ShingleSet(residues, ix.k)
	if len(set) == 0 {
		return nil
	}
	return ix.shape.BandKeys(ix.fam, set)
}

// collect appends to out every member ≥ from of the bucket with value v
// not yet in seen.
func (ix *lshIndex) collect(v, from int32, seen map[int32]bool, out []int32) []int32 {
	if v >= 0 {
		if v >= from && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
		return out
	}
	for _, m := range ix.lists[-v-1] {
		if m >= from && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// candidates returns the distinct resident members ≥ from sharing a bucket
// with the keys, without inserting anything — the assign path. A query
// whose best member among the first n residents is cached asks only for
// from = n: inserts never take a member out of a bucket.
func (ix *lshIndex) candidates(keys []uint32, from int32) []int32 {
	if len(keys) == 0 {
		return nil
	}
	seen := make(map[int32]bool)
	var out []int32
	for band, key := range keys {
		if _, v, ok := ix.bands[band].find(key); ok {
			out = ix.collect(v, from, seen, out)
		}
	}
	return out
}

// insert buckets a new member under its keys and returns its distinct
// candidates among the members already resident (exactly the pairs the
// batch filter would emit for it). Every bucket change is undo-logged;
// empty keys insert nothing.
func (ix *lshIndex) insert(id int32, keys []uint32) []int32 {
	if len(keys) == 0 {
		return nil
	}
	seen := make(map[int32]bool)
	var out []int32
	for band, key := range keys {
		b := &ix.bands[band]
		slot, v, ok := b.find(key)
		rec := undoRec{bucketKey: bucketKey{band: int32(band), key: key}, prev: absent}
		switch {
		case !ok:
			b.set(slot, key, id)
		case v >= 0:
			out = ix.collect(v, 0, seen, out)
			ix.lists = append(ix.lists, []int32{v, id})
			b.set(slot, key, -int32(len(ix.lists)))
			rec.prev = v
		default:
			out = ix.collect(v, 0, seen, out)
			ix.lists[-v-1] = append(ix.lists[-v-1], id)
			rec.prev = v
		}
		ix.undo = append(ix.undo, rec)
	}
	return out
}

// mark snapshots the undo position; rollback(mark) unwinds every insert
// made since, in reverse, deleting buckets that become empty.
func (ix *lshIndex) mark() int { return len(ix.undo) }

func (ix *lshIndex) rollback(mark int) {
	// Newest first, each record restores its bucket's previous value. A
	// bucket that was a singleton got the newest list, so the lists made
	// since mark come off the end in reverse order of their making. Only
	// commit merges, so a bucket made since mark is still in delta.
	for i := len(ix.undo) - 1; i >= mark; i-- {
		r := ix.undo[i]
		b := &ix.bands[r.band]
		switch {
		case r.prev == absent:
			delete(b.delta, r.key)
		case r.prev >= 0:
			ix.lists[len(ix.lists)-1] = nil
			ix.lists = ix.lists[:len(ix.lists)-1]
			slot, _, _ := b.find(r.key)
			b.set(slot, r.key, r.prev)
		default:
			l := -r.prev - 1
			ix.lists[l] = ix.lists[l][:len(ix.lists[l])-1]
		}
	}
	ix.undo = ix.undo[:mark]
}

// commit makes the inserts since the last mark permanent, merges each band
// whose delta has grown enough, and frees the undo log: the next pass
// starts a log of its own size, so a large pass (the bootstrap logs one
// record per band per sequence) leaves nothing behind.
func (ix *lshIndex) commit() {
	for b := range ix.bands {
		ix.bands[b].merge()
	}
	ix.undo = nil
}
