package serve

import (
	"math"

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
// map entry and nothing else (the index is most of serve's resident memory,
// and grows with every insert).
//
// keys is pure and safe to call from any goroutine; everything else is
// owned by the server's scheduler goroutine and not safe for concurrent use.
type lshIndex struct {
	shape pgraph.LSHShape
	fam   minwise.Family
	k     int // shingle length (Config.MinExactMatch)

	buckets []map[uint32]int32 // one map per band
	lists   [][]int32          // shared buckets' members, in insertion order

	// undo logs every bucket change since the last mark, so a failed insert
	// pass can be rolled back without rebuilding the index.
	undo []undoRec
}

// bucketKey is a bucket's coordinates: its band and its key in that band.
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

func newLSHIndex(shape pgraph.LSHShape, k int) *lshIndex {
	ix := &lshIndex{shape: shape, fam: shape.Family(), k: k}
	ix.buckets = make([]map[uint32]int32, shape.Bands)
	for b := range ix.buckets {
		ix.buckets[b] = make(map[uint32]int32)
	}
	return ix
}

// keys returns the bucket coordinates of one residue string (nil: shorter
// than the shingle length, so ineligible and never bucketed — exactly the
// batch filter's treatment of short sequences). It reads only the index's
// fixed shape, so a pass computes its sequences' keys on a worker pool.
func (ix *lshIndex) keys(residues []byte) []bucketKey {
	set := pgraph.ShingleSet(residues, ix.k)
	if len(set) == 0 {
		return nil
	}
	keys := ix.shape.BandKeys(ix.fam, set)
	bks := make([]bucketKey, len(keys))
	for b, k := range keys {
		bks[b] = bucketKey{band: int32(b), key: k}
	}
	return bks
}

// collect appends to out every member of the bucket with value v not yet
// in seen.
func (ix *lshIndex) collect(v int32, seen map[int32]bool, out []int32) []int32 {
	if v >= 0 {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
		return out
	}
	for _, m := range ix.lists[-v-1] {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// candidates returns the distinct resident members sharing a bucket with
// the keys, without inserting anything — the assign path.
func (ix *lshIndex) candidates(bks []bucketKey) []int32 {
	if len(bks) == 0 {
		return nil
	}
	seen := make(map[int32]bool)
	var out []int32
	for _, bk := range bks {
		if v, ok := ix.buckets[bk.band][bk.key]; ok {
			out = ix.collect(v, seen, out)
		}
	}
	return out
}

// insert buckets a new member under its keys and returns its distinct
// candidates among the members already resident (exactly the pairs the
// batch filter would emit for it). Every bucket change is undo-logged;
// empty keys insert nothing.
func (ix *lshIndex) insert(id int32, bks []bucketKey) []int32 {
	if len(bks) == 0 {
		return nil
	}
	seen := make(map[int32]bool)
	var out []int32
	for _, bk := range bks {
		b := ix.buckets[bk.band]
		v, ok := b[bk.key]
		rec := undoRec{bucketKey: bk, prev: absent}
		switch {
		case !ok:
			b[bk.key] = id
		case v >= 0:
			out = ix.collect(v, seen, out)
			ix.lists = append(ix.lists, []int32{v, id})
			b[bk.key] = -int32(len(ix.lists))
			rec.prev = v
		default:
			out = ix.collect(v, seen, out)
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
	// since mark come off the end in reverse order of their making.
	for i := len(ix.undo) - 1; i >= mark; i-- {
		r := ix.undo[i]
		b := ix.buckets[r.band]
		switch {
		case r.prev == absent:
			delete(b, r.key)
		case r.prev >= 0:
			ix.lists[len(ix.lists)-1] = nil
			ix.lists = ix.lists[:len(ix.lists)-1]
			b[r.key] = r.prev
		default:
			l := -r.prev - 1
			ix.lists[l] = ix.lists[l][:len(ix.lists[l])-1]
		}
	}
	ix.undo = ix.undo[:mark]
}

// commit makes the inserts since the last mark permanent and frees the
// undo log: the next pass starts a log of its own size, so a large pass
// (the bootstrap logs one record per band per sequence) leaves nothing
// behind.
func (ix *lshIndex) commit() { ix.undo = nil }
