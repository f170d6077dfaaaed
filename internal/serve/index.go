package serve

import (
	"gpclust/internal/minwise"
	"gpclust/internal/pgraph"
)

// lshIndex is the resident candidate index: the batch LSH filter's band
// buckets (or, at the conservative preset, its raw-shingle buckets) kept
// alive between requests so each new sequence is bucketed once, against the
// members already resident. Because a sequence's band keys depend only on
// its own shingle set, inserting sequences one at a time emits exactly the
// pair set the batch filter computes over the union corpus — the
// equivalence pinned by pgraph's TestIncrementalLSHMatchesBatchFilter.
//
// Each bucket is a singly linked list of postings in insertion order, so
// candidates come out in the order members were bucketed. The bucket maps
// hold only the list ends and post holds every posting, so the index keeps
// no pointer per posting and needs less than half the memory of a map of
// []int32 buckets (it is most of serve's resident memory, and grows with
// every insert).
//
// The index is owned by the server's scheduler goroutine; it is not safe
// for concurrent use.
type lshIndex struct {
	shape pgraph.LSHShape
	fam   minwise.Family
	k     int // shingle length (Config.MinExactMatch)

	// heads has one bucket map per band; the conservative preset has one,
	// keyed by raw shingle.
	heads []map[uint32]span
	post  []posting

	// undo logs every posting appended since the last mark, so a failed
	// insert pass can be rolled back without rebuilding the index.
	undo []undoRec
}

// bucketKey is a bucket's coordinates: its band and its key in that band.
type bucketKey struct {
	band int32
	key  uint32
}

// span is a bucket's first and last posting, indices into post.
type span struct{ first, last int32 }

// posting is one member of a bucket; next is the bucket's following posting
// or -1.
type posting struct{ id, next int32 }

// undoRec is one appended posting: its bucket and the bucket's last posting
// before the append (-1: the append created the bucket).
type undoRec struct {
	bucketKey
	prev int32
}

func newLSHIndex(shape pgraph.LSHShape, k int) *lshIndex {
	ix := &lshIndex{shape: shape, fam: shape.Family(), k: k}
	bands := shape.Bands
	if shape.Conservative {
		bands = 1
	}
	ix.heads = make([]map[uint32]span, bands)
	for b := range ix.heads {
		ix.heads[b] = make(map[uint32]span)
	}
	return ix
}

// shingles returns the sequence's shingle set (nil: ineligible, never
// bucketed — exactly the batch filter's treatment of short sequences).
func (ix *lshIndex) shingles(residues []byte) []uint32 {
	return pgraph.ShingleSet(residues, ix.k)
}

// buckets yields the bucket coordinates of one non-empty shingle set.
func (ix *lshIndex) buckets(set []uint32) []bucketKey {
	if ix.shape.Conservative {
		bks := make([]bucketKey, len(set))
		for i, v := range set {
			bks[i] = bucketKey{key: v}
		}
		return bks
	}
	keys := ix.shape.BandKeys(ix.fam, set)
	bks := make([]bucketKey, len(keys))
	for b, k := range keys {
		bks[b] = bucketKey{band: int32(b), key: k}
	}
	return bks
}

// collect appends to out every member of bucket sp not yet in seen.
func (ix *lshIndex) collect(sp span, seen map[int32]bool, out []int32) []int32 {
	for p := sp.first; p >= 0; p = ix.post[p].next {
		if m := ix.post[p].id; !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// candidates returns the distinct resident members sharing a bucket with
// the set, without inserting anything — the assign path.
func (ix *lshIndex) candidates(set []uint32) []int32 {
	if len(set) == 0 {
		return nil
	}
	seen := make(map[int32]bool)
	var out []int32
	for _, bk := range ix.buckets(set) {
		if sp, ok := ix.heads[bk.band][bk.key]; ok {
			out = ix.collect(sp, seen, out)
		}
	}
	return out
}

// insert buckets a new member and returns its distinct candidates among the
// members already resident (exactly the pairs the batch filter would emit
// for it). Every append is undo-logged; empty sets insert nothing.
func (ix *lshIndex) insert(id int32, set []uint32) []int32 {
	if len(set) == 0 {
		return nil
	}
	seen := make(map[int32]bool)
	var out []int32
	for _, bk := range ix.buckets(set) {
		p := int32(len(ix.post))
		ix.post = append(ix.post, posting{id: id, next: -1})
		sp, ok := ix.heads[bk.band][bk.key]
		rec := undoRec{bucketKey: bk, prev: -1}
		if ok {
			out = ix.collect(sp, seen, out)
			ix.post[sp.last].next = p
			rec.prev = sp.last
			sp.last = p
		} else {
			sp = span{p, p}
		}
		ix.heads[bk.band][bk.key] = sp
		ix.undo = append(ix.undo, rec)
	}
	return out
}

// mark snapshots the undo position; rollback(mark) unwinds every insert
// made since, in reverse, deleting buckets that become empty.
func (ix *lshIndex) mark() int { return len(ix.undo) }

func (ix *lshIndex) rollback(mark int) {
	// Each undo record since mark appended one posting, in order; unlink
	// them newest first, then drop them.
	appended := len(ix.undo) - mark
	for i := len(ix.undo) - 1; i >= mark; i-- {
		r := ix.undo[i]
		if r.prev < 0 {
			delete(ix.heads[r.band], r.key)
			continue
		}
		ix.post[r.prev].next = -1
		sp := ix.heads[r.band][r.key]
		sp.last = r.prev
		ix.heads[r.band][r.key] = sp
	}
	ix.post = ix.post[:len(ix.post)-appended]
	ix.undo = ix.undo[:mark]
}

// commit forgets the undo history up to the current position (the inserts
// are now permanent); the log never grows across successful passes.
func (ix *lshIndex) commit() { ix.undo = ix.undo[:0] }
