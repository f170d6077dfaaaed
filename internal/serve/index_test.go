package serve

import (
	"maps"
	"runtime"
	"slices"
	"testing"

	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
)

// TestLSHIndexMatchesBucketScan checks the resident index against a plain
// scan of every member's buckets, under the default banded shape and a
// 16×2 one: candidates come out band by band, each bucket in insertion
// order, candidates from a member on are the scan's members from it on, a
// rolled-back pass leaves the index answering as if it never ran, and a
// commit frees the undo log. The stages hold buckets in base only, in base
// and delta within a pass and after a commit too small to merge, and in
// base again after a merge.
func TestLSHIndexMatchesBucketScan(t *testing.T) {
	corpus := testMetagenome(t, 60)
	for _, bands := range [][2]int{{0, 0}, {16, 2}} {
		p := pgraph.DefaultConfig()
		p.Filter = pgraph.FilterLSH
		p.LSHBands, p.LSHRows = bands[0], bands[1]
		shape, err := pgraph.ResolveLSHShape(p)
		if err != nil {
			t.Fatal(err)
		}
		ix := newLSHIndex(shape, p.MinExactMatch)
		var members [][]uint32 // each member's band keys, by id
		scan := func(keys []uint32, from int32) []int32 {
			seen := make(map[int32]bool)
			var out []int32
			for band, key := range keys {
				for id, mkeys := range members {
					if m := int32(id); m >= from && !seen[m] && len(mkeys) > 0 && mkeys[band] == key {
						seen[m] = true
						out = append(out, m)
					}
				}
			}
			return out
		}
		insert := func(from, to int) {
			for id := from; id < to; id++ {
				bks := ix.keys(corpus[id].Residues)
				want := scan(bks, 0)
				if got := ix.insert(int32(id), bks); !slices.Equal(got, want) {
					t.Fatalf("%+v: insert %d: candidates %v, bucket scan %v", shape, id, got, want)
				}
				members = append(members, bks)
			}
		}
		check := func(stage string) {
			for id, q := range corpus {
				bks := ix.keys(q.Residues)
				for _, from := range []int32{0, 20} {
					if got, want := ix.candidates(bks, from), scan(bks, from); !slices.Equal(got, want) {
						t.Fatalf("%+v %s: candidates of %d from %d = %v, bucket scan %v", shape, stage, id, from, got, want)
					}
				}
			}
		}
		commit := func(wantDelta bool) {
			ix.commit()
			if cap(ix.undo) != 0 {
				t.Fatalf("%+v: undo log keeps capacity %d after commit", shape, cap(ix.undo))
			}
			if inDelta := len(ix.bands[0].delta) > 0; inDelta != wantDelta {
				t.Fatalf("%+v: after commit band 0 holds %d buckets in delta (want some: %v)", shape, len(ix.bands[0].delta), wantDelta)
			}
		}

		insert(0, 40)
		commit(false)
		check("after commit")
		mark := ix.mark()
		insert(40, 50)
		check("within a pass")
		members = members[:40]
		ix.rollback(mark)
		check("after rollback")
		insert(40, 43)
		commit(true)
		check("after a commit too small to merge")
		insert(43, len(corpus))
		commit(false)
		check("after a merge")
	}
	t.Run("bucket transitions", testBucketTransitions)
}

// testBucketTransitions drives hand-made buckets through every change an
// insert makes, inside one marked pass: absent → singleton, singleton →
// shared, append to a shared list made in the pass and to one made before
// it. Candidates keep insertion order, and the rollback restores the index
// exactly. Keys are (band 0, band 1); the buckets under test are a = band
// 0's 10, b = band 1's 10 and c = band 1's 20, and keys from 100 up are
// each used once.
func testBucketTransitions(t *testing.T) {
	ix := newLSHIndex(pgraph.LSHShape{Bands: 2, Rows: 1}, 5)
	ix.insert(0, []uint32{10, 10}) // a, b
	ix.insert(1, []uint32{10, 101})
	ix.commit()
	buckets := func(band int) map[uint32]int32 {
		m := maps.Clone(ix.bands[band].delta)
		if m == nil {
			m = make(map[uint32]int32)
		}
		for _, w := range ix.bands[band].base {
			m[uint32(w>>32)] = int32(uint32(w))
		}
		return m
	}
	if buckets(1)[10] != 0 || buckets(0)[10] >= 0 {
		t.Fatalf("before the pass: want b inline (0) and a shared, got %v and %v", buckets(0), buckets(1))
	}
	snapshot := func() ([]map[uint32]int32, [][]int32) {
		bs := make([]map[uint32]int32, len(ix.bands))
		for i := range ix.bands {
			bs[i] = buckets(i)
		}
		ls := make([][]int32, len(ix.lists))
		for i, l := range ix.lists {
			ls[i] = slices.Clone(l)
		}
		return bs, ls
	}
	wantBuckets, wantLists := snapshot()

	mark := ix.mark()
	steps := []struct {
		id   int32
		keys []uint32
		want []int32
	}{
		{2, []uint32{102, 20}, nil},                // c: absent → singleton
		{3, []uint32{103, 20}, []int32{2}},         // c: singleton → shared (made in the pass)
		{4, []uint32{10, 20}, []int32{0, 1, 2, 3}}, // append to a's old list and c's new one
		{5, []uint32{105, 10}, []int32{0}},         // b: singleton made before the pass → shared
	}
	for _, st := range steps {
		if got := ix.insert(st.id, st.keys); !slices.Equal(got, st.want) {
			t.Fatalf("insert %d: candidates %v, want %v", st.id, got, st.want)
		}
	}
	for _, q := range []struct {
		keys []uint32
		from int32
		want []int32
	}{
		{[]uint32{10, 199}, 0, []int32{0, 1, 4}}, // a
		{[]uint32{199, 10}, 0, []int32{0, 5}},    // b
		{[]uint32{199, 20}, 0, []int32{2, 3, 4}}, // c
		{[]uint32{10, 20}, 3, []int32{4, 3}},     // a and c from member 3 on
		{[]uint32{99, 199}, 0, nil},
	} {
		if got := ix.candidates(q.keys, q.from); !slices.Equal(got, q.want) {
			t.Fatalf("candidates(%v, %d) = %v, want %v", q.keys, q.from, got, q.want)
		}
	}

	ix.rollback(mark)
	if ix.mark() != mark {
		t.Fatalf("rollback left %d undo records, want %d", ix.mark(), mark)
	}
	for i := range wantBuckets {
		if got := buckets(i); !maps.Equal(got, wantBuckets[i]) {
			t.Fatalf("band %d after rollback: %v, want %v", i, got, wantBuckets[i])
		}
	}
	if len(ix.lists) != len(wantLists) {
		t.Fatalf("rollback left %d shared lists, want %d", len(ix.lists), len(wantLists))
	}
	for i := range wantLists {
		if !slices.Equal(ix.lists[i], wantLists[i]) {
			t.Fatalf("shared list %d after rollback: %v, want %v", i, ix.lists[i], wantLists[i])
		}
	}
}

// BenchmarkLSHIndexInsert inserts 4,800 sequences of gpbench's corpus
// shape (families of 10 around 210-residue ancestors: serve-mixed's 1,200
// bootstrap ORFs and 3,600 pool ORFs) into a fresh default-shape index per
// iteration, with their keys computed beforehand, and reports the heap the
// finished index holds per resident sequence.
func BenchmarkLSHIndexInsert(b *testing.B) {
	const n = 4800
	cfg := seq.DefaultMetagenomeConfig(n)
	cfg.MinFamily, cfg.MaxFamily = 10, 10
	cfg.AncestorLenMin, cfg.AncestorLenMax = 210, 210
	cfg.Seed = 7
	mg, err := seq.GenerateMetagenome(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := pgraph.DefaultConfig()
	p.Filter = pgraph.FilterLSH
	shape, err := pgraph.ResolveLSHShape(p)
	if err != nil {
		b.Fatal(err)
	}
	proto := newLSHIndex(shape, p.MinExactMatch)
	keys := make([][]uint32, len(mg.Seqs))
	for i, s := range mg.Seqs {
		keys[i] = proto.keys(s.Residues)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	b.ResetTimer()
	var perSeq float64
	for it := 0; it < b.N; it++ {
		b.StopTimer()
		h0 := heap()
		b.StartTimer()
		ix := newLSHIndex(shape, p.MinExactMatch)
		for i, bks := range keys {
			ix.insert(int32(i), bks)
		}
		ix.commit()
		b.StopTimer()
		perSeq = float64(int64(heap())-int64(h0)) / float64(len(keys))
		runtime.KeepAlive(ix)
		b.StartTimer()
	}
	b.ReportMetric(perSeq, "heapB/seq")
}
