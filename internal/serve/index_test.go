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
// scan of every member's buckets, under the default banded shape and the
// conservative preset: candidates come out band by band, each bucket in
// insertion order, a rolled-back pass leaves the index answering as if it
// never ran, and a commit frees the undo log.
func TestLSHIndexMatchesBucketScan(t *testing.T) {
	corpus := testMetagenome(t, 60)
	for _, bands := range []int{0, pgraph.ConservativeBands} {
		p := pgraph.DefaultConfig()
		p.Filter = pgraph.FilterLSH
		p.LSHBands = bands
		shape, err := pgraph.ResolveLSHShape(p)
		if err != nil {
			t.Fatal(err)
		}
		ix := newLSHIndex(shape, p.MinExactMatch)
		var members [][]bucketKey // each member's buckets, by id
		scan := func(bks []bucketKey) []int32 {
			seen := make(map[int32]bool)
			var out []int32
			for _, bk := range bks {
				for id, mbks := range members {
					if m := int32(id); !seen[m] && slices.Contains(mbks, bk) {
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
				want := scan(bks)
				if got := ix.insert(int32(id), bks); !slices.Equal(got, want) {
					t.Fatalf("%+v: insert %d: candidates %v, bucket scan %v", shape, id, got, want)
				}
				members = append(members, bks)
			}
		}
		check := func(stage string) {
			for id, q := range corpus {
				bks := ix.keys(q.Residues)
				if got, want := ix.candidates(bks), scan(bks); !slices.Equal(got, want) {
					t.Fatalf("%+v %s: candidates of %d = %v, bucket scan %v", shape, stage, id, got, want)
				}
			}
		}
		commit := func() {
			ix.commit()
			if cap(ix.undo) != 0 {
				t.Fatalf("%+v: undo log keeps capacity %d after commit", shape, cap(ix.undo))
			}
		}

		insert(0, 30)
		commit()
		check("after commit")
		mark := ix.mark()
		insert(30, 50)
		members = members[:30]
		ix.rollback(mark)
		check("after rollback")
		insert(30, len(corpus))
		commit()
		check("after reinsert")
	}
	t.Run("bucket transitions", testBucketTransitions)
}

// testBucketTransitions drives hand-made buckets through every change an
// insert makes, inside one marked pass: absent → singleton, singleton →
// shared, append to a shared list made in the pass and to one made before
// it. Candidates keep insertion order, and the rollback restores the index
// exactly.
func testBucketTransitions(t *testing.T) {
	ix := newLSHIndex(pgraph.LSHShape{Bands: 2, Rows: 1}, 5)
	a, b, c := bucketKey{0, 10}, bucketKey{1, 10}, bucketKey{1, 20}
	ix.insert(0, []bucketKey{a, b})
	ix.insert(1, []bucketKey{a})
	ix.commit()
	if ix.buckets[1][b.key] != 0 || ix.buckets[0][a.key] >= 0 {
		t.Fatalf("before the pass: want b inline (0) and a shared, got %v", ix.buckets)
	}
	snapshot := func() ([]map[uint32]int32, [][]int32) {
		bs := make([]map[uint32]int32, len(ix.buckets))
		for i, m := range ix.buckets {
			bs[i] = maps.Clone(m)
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
		keys []bucketKey
		want []int32
	}{
		{2, []bucketKey{c}, nil},                    // c: absent → singleton
		{3, []bucketKey{c}, []int32{2}},             // c: singleton → shared (made in the pass)
		{4, []bucketKey{c, a}, []int32{2, 3, 0, 1}}, // append to c's new list and a's old one
		{5, []bucketKey{b}, []int32{0}},             // b: singleton made before the pass → shared
	}
	for _, st := range steps {
		if got := ix.insert(st.id, st.keys); !slices.Equal(got, st.want) {
			t.Fatalf("insert %d: candidates %v, want %v", st.id, got, st.want)
		}
	}
	for _, q := range []struct {
		keys []bucketKey
		want []int32
	}{
		{[]bucketKey{a}, []int32{0, 1, 4}},
		{[]bucketKey{b}, []int32{0, 5}},
		{[]bucketKey{c}, []int32{2, 3, 4}},
		{[]bucketKey{{0, 99}}, nil},
	} {
		if got := ix.candidates(q.keys); !slices.Equal(got, q.want) {
			t.Fatalf("candidates(%v) = %v, want %v", q.keys, got, q.want)
		}
	}

	ix.rollback(mark)
	if ix.mark() != mark {
		t.Fatalf("rollback left %d undo records, want %d", ix.mark(), mark)
	}
	for i := range wantBuckets {
		if !maps.Equal(ix.buckets[i], wantBuckets[i]) {
			t.Fatalf("band %d after rollback: %v, want %v", i, ix.buckets[i], wantBuckets[i])
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
	keys := make([][]bucketKey, len(mg.Seqs))
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
