package serve

import (
	"slices"
	"testing"

	"gpclust/internal/pgraph"
)

// TestLSHIndexMatchesBucketScan checks the resident index against a plain
// scan of every member's buckets, under the default banded shape and the
// conservative preset: candidates come out band by band, each bucket in
// insertion order, and a rolled-back pass leaves the index answering as if
// it never ran.
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
		scan := func(set []uint32) []int32 {
			if len(set) == 0 {
				return nil
			}
			seen := make(map[int32]bool)
			var out []int32
			for _, bk := range ix.buckets(set) {
				for id, bks := range members {
					if m := int32(id); !seen[m] && slices.Contains(bks, bk) {
						seen[m] = true
						out = append(out, m)
					}
				}
			}
			return out
		}
		insert := func(from, to int) {
			for id := from; id < to; id++ {
				set := ix.shingles(corpus[id].Residues)
				want := scan(set)
				if got := ix.insert(int32(id), set); !slices.Equal(got, want) {
					t.Fatalf("%+v: insert %d: candidates %v, bucket scan %v", shape, id, got, want)
				}
				var bks []bucketKey
				if len(set) > 0 {
					bks = ix.buckets(set)
				}
				members = append(members, bks)
			}
		}
		check := func(stage string) {
			for id, q := range corpus {
				set := ix.shingles(q.Residues)
				if got, want := ix.candidates(set), scan(set); !slices.Equal(got, want) {
					t.Fatalf("%+v %s: candidates of %d = %v, bucket scan %v", shape, stage, id, got, want)
				}
			}
		}

		insert(0, 30)
		ix.commit()
		check("after commit")
		mark := ix.mark()
		insert(30, 50)
		members = members[:30]
		ix.rollback(mark)
		check("after rollback")
		insert(30, len(corpus))
		ix.commit()
		check("after reinsert")
	}
}
