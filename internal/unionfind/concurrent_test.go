package unionfind

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentMatchesSequential unions the same random pair set into a
// sequential UF and, concurrently from several goroutines, into a Concurrent,
// then compares the partitions.
func TestConcurrentMatchesSequential(t *testing.T) {
	const n = 2000
	const pairs = 4000
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type pair struct{ x, y int }
		ps := make([]pair, pairs)
		for i := range ps {
			ps[i] = pair{rng.Intn(n), rng.Intn(n)}
		}

		seq := New(n)
		for _, p := range ps {
			seq.Union(p.x, p.y)
		}

		con := NewConcurrent(n)
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(ps); i += workers {
					con.Union(ps[i].x, ps[i].y)
				}
			}(w)
		}
		wg.Wait()

		// Same partition: i~j in one iff i~j in the other. Compare via
		// canonical labels (root of element 0 of each set order).
		seqRoot := make(map[int]int)
		for i := 0; i < n; i++ {
			r, cr := seq.Find(i), con.Find(i)
			if prev, ok := seqRoot[r]; ok {
				if prev != cr {
					t.Fatalf("seed %d: element %d splits sequential set %d across concurrent sets %d and %d",
						seed, i, r, prev, cr)
				}
			} else {
				seqRoot[r] = cr
			}
		}
		if got, want := len(seqRoot), seq.Count(); got != want {
			t.Fatalf("seed %d: %d concurrent sets mapped, sequential has %d", seed, got, want)
		}
	}
}

func TestConcurrentSingleton(t *testing.T) {
	con := NewConcurrent(1)
	if con.Find(0) != 0 || con.Len() != 1 {
		t.Fatal("singleton broken")
	}
	if con.Union(0, 0) {
		t.Fatal("self-union reported a merge")
	}
}
