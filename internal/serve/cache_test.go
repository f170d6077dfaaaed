package serve

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
)

// TestAssignCacheMatchesUncached runs one script against a cached server
// and an uncached one (CacheCap -1) on the GPU backend and requires equal
// answers, field by field, at every step. The script inserts members that
// score higher than a cached answer's member and inserts that relabel a
// cached member's family; answers a query in the same pass as an insert
// that adds its best member (the answer and its entry are as of the
// pre-pass residents); fails a refresh pass on the device (every kernel
// faults, no host fallback) and checks that the failure left every cache
// entry as it was; and refreshes a query with no new candidates, which
// scores no pair.
func TestAssignCacheMatchesUncached(t *testing.T) {
	corpus := bridgeOrder(t, testMetagenome(t, 100), 45)
	gpuConfig := func(cacheCap int) Config {
		cfg := serveConfig()
		cfg.CacheCap = cacheCap
		cfg.Pgraph.GPU = true
		cfg.Pgraph.NoHostFallback = true
		cfg.Pgraph.FaultRetries = -1
		cfg.Pgraph.Device = gpusim.MustNew(gpusim.K20Config())
		return cfg
	}
	// The cached server's passes wait at a gate that run opens once per
	// pass, so the script can also queue two requests into one pass.
	cfg := gpuConfig(0)
	gate := make(chan struct{})
	cached, err := newServer(cfg, gate)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cached.Close)
	t.Cleanup(func() { close(gate) }) // runs first: a failed script leaves no pass parked at the gate
	uncached, err := New(gpuConfig(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(uncached.Close)

	// run makes one request to the cached server, releasing the gate for
	// the pass it takes, if any (a cache hit takes none).
	run := func(f func()) {
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case gate <- struct{}{}:
			<-done
		case <-done:
		}
	}
	assign := func(q seq.Sequence) (res AssignResult, err error) {
		run(func() { res, err = cached.Assign(q) })
		return res, err
	}
	insert := func(seqs []seq.Sequence) {
		t.Helper()
		var err error
		run(func() { _, err = cached.Cluster(seqs) })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := uncached.Cluster(seqs); err != nil {
			t.Fatal(err)
		}
	}
	// Every query is asked twice per round: the repeat is the cached
	// server's hit (or, after inserts, its first ask is a refresh).
	round := func(label string, queries []seq.Sequence) []AssignResult {
		t.Helper()
		out := make([]AssignResult, len(queries))
		for i, q := range queries {
			want, err := uncached.Assign(q)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				got, err := assign(q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: query %d ask %d: cached %+v, uncached %+v", label, i, rep, got, want)
				}
			}
			out[i] = want
		}
		return out
	}

	queries := corpus[:80]
	insert(corpus[:40])
	r1 := round("40 resident", queries)
	insert(corpus[40:80])
	r2 := round("80 resident", queries)
	closer, relabeled := 0, 0
	for i := range queries {
		switch {
		case r2[i].Member != r1[i].Member:
			if r1[i].Member >= 40 || r2[i].Member < 40 {
				t.Fatalf("query %d: member %d → %d, want a member added since", i, r1[i].Member, r2[i].Member)
			}
			closer++
		case r1[i].Assigned && r2[i].Family != r1[i].Family:
			relabeled++
		}
	}
	if closer == 0 || relabeled == 0 {
		t.Fatalf("script covers %d closer members and %d relabeled families, want both > 0", closer, relabeled)
	}

	// One pass inserts corpus[80:90] and answers a first query for
	// corpus[85]: the answer is the pre-pass one, and so is the entry it
	// leaves.
	q := corpus[85]
	want, err := uncached.Assign(q)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res AssignResult
		err error
	}
	inserted, answered := make(chan error, 1), make(chan outcome, 1)
	requests := cached.met.requests.Value()
	go func() { _, err := cached.Cluster(corpus[80:90]); inserted <- err }()
	waitFor(t, "the scheduler to take the insert", func() bool {
		return len(cached.queue) == 0 && cached.met.requests.Value() == requests+1
	})
	go func() { res, err := cached.Assign(q); answered <- outcome{res, err} }()
	waitFor(t, "the query to queue", func() bool { return len(cached.queue) == 1 })
	gate <- struct{}{}
	insertErr, out := <-inserted, <-answered
	if insertErr != nil || out.err != nil {
		t.Fatalf("coalesced pass: insert %v, assign %v", insertErr, out.err)
	}
	got := out.res
	if got != want || got.Member >= 80 {
		t.Fatalf("query coalesced with the insert of its best member: %+v, pre-pass answer %+v", got, want)
	}
	if _, err := uncached.Cluster(corpus[80:90]); err != nil {
		t.Fatal(err)
	}

	// A refresh pass that fails on the device leaves the entries alone.
	snapshot := func() map[string]cacheEntry {
		cached.cacheMu.Lock()
		defer cached.cacheMu.Unlock()
		return maps.Clone(cached.cache)
	}
	before := snapshot()
	sch, err := faults.Parse("kernel op=1 count=1000000")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pgraph.Device.SetFaultInjector(faults.NewInjector(sch))
	if _, err := assign(q); !errors.Is(err, pgraph.ErrRetryBudget) {
		t.Fatalf("refresh pass under device faults returned %v, want ErrRetryBudget", err)
	}
	cfg.Pgraph.Device.SetFaultInjector(nil)
	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("failed pass changed the cache from %d to %d entries", len(before), len(after))
	}
	for k, e := range before {
		a := after[k]
		if a.member != e.member || a.score != e.score || a.n != e.n || !slices.Equal(a.keys, e.keys) {
			t.Fatalf("failed pass changed an entry: member %d score %d n %d → member %d score %d n %d (keys equal: %v)",
				e.member, e.score, e.n, a.member, a.score, a.n, slices.Equal(a.keys, e.keys))
		}
	}
	round("90 resident", corpus[:90])

	// A refresh whose query gains no candidates scores nothing.
	insert([]seq.Sequence{{ID: "unrelated", Residues: []byte("WWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWW")}})
	pairs0, misses0 := cached.met.pairs.Value(), cached.met.cacheMisses.Value()
	got, err = assign(corpus[0])
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := uncached.Assign(corpus[0]); got != want {
		t.Fatalf("refresh with no new candidates: cached %+v, uncached %+v", got, want)
	}
	if d := cached.met.pairs.Value() - pairs0; d != 0 {
		t.Fatalf("refresh with no new candidates scored %d pairs", d)
	}
	if cached.met.cacheMisses.Value() != misses0+1 {
		t.Fatal("refresh after an insert was not counted as a miss")
	}
}

// TestAssignCacheAdmitsWhenFull: a full cache admits each new query in
// place of an old one, never holding more than CacheCap entries.
func TestAssignCacheAdmitsWhenFull(t *testing.T) {
	corpus := testMetagenome(t, 30)
	cfg := serveConfig()
	cfg.CacheCap = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Cluster(corpus[:20]); err != nil {
		t.Fatal(err)
	}
	for i, q := range corpus[:12] {
		if _, err := s.Assign(q); err != nil {
			t.Fatal(err)
		}
		s.cacheMu.Lock()
		_, admitted := s.cache[string(q.Residues)]
		n := len(s.cache)
		s.cacheMu.Unlock()
		if !admitted || n > cfg.CacheCap {
			t.Fatalf("query %d: admitted %v, cache holds %d entries (cap %d)", i, admitted, n, cfg.CacheCap)
		}
		hits := s.met.cacheHits.Value()
		if _, err := s.Assign(q); err != nil {
			t.Fatal(err)
		}
		if s.met.cacheHits.Value() != hits+1 {
			t.Fatalf("query %d: repeat after admission was not a hit", i)
		}
	}
}

// bridgeOrder reorders corpus so that two sequences a and b which share
// no edge but have a common neighbour come first, and the rest of their
// family from index at on: a and b are resident in different families
// until the later inserts merge them, relabeling b's family with a's root.
func bridgeOrder(t *testing.T, corpus []seq.Sequence, at int) []seq.Sequence {
	t.Helper()
	g, _, err := pgraph.Build(corpus, serveConfig().Pgraph)
	if err != nil {
		t.Fatal(err)
	}
	linked := func(u, v uint32) bool { return slices.Contains(g.Neighbors(u), v) }
	for c := 0; c < g.NumVertices(); c++ {
		nb := g.Neighbors(uint32(c))
		for _, a := range nb {
			for _, b := range nb {
				if a >= b || linked(a, b) {
					continue
				}
				// The family: everything a reaches.
				family := map[uint32]bool{a: true}
				for stack := []uint32{a}; len(stack) > 0; {
					u := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, v := range g.Neighbors(u) {
						if !family[v] {
							family[v] = true
							stack = append(stack, v)
						}
					}
				}
				var later, rest []seq.Sequence
				for v := range corpus {
					switch {
					case v == int(a) || v == int(b):
					case family[uint32(v)]:
						later = append(later, corpus[v])
					default:
						rest = append(rest, corpus[v])
					}
				}
				out := append([]seq.Sequence{corpus[a], corpus[b]}, rest[:at-2]...)
				out = append(out, later...)
				return append(out, rest[at-2:]...)
			}
		}
	}
	t.Fatal("corpus has no two unlinked sequences with a common neighbour")
	return nil
}
