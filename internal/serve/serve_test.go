package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
	"gpclust/internal/unionfind"
)

func testMetagenome(t testing.TB, n int) []seq.Sequence {
	t.Helper()
	cfg := seq.DefaultMetagenomeConfig(n)
	cfg.Seed = 7
	m, err := seq.GenerateMetagenome(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Seqs
}

func serveConfig() Config {
	p := pgraph.DefaultConfig()
	p.Filter = pgraph.FilterLSH
	return Config{Pgraph: p}
}

// refPartition re-clusters the corpus from scratch with the same pgraph
// configuration and labels each sequence with its component root.
func refPartition(t *testing.T, seqs []seq.Sequence, pcfg pgraph.Config) []int32 {
	t.Helper()
	g, _, err := pgraph.Build(seqs, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	uf := unionfind.New(len(seqs))
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			uf.Union(v, int(u))
		}
	}
	out := make([]int32, len(seqs))
	for i := range out {
		out[i] = int32(uf.Find(i))
	}
	return out
}

// samePartition checks a and b are the same set partition (labels may
// differ; the classes must match bijectively).
func samePartition(t *testing.T, label string, a, b []int32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths differ: %d vs %d", label, len(a), len(b))
	}
	ab := make(map[int32]int32)
	ba := make(map[int32]int32)
	for i := range a {
		if m, ok := ab[a[i]]; ok && m != b[i] {
			t.Fatalf("%s: element %d splits class %d across %d and %d", label, i, a[i], m, b[i])
		}
		if m, ok := ba[b[i]]; ok && m != a[i] {
			t.Fatalf("%s: element %d joins classes %d and %d into %d", label, i, a[i], m, b[i])
		}
		ab[a[i]] = b[i]
		ba[b[i]] = a[i]
	}
}

// TestIncrementalEqualsFromScratch is the tentpole guarantee: inserting the
// corpus in chunks (with assign queries interleaved, which must not perturb
// state) yields the exact partition of a from-scratch re-cluster of the
// whole corpus. It runs with one pool worker and with four: a pass's band
// keys and host Smith–Waterman run on Pgraph.Workers.
func TestIncrementalEqualsFromScratch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("Workers=%d", workers), func(t *testing.T) {
			testIncrementalEqualsFromScratch(t, workers)
		})
	}
}

func testIncrementalEqualsFromScratch(t *testing.T, workers int) {
	corpus := testMetagenome(t, 120)
	cfg := serveConfig()
	cfg.Pgraph.Workers = workers
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for lo := 0; lo < len(corpus); lo += 40 {
		hi := min(lo+40, len(corpus))
		res, err := s.Cluster(corpus[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range res.Indices {
			if idx != lo+i {
				t.Fatalf("chunk %d: sequence %d landed at index %d", lo, lo+i, idx)
			}
		}
		// Interleave queries; they must leave resident state untouched.
		if _, err := s.Assign(corpus[lo]); err != nil {
			t.Fatal(err)
		}
	}

	got := s.Partition()
	want := refPartition(t, corpus, cfg.Pgraph)
	samePartition(t, "incremental vs from-scratch", want, got)

	st := s.Stats()
	if st.Sequences != len(corpus) {
		t.Fatalf("Stats.Sequences = %d, want %d", st.Sequences, len(corpus))
	}
	roots := make(map[int32]bool)
	for _, r := range want {
		roots[r] = true
	}
	if st.Families != len(roots) {
		t.Fatalf("Stats.Families = %d, want %d", st.Families, len(roots))
	}
}

// TestIncrementalEqualsFromScratchGPU runs the same guarantee through the
// device-backed verifier with a small batch budget, so a single coalesced
// pass spans several priced device batches.
func TestIncrementalEqualsFromScratchGPU(t *testing.T) {
	corpus := testMetagenome(t, 60)
	cfg := serveConfig()
	cfg.Pgraph.GPU = true
	cfg.Pgraph.Plan.BudgetWords = 2_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for lo := 0; lo < len(corpus); lo += 20 {
		if _, err := s.Cluster(corpus[lo:min(lo+20, len(corpus))]); err != nil {
			t.Fatal(err)
		}
	}
	host := serveConfig()
	samePartition(t, "gpu incremental vs from-scratch", refPartition(t, corpus, host.Pgraph), s.Partition())
}

// TestAssignMatchesResidentFamily: a query identical to a resident member
// must be assigned to that member's family; a garbage query must not.
func TestAssignMatchesResidentFamily(t *testing.T) {
	corpus := testMetagenome(t, 60)
	cfg := serveConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Cluster(corpus); err != nil {
		t.Fatal(err)
	}
	part := s.Partition()
	res, err := s.Assign(corpus[3])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assigned {
		t.Fatal("query identical to resident sequence 3 was not assigned")
	}
	if int32(res.Family) != part[3] {
		t.Fatalf("assigned to family %d, member 3 is in %d", res.Family, part[3])
	}
	short, err := s.Assign(seq.Sequence{ID: "short", Residues: []byte("AAA")})
	if err != nil {
		t.Fatal(err)
	}
	if short.Assigned {
		t.Fatalf("sub-shingle-length query assigned to family %d", short.Family)
	}
}

// TestAssignCache: identical queries between commits are served from the
// cache; after an insert commit the query is a miss (it takes a pass that
// scores the members added since), and the refreshed answer reflects the
// current partition.
func TestAssignCache(t *testing.T) {
	corpus := testMetagenome(t, 80)
	cfg := serveConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Cluster(corpus[:60]); err != nil {
		t.Fatal(err)
	}
	q := corpus[5]
	first, err := s.Assign(q)
	if err != nil {
		t.Fatal(err)
	}
	misses0 := s.met.cacheMisses.Value()
	hits0 := s.met.cacheHits.Value()
	second, err := s.Assign(q)
	if err != nil {
		t.Fatal(err)
	}
	if s.met.cacheHits.Value() != hits0+1 || s.met.cacheMisses.Value() != misses0 {
		t.Fatalf("repeat query was not a cache hit (hits %d→%d, misses %d→%d)",
			hits0, s.met.cacheHits.Value(), misses0, s.met.cacheMisses.Value())
	}
	if second != first {
		t.Fatalf("cached answer %+v differs from original %+v", second, first)
	}

	// A cluster commit (inserts, possibly merges) sends the query back
	// through a pass.
	if _, err := s.Cluster(corpus[60:]); err != nil {
		t.Fatal(err)
	}
	third, err := s.Assign(q)
	if err != nil {
		t.Fatal(err)
	}
	if s.met.cacheMisses.Value() != misses0+1 {
		t.Fatal("post-commit query was answered without a pass")
	}
	if !third.Assigned {
		t.Fatal("query lost its family after more inserts")
	}
	// The fresh answer must agree with the current partition.
	part := s.Partition()
	if int32(third.Family) != part[third.Member] {
		t.Fatalf("fresh assign family %d disagrees with partition root %d", third.Family, part[third.Member])
	}
}

// TestBackpressureTypedReject: with a full queue, admission fails fast with
// ErrOverloaded and the rejection counter moves; nothing blocks.
func TestBackpressureTypedReject(t *testing.T) {
	corpus := testMetagenome(t, 12)
	cfg := serveConfig()
	cfg.QueueCap = 1
	gate := make(chan struct{})
	s, err := newServer(cfg, gate)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		s.Close()
	}()

	done := make([]chan error, 2)
	for i := range done {
		done[i] = make(chan error, 1)
	}
	// First request: the scheduler picks it up and parks at the gate.
	go func() { _, err := s.Cluster(corpus[:4]); done[0] <- err }()
	waitFor(t, "scheduler to take the first request", func() bool {
		return len(s.queue) == 0 && s.met.requests.Value() == 1
	})
	// Second request fills the 1-slot queue.
	go func() { _, err := s.Cluster(corpus[4:8]); done[1] <- err }()
	waitFor(t, "queue to fill", func() bool { return len(s.queue) == 1 })

	// Third request must be rejected, typed, without blocking.
	if _, err := s.Cluster(corpus[8:]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue returned %v, want ErrOverloaded", err)
	}
	if s.met.rejected.Value() == 0 {
		t.Fatal("rejection counter did not move")
	}

	// One release suffices: the unblocked pass drains the queued request
	// too and serves both.
	gate <- struct{}{}
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
}

// TestPassCoalescing: requests queued while the scheduler is busy are all
// merged into ONE pass (one merged device scoring call), pinned via the
// gate hook and the pass counter.
func TestPassCoalescing(t *testing.T) {
	corpus := testMetagenome(t, 40)
	cfg := serveConfig()
	gate := make(chan struct{})
	s, err := newServer(cfg, gate)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		s.Close()
	}()

	const clients = 8
	type outcome struct {
		res ClusterResult
		err error
	}
	done := make([]chan outcome, clients)
	for i := 0; i < clients; i++ {
		done[i] = make(chan outcome, 1)
		go func(i int) {
			res, err := s.Cluster(corpus[i*5 : (i+1)*5])
			done[i] <- outcome{res, err}
		}(i)
	}
	// All clients admitted: one held by the scheduler at the gate, the rest
	// queued.
	waitFor(t, "all requests admitted", func() bool {
		return s.met.requests.Value() == clients && len(s.queue) == clients-1
	})
	passes0 := s.met.passes.Value()
	gate <- struct{}{}
	// Clients are served in admission order, not corpus order: arrange the
	// union corpus by the indices each insert actually received.
	arranged := make([]seq.Sequence, len(corpus))
	for i := 0; i < clients; i++ {
		out := <-done[i]
		if out.err != nil {
			t.Fatalf("client %d: %v", i, out.err)
		}
		for k, idx := range out.res.Indices {
			arranged[idx] = corpus[i*5+k]
		}
	}
	if got := s.met.passes.Value() - passes0; got != 1 {
		t.Fatalf("%d requests took %d passes, want 1 coalesced pass", clients, got)
	}
	// Coalescing must not change the outcome.
	samePartition(t, "coalesced vs from-scratch", refPartition(t, arranged, cfg.Pgraph), s.Partition())
}

// TestDumpFamily: Dump returns exactly the family's members.
func TestDumpFamily(t *testing.T) {
	corpus := testMetagenome(t, 40)
	s, err := New(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Cluster(corpus); err != nil {
		t.Fatal(err)
	}
	part := s.Partition()
	seqs, ids, err := s.Dump(0)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, r := range part {
		if r == part[0] {
			want = append(want, i)
		}
	}
	if len(ids) != len(want) {
		t.Fatalf("Dump(0) returned %d members, want %d", len(ids), len(want))
	}
	for i, id := range ids {
		if id != want[i] {
			t.Fatalf("Dump(0) member %d = %d, want %d", i, id, want[i])
		}
		if seqs[i].ID != corpus[id].ID {
			t.Fatalf("Dump(0) member %d has ID %q, want %q", i, seqs[i].ID, corpus[id].ID)
		}
	}
	if _, _, err := s.Dump(len(corpus)); err == nil {
		t.Fatal("Dump past the resident range did not error")
	}
}

// TestInvalidSequenceRejectedAtomically: a request with one bad residue
// fails whole, leaving resident state untouched.
func TestInvalidSequenceRejectedAtomically(t *testing.T) {
	corpus := testMetagenome(t, 20)
	s, err := New(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Cluster(corpus[:10]); err != nil {
		t.Fatal(err)
	}
	bad := []seq.Sequence{corpus[10], {ID: "bad", Residues: []byte("NOT*VALID")}}
	if _, err := s.Cluster(bad); err == nil {
		t.Fatal("invalid residue accepted")
	}
	if got := s.Stats().Sequences; got != 10 {
		t.Fatalf("failed request changed resident count to %d", got)
	}
	// The survivor must still be insertable and the state coherent.
	if _, err := s.Cluster(corpus[10:]); err != nil {
		t.Fatal(err)
	}
	samePartition(t, "after rejected request", refPartition(t, corpus, s.cfg.Pgraph), s.Partition())
}

// TestClosedServerRejects: requests after Close fail typed; Close is
// idempotent.
func TestClosedServerRejects(t *testing.T) {
	s, err := New(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Assign(seq.Sequence{ID: "q", Residues: []byte("ACDEFGHIKLMNPQRS")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed server returned %v, want ErrClosed", err)
	}
	s.Close()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
