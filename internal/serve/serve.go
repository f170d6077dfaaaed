// Package serve is the resident clustering service: it builds (or loads) a
// clustered corpus once, keeps the union-find partition, the LSH candidate
// index and the device-resident verifier alive, and serves concurrent
// assign/cluster/dump requests against them — no world re-cluster per
// request.
//
// Architecture: requests are admitted through a bounded queue (full queue →
// typed ErrOverloaded, the backpressure signal) and drained by a single
// scheduler goroutine that coalesces everything queued into one pass: every
// pending insert and query contributes its candidate pairs to ONE merged
// device scoring call through the pgraph batch planner, amortizing the
// per-pass staging cost across requests. A pass has two stages on a pool of
// Pgraph.Workers goroutines (sched.ParallelFor): the shingle sets and band
// keys of its sequences, and, on the host, the Smith–Waterman scoring of its
// pairs. All mutation (index lookups and inserts, verifier growth,
// union-find Grow/Union) happens on the scheduler goroutine between them;
// concurrent readers resolve families through the lock-free union-find and
// the committed-state snapshot.
//
// The LSH index keeps a single-member bucket's member inline in its band
// and gives only shared buckets a member list; a band is a sorted array of
// buckets plus a map of the newest, so a resident sequence costs about
// 3 KB of index at gpbench's corpus shape.
//
// The assign cache keeps, per query, only what no commit can change: its
// band keys, its best accepted member among the first n resident sequences,
// and that n. Members are never removed and inserts only add members to
// buckets, so while n equals the committed count the answer is the cached
// member (its family root looked up afresh); once inserts have landed, the
// query takes a pass that skips its shingles and signatures and scores only
// its candidates ≥ n, extending the cached best.
//
// Incremental equals from-scratch: the LSH index emits exactly the batch
// filter's pair set under insertion (per-sequence band keys), acceptance is
// a pairwise threshold, and set union is order-independent — so the served
// partition is identical to re-clustering the union corpus from scratch
// with the same Filter "lsh" configuration. The acceptance tests pin this.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gpclust/internal/align"
	"gpclust/internal/faults"
	"gpclust/internal/obs"
	"gpclust/internal/pgraph"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
	"gpclust/internal/unionfind"
)

// ErrOverloaded is the typed admission reject: the bounded queue is full.
// Clients should back off and retry; the HTTP layer maps it to 503.
var ErrOverloaded = errors.New("serve: overloaded: admission queue full")

// ErrClosed reports a request submitted after Close.
var ErrClosed = errors.New("serve: server closed")

// Defaults for the zero-valued Config knobs.
const (
	DefaultQueueCap    = 256
	DefaultMaxCoalesce = 128
	DefaultCacheCap    = 4096
)

// Config configures a Server.
type Config struct {
	// Pgraph is the clustering configuration. Filter must be FilterLSH:
	// only the per-sequence LSH bucketing makes incremental insertion
	// equivalent to a from-scratch re-cluster (the exact filter depends on
	// global corpus structure and is rejected).
	Pgraph pgraph.Config

	// QueueCap bounds the admission queue; a full queue rejects with
	// ErrOverloaded. 0 means DefaultQueueCap.
	QueueCap int

	// MaxCoalesce caps how many queued requests one scheduler pass merges
	// into a single device scoring call. 0 means DefaultMaxCoalesce.
	MaxCoalesce int

	// CacheCap bounds the assign cache (entries; about 1 KB of band keys
	// each at the default shape); 0 means DefaultCacheCap, negative disables
	// caching. A full cache admits a new query in place of an old one.
	CacheCap int

	// Obs receives the server's metrics (and the verifier's spans if
	// Pgraph.Obs points at it too); nil allocates a private recorder.
	Obs *obs.Recorder
}

// AssignResult reports which resident family a query sequence belongs to.
type AssignResult struct {
	// Assigned is false when no resident sequence passed the similarity
	// threshold (Family and Member are then -1).
	Assigned bool
	// Family is the family's current root sequence index. Roots are stable
	// between commits; a later merge can relabel the family, so even a
	// cached answer looks its root up when it is served.
	Family int
	// Member is the best-scoring resident sequence, MemberID its FASTA id.
	Member   int
	MemberID string
	// Score is the Smith–Waterman score against Member.
	Score int32
}

// ClusterResult reports an incremental insert.
type ClusterResult struct {
	// Indices are the resident indices the inserted sequences received.
	Indices []int
	// Merges counts how many family merges this request's edges caused.
	Merges int
	// Families is the resident family count after the commit.
	Families int
}

// Stats is a point-in-time snapshot of the served state.
type Stats struct {
	Sequences int
	Families  int
	Epoch     int64
	Recovery  faults.Recovery // fault-recovery actions across all passes
}

type reqKind int

const (
	kindAssign reqKind = iota
	kindCluster
)

type request struct {
	kind reqKind
	seqs []seq.Sequence
	resp chan response
	sw   *sched.Stopwatch
	// cached is an assign query's cache entry from before inserts landed
	// (nil: a first-time query); its pass extends it by members ≥ n.
	cached *cacheEntry
}

type response struct {
	assign  AssignResult
	cluster ClusterResult
	err     error
}

// cacheEntry is what no commit can change about one assign query: its band
// keys (band b's at index b), and its best accepted member (-1: none) and
// that member's score among the first n resident sequences.
type cacheEntry struct {
	keys   []uint32
	member int
	score  int32
	n      int
}

// Server is the resident clustering service. Create with New, stop with
// Close. All exported methods are safe for concurrent use.
type Server struct {
	cfg   Config
	shape pgraph.LSHShape
	obs   *obs.Recorder
	met   *metrics

	queue chan *request
	quit  chan struct{}
	done  chan struct{}
	gate  chan struct{} // test hook: when non-nil, each pass blocks on it before draining

	closeMu sync.RWMutex
	closed  bool

	// Scheduler-goroutine-owned state: the verifier (resident encoded corpus
	// + device table), the LSH index, and the running union tally.
	verifier *pgraph.Verifier
	index    *lshIndex
	unions   int64 // successful unions ever; families = sequences - unions

	// Shared state. uf supports concurrent Find against scheduler-side
	// Grow/Union (see unionfind.Concurrent.Grow's contract); epoch counts
	// commits that changed resident state; resident is the committed
	// sequence count, which a cache entry must equal to answer alone.
	uf       *unionfind.Concurrent
	epoch    atomic.Int64
	resident atomic.Int64

	mu        sync.RWMutex // guards committed, families, recovery
	committed []seq.Sequence
	families  int
	recovery  faults.Recovery

	cacheMu sync.Mutex
	cache   map[string]cacheEntry
}

// New validates the configuration, readies the resident verifier (on the
// GPU backend this uploads the substitution table once, through the retry
// ladder) and starts the scheduler.
func New(cfg Config) (*Server, error) {
	return newServer(cfg, nil)
}

func newServer(cfg Config, gate chan struct{}) (*Server, error) {
	shape, err := pgraph.ResolveLSHShape(cfg.Pgraph)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	v, err := pgraph.NewVerifier(cfg.Pgraph)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.MaxCoalesce <= 0 {
		cfg.MaxCoalesce = DefaultMaxCoalesce
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = DefaultCacheCap
	}
	rec := cfg.Obs
	if rec == nil {
		rec = obs.New()
	}
	s := &Server{
		cfg:      cfg,
		shape:    shape,
		obs:      rec,
		met:      newMetrics(rec),
		queue:    make(chan *request, cfg.QueueCap),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		gate:     gate,
		verifier: v,
		index:    newLSHIndex(shape, cfg.Pgraph.MinExactMatch),
		uf:       unionfind.NewConcurrent(0),
		cache:    make(map[string]cacheEntry),
	}
	s.met.queueCap.Set(float64(cfg.QueueCap))
	go s.loop()
	return s, nil
}

// Close stops admission, lets the scheduler serve everything already
// queued, and releases the device state. Safe to call twice.
func (s *Server) Close() {
	s.closeMu.Lock()
	already := s.closed
	s.closed = true
	if !already {
		close(s.quit)
	}
	s.closeMu.Unlock()
	<-s.done
	if !already {
		s.verifier.Close()
	}
}

// Assign reports which resident family the query belongs to. A query
// cached since the last insert commit is answered without touching the
// scheduler: its cached member, in that member's current family. A query
// cached before inserts landed takes a pass that reuses its band keys and
// scores only the members added since (a cache miss, like a first-time
// query).
func (s *Server) Assign(q seq.Sequence) (AssignResult, error) {
	sw := sched.NewStopwatch()
	e, ok := s.cacheGet(string(q.Residues))
	if ok && e.n == int(s.resident.Load()) {
		res := s.answer(e.member, e.score)
		s.met.cacheHits.Inc()
		s.met.assignLatency.Observe(float64(sw.Total()))
		return res, nil
	}
	s.met.cacheMisses.Inc()
	r := &request{kind: kindAssign, seqs: []seq.Sequence{q}, resp: make(chan response, 1), sw: sw}
	if ok {
		r.cached = &e
	}
	if err := s.submit(r); err != nil {
		return AssignResult{}, err
	}
	out := <-r.resp
	return out.assign, out.err
}

// Cluster inserts a batch of sequences incrementally: they are bucketed
// into the resident index, their candidate pairs verified in the next
// coalesced device pass, and the accepted edges union-merged into the
// standing partition — never a world re-cluster.
func (s *Server) Cluster(seqs []seq.Sequence) (ClusterResult, error) {
	if len(seqs) == 0 {
		return ClusterResult{Families: s.Stats().Families}, nil
	}
	r := &request{kind: kindCluster, seqs: seqs, resp: make(chan response, 1), sw: sched.NewStopwatch()}
	if err := s.submit(r); err != nil {
		return ClusterResult{}, err
	}
	out := <-r.resp
	return out.cluster, out.err
}

// Partition returns each committed sequence's current family root — the
// label set the equivalence tests compare against a from-scratch Build.
func (s *Server) Partition() []int32 {
	s.mu.RLock()
	n := len(s.committed)
	s.mu.RUnlock()
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(s.uf.Find(i))
	}
	return out
}

// Dump returns the members of the family containing the given resident
// sequence index, with their indices.
func (s *Server) Dump(member int) ([]seq.Sequence, []int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if member < 0 || member >= len(s.committed) {
		return nil, nil, fmt.Errorf("serve: no resident sequence %d (have %d)", member, len(s.committed))
	}
	root := s.uf.Find(member)
	var out []seq.Sequence
	var ids []int
	for i := range s.committed {
		if s.uf.Find(i) == root {
			out = append(out, s.committed[i])
			ids = append(ids, i)
		}
	}
	return out, ids, nil
}

// Stats snapshots the served state.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Sequences: len(s.committed),
		Families:  s.families,
		Epoch:     s.epoch.Load(),
		Recovery:  s.recovery,
	}
}

// Recorder returns the metrics recorder (for /metrics and tests).
func (s *Server) Recorder() *obs.Recorder { return s.obs }

func (s *Server) submit(r *request) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.queue <- r:
		s.met.requests.Inc()
		s.met.queueDepth.Set(float64(len(s.queue)))
		return nil
	default:
		s.met.rejected.Inc()
		return ErrOverloaded
	}
}

// answer is the assign result for a best member (-1: none) and its score,
// in the member's current family.
func (s *Server) answer(member int, score int32) AssignResult {
	if member < 0 {
		return AssignResult{Family: -1, Member: -1}
	}
	s.mu.RLock()
	id := s.committed[member].ID
	s.mu.RUnlock()
	return AssignResult{Assigned: true, Family: s.uf.Find(member), Member: member, MemberID: id, Score: score}
}

func (s *Server) cacheGet(key string) (cacheEntry, bool) {
	if s.cfg.CacheCap < 0 {
		return cacheEntry{}, false
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	e, ok := s.cache[key]
	return e, ok
}

// cachePut stores a query's entry. Entries never go stale, so a full cache
// admits a new query in place of an arbitrary one (the first map iteration
// yields) rather than freezing on its first CacheCap queries.
func (s *Server) cachePut(key string, e cacheEntry) {
	if s.cfg.CacheCap < 0 {
		return
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if _, ok := s.cache[key]; !ok && len(s.cache) >= s.cfg.CacheCap {
		for k := range s.cache {
			delete(s.cache, k)
			break
		}
	}
	s.cache[key] = e
}

// next blocks for the next request; false means quit was signalled.
func (s *Server) next() (*request, bool) {
	select {
	case r := <-s.queue:
		return r, true
	case <-s.quit:
		return nil, false
	}
}

// drain non-blockingly appends queued requests up to the coalescing cap.
func (s *Server) drain(reqs []*request) []*request {
	for len(reqs) < s.cfg.MaxCoalesce {
		select {
		case r := <-s.queue:
			reqs = append(reqs, r)
		default:
			return reqs
		}
	}
	return reqs
}

// loop is the scheduler: it owns every mutation of the resident state and
// turns each drain into one coalesced pass.
func (s *Server) loop() {
	defer close(s.done)
	for {
		r, ok := s.next()
		if !ok {
			// Closed: serve whatever was admitted before shutdown.
			for {
				reqs := s.drain(nil)
				if len(reqs) == 0 {
					return
				}
				s.runPass(reqs)
			}
		}
		if s.gate != nil {
			<-s.gate
		}
		s.runPass(s.drain([]*request{r}))
	}
}

// passJob is one surviving request's staging record within a pass.
type passJob struct {
	req   *request
	keys  [][]uint32 // per sequence, its band keys
	ids   []int32    // verifier indices of the request's sequences
	cands [][]int32  // per sequence, distinct candidate members
}

// bucketAll fills the keys of every job without a cache entry on the
// worker pool, one sequence per index. Shingling and MinHash signatures
// are a pure function of each sequence and, after Smith–Waterman, most of
// a pass's work; the index lookups and inserts that use the keys stay on
// the scheduler goroutine.
func (s *Server) bucketAll(jobs []*passJob) {
	type ref struct{ j, i int }
	var refs []ref
	for ji, j := range jobs {
		if j.req.cached != nil {
			j.keys[0] = j.req.cached.keys
			continue
		}
		for i := range j.keys {
			refs = append(refs, ref{ji, i})
		}
	}
	sched.ParallelFor(s.cfg.Pgraph.WorkerCount(), len(refs), func(_, k int) {
		j := jobs[refs[k].j]
		j.keys[refs[k].i] = s.index.keys(j.req.seqs[refs[k].i].Residues)
	})
}

// runPass serves one coalesced batch of requests: stage every insert and
// query, score ALL their candidate pairs in one merged device pass, then
// commit (or roll back) atomically with respect to concurrent readers.
func (s *Server) runPass(reqs []*request) {
	s.met.passes.Inc()
	s.met.queueDepth.Set(float64(len(s.queue)))

	n0 := s.verifier.Len()
	mark := s.index.mark()

	// Validate up front so staging never partially applies a request.
	var live []*passJob
	for _, r := range reqs {
		var bad error
		for _, q := range r.seqs {
			if bad = align.ValidateSequence(q.Residues); bad != nil {
				break
			}
		}
		if bad != nil {
			s.respond(r, response{err: fmt.Errorf("serve: %w", bad)})
			continue
		}
		live = append(live, &passJob{req: r, keys: make([][]uint32, len(r.seqs))})
	}
	s.bucketAll(live)

	// Assign candidates come from the pre-pass resident index (a valid
	// serialization: queries run "before" this pass's inserts), so compute
	// them before staging anything. A cached query needs only the members
	// added since its entry.
	var assigns, clusters []*passJob
	for _, j := range live {
		if j.req.kind == kindAssign {
			from := 0
			if j.req.cached != nil {
				from = j.req.cached.n
			}
			j.cands = [][]int32{s.index.candidates(j.keys[0], int32(from))}
			assigns = append(assigns, j)
		}
	}

	// Stage cluster inserts: indices n0, n0+1, …; candidates include
	// earlier-staged members of the same pass, so inter-request pairs are
	// discovered exactly as a batch filter over the union corpus would.
	for _, j := range live {
		if j.req.kind != kindCluster {
			continue
		}
		for i, q := range j.req.seqs {
			id, err := s.verifier.Add(q) // cannot fail: validated above
			if err != nil {
				panic(fmt.Sprintf("serve: validated sequence rejected: %v", err))
			}
			j.ids = append(j.ids, int32(id))
			j.cands = append(j.cands, s.index.insert(int32(id), j.keys[i]))
		}
		clusters = append(clusters, j)
	}
	nc := s.verifier.Len() - n0

	// Stage assign queries after the inserts (indices n0+nc, …) so the
	// commit's truncation to n0+nc drops exactly them.
	for _, j := range assigns {
		id, err := s.verifier.Add(j.req.seqs[0])
		if err != nil {
			panic(fmt.Sprintf("serve: validated sequence rejected: %v", err))
		}
		j.ids = []int32{int32(id)}
	}

	// One merged pair list → one priced device pass for the whole batch.
	var pairs []pgraph.Pair
	for _, j := range clusters {
		for i, id := range j.ids {
			for _, m := range j.cands[i] {
				pairs = append(pairs, pgraph.Pair{A: m, B: id})
			}
		}
	}
	for _, j := range assigns {
		for _, m := range j.cands[0] {
			pairs = append(pairs, pgraph.Pair{A: m, B: j.ids[0]})
		}
	}
	scores, batches, err := s.verifier.Score(pairs)
	if err != nil {
		// Fault ladder exhausted (or NoHostFallback): roll the staged state
		// back and fail every request in the pass; resident state is
		// untouched.
		s.index.rollback(mark)
		s.verifier.Truncate(n0)
		for _, j := range append(clusters, assigns...) {
			s.respond(j.req, response{err: fmt.Errorf("serve: verification pass failed: %w", err)})
		}
		return
	}
	s.met.pairs.Add(int64(len(pairs)))
	s.met.batches.Add(int64(batches))

	// Commit: grow the partition, union the accepted edges, publish.
	if nc > 0 {
		s.uf.Grow(n0 + nc)
	}
	edges, merges := 0, 0
	jobMerges := make(map[*passJob]int, len(clusters))
	pi := 0
	for _, j := range clusters {
		for i := range j.ids {
			for range j.cands[i] {
				p, sc := pairs[pi], scores[pi]
				pi++
				if s.verifier.Accept(sc, int(p.A), int(p.B)) {
					edges++
					if s.uf.Union(int(p.A), int(p.B)) {
						merges++
						jobMerges[j]++
					}
				}
			}
		}
	}
	// Each query's best accepted member among the n0 pre-pass residents:
	// the cached best (members below its n) extended by the candidates
	// scored here. A cached member is below every new one, so the tie rule
	// keeps it on a tie, as a from-scratch scan would.
	bests := make(map[*passJob]cacheEntry, len(assigns))
	for _, j := range assigns {
		b := cacheEntry{keys: j.keys[0], member: -1, n: n0}
		if c := j.req.cached; c != nil {
			b.member, b.score = c.member, c.score
		}
		for _, m := range j.cands[0] {
			p, sc := pairs[pi], scores[pi]
			pi++
			if !s.verifier.Accept(sc, int(p.A), int(p.B)) {
				continue
			}
			if b.member < 0 || sc > b.score || (sc == b.score && int(m) < b.member) {
				b.member, b.score = int(m), sc
			}
		}
		bests[j] = b
	}

	s.index.commit()
	s.verifier.Truncate(n0 + nc) // drop the transient assign queries
	s.unions += int64(merges)
	families := (n0 + nc) - int(s.unions)

	s.mu.Lock()
	for _, j := range clusters {
		s.committed = append(s.committed, j.req.seqs...)
	}
	s.families = families
	s.recovery = s.verifier.Recovery()
	s.resident.Store(int64(n0 + nc))
	s.mu.Unlock()
	if nc > 0 || merges > 0 {
		s.epoch.Add(1)
	}

	s.met.edges.Add(int64(edges))
	s.met.merges.Add(int64(merges))
	s.met.sequences.Set(float64(n0 + nc))
	s.met.families.Set(float64(families))

	// Respond after publication, caching each query's best among the n0
	// residents it was scored against.
	for _, j := range clusters {
		ids := make([]int, len(j.ids))
		for i, id := range j.ids {
			ids[i] = int(id)
		}
		s.respond(j.req, response{cluster: ClusterResult{Indices: ids, Merges: jobMerges[j], Families: families}})
	}
	for _, j := range assigns {
		b := bests[j]
		s.cachePut(string(j.req.seqs[0].Residues), b)
		s.respond(j.req, response{assign: s.answer(b.member, b.score)})
	}
}

func (s *Server) respond(r *request, out response) {
	if out.err != nil {
		s.met.failed.Inc()
	}
	if r.kind == kindAssign {
		s.met.assignLatency.Observe(float64(r.sw.Total()))
	} else {
		s.met.clusterLatency.Observe(float64(r.sw.Total()))
	}
	r.resp <- out
}
