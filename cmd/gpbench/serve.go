package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
	"gpclust/internal/serve"
	"gpclust/internal/unionfind"
)

// serveShape sizes serve-mixed. Bootstrap ORFs are clustered at set-up;
// the rest form the insert pool that Cluster requests draw from. The run is
// cycles equal cycles, each phase 1, an open loop at rate requests per second
// for phase1Share of the cycle, then phase 2, a closed loop of clients for
// the rest (or until the pool runs out). Cycling makes both phases sample
// the whole run: this host's speed dips by up to 40% for seconds at a time,
// and one closed-loop block caught in a dip read that much slower.
type serveShape struct {
	boot, pool  int
	rate        float64
	clients     int
	phase1Share float64
	cycles      int
}

// The phase-1 rate is about 0.55 of the knee measured by a --rate sweep of
// this shape (the highest rate whose assign p90 stays within 5 ms: 600 to
// 800 requests/s on a 2-vCPU host; README.md has the sweeps). There queueing
// already lifts the p90, and a change that costs about 40% of the capacity
// crosses the knee and moves the median.
func serveShapeFor(o options) serveShape {
	s := serveShape{boot: 1200, pool: 3600, rate: 400, clients: 64, phase1Share: 0.6, cycles: 8}
	if o.quick {
		s = serveShape{boot: 120, pool: 240, rate: 100, clients: 8, phase1Share: 0.6, cycles: 2}
	}
	if o.rate > 0 {
		s.rate = o.rate
	}
	return s
}

const (
	insertShare = 0.10 // share of requests that are single-ORF Cluster inserts
	zipfS       = 1.1  // skew of assign keys over resident members
	warmupReqs  = 50   // sequential assigns after set-up, not measured
)

// serveRun is one serve-mixed run's state.
type serveRun struct {
	shape    serveShape
	seed     int64
	corpus   []seq.Sequence // shuffled: bootstrap first, then the pool
	srv      *serve.Server
	resident []seq.Sequence // by resident index; inserts fill in as acknowledged
	nextPool atomic.Int64   // next pool ORF to insert
	wrong    atomic.Int64   // resident-member assigns answered "not assigned"
}

// setup generates the corpus and starts a server with the gpclust-serve
// defaults (FilterLSH, host verify, cache on), bootstrapped with the first
// boot ORFs: the work a service does before it can answer.
func (r *serveRun) setup() error {
	seqs, err := corpus(r.shape.boot+r.shape.pool, r.seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
	r.corpus = seqs
	pcfg := pgraph.DefaultConfig()
	pcfg.Filter = pgraph.FilterLSH
	srv, err := serve.New(serve.Config{Pgraph: pcfg})
	if err != nil {
		return err
	}
	res, err := srv.Cluster(seqs[:r.shape.boot])
	if err != nil {
		srv.Close()
		return fmt.Errorf("bootstrap: %w", err)
	}
	if len(res.Indices) != r.shape.boot {
		srv.Close()
		return fmt.Errorf("bootstrap acknowledged %d of %d ORFs", len(res.Indices), r.shape.boot)
	}
	r.srv = srv
	r.resident = make([]seq.Sequence, len(seqs))
	copy(r.resident, seqs[:r.shape.boot])
	r.nextPool.Store(int64(r.shape.boot))
	return nil
}

// send issues one request and records its outcome. An assign always asks for
// a resident member, which must come back assigned. A cluster insert takes
// the next pool ORF; ok is false when the pool is exhausted.
func (r *serveRun) send(kind string, member int) (failed, ok bool) {
	if kind == "assign" {
		res, err := r.srv.Assign(r.corpus[member])
		if err == nil && !res.Assigned {
			r.wrong.Add(1)
		}
		return err != nil || !res.Assigned, true
	}
	i := int(r.nextPool.Add(1) - 1)
	if i >= len(r.corpus) {
		return false, false
	}
	res, err := r.srv.Cluster(r.corpus[i : i+1])
	if err != nil {
		return true, true
	}
	r.resident[res.Indices[0]] = r.corpus[i]
	return false, true
}

// keyPicker draws request kinds and Zipf-skewed resident assign keys. Every
// request gets a key, so an insert that finds the pool empty can ask instead.
type keyPicker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int // rank → bootstrap member, so hot keys are random members
}

func newKeyPicker(seed int64, boot int) *keyPicker {
	rng := rand.New(rand.NewSource(seed))
	return &keyPicker{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(boot-1)), perm: rng.Perm(boot)}
}

func (k *keyPicker) next() (kind string, member int) {
	member = k.perm[k.zipf.Uint64()]
	if k.rng.Float64() < insertShare {
		return "cluster", member
	}
	return "assign", member
}

// counters snapshots the server's obs counters the per-layer metrics use.
func (r *serveRun) counters() map[string]int64 {
	rec := r.srv.Recorder()
	out := map[string]int64{}
	for _, n := range []string{"serve_requests_total", "serve_passes_total", "serve_pairs_total",
		"serve_edges_total", "serve_cache_hits_total", "serve_cache_misses_total"} {
		out[n] = rec.Counter(n, "").Value()
	}
	return out
}

// runServe runs serve-mixed: set-up (o.setups() times; the last server is
// kept), warm-up, the cycles of phase 1 (open loop) and phase 2 (closed
// loop), then the checks. p50_ms pools phase 1's assigns over the cycles;
// ops_per_s is the median of the cycles' phase-2 rates.
func runServe(o options) (*report, error) {
	rep := newReport()
	client := newClientTrace()
	r := &serveRun{shape: serveShapeFor(o), seed: o.seed}

	var setups []float64
	for i := 0; i < o.setups(); i++ {
		if r.srv != nil {
			r.srv.Close()
		}
		runtime.GC()
		t0 := client.now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t1 := client.now()
		client.add(clientSpan{name: "setup", tid: 0, startNs: t0, endNs: t1, id: i})
		setups = append(setups, float64(t1-t0)/1e9)
	}
	defer r.srv.Close()
	rep.samples["setup_s"] = summarize(setups)
	rep.values["setup_s"] = rep.samples["setup_s"].Med

	for i := 0; i < warmupReqs; i++ {
		if failed, _ := r.send("assign", (i*7919)%r.shape.boot); failed {
			return nil, fmt.Errorf("warm-up assign of resident member failed")
		}
	}

	fails := func(reqs []request) (n int) {
		for _, q := range reqs {
			if q.failed {
				n++
			}
		}
		return n
	}
	openKeys := newKeyPicker(r.seed+1, r.shape.boot)
	clientKeys := make([]*keyPicker, r.shape.clients)
	for c := range clientKeys {
		clientKeys[c] = newKeyPicker(r.seed+100+int64(c), r.shape.boot)
	}
	cycleNs := int64(o.seconds * 1e9 / float64(r.shape.cycles))
	openNs := int64(float64(cycleNs) * r.shape.phase1Share)

	before := r.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var open, closed []request
	var closedRates []float64 // successful requests per second of each cycle's phase 2
	for c := 0; c < r.shape.cycles; c++ {
		open = append(open, r.openLoop(openNs, openKeys, len(open), client)...)
		reqs, ns := r.closedLoop(cycleNs-openNs, clientKeys, client)
		closed = append(closed, reqs...)
		if len(reqs) > 0 {
			closedRates = append(closedRates, float64(len(reqs)-fails(reqs))/(float64(ns)/1e9))
		}
	}
	runtime.ReadMemStats(&m1)
	rep.values["peak_rss_mb"] = peakRSSMB()
	after := r.counters()
	if len(closedRates) == 0 {
		return nil, fmt.Errorf("phase 2 completed no requests")
	}

	f1, f2 := fails(open), fails(closed)
	rep.attempted = len(open) + len(closed)
	rep.failed = f1 + f2
	rep.values["serve.phase1_sent"] = float64(len(open))
	rep.values["serve.phase1_failed"] = float64(f1)
	rep.values["serve.phase1_succeeded"] = float64(len(open) - f1)
	rep.values["serve.phase2_sent"] = float64(len(closed))
	rep.values["serve.phase2_failed"] = float64(f2)
	rep.values["serve.phase2_succeeded"] = float64(len(closed) - f2)

	assignLat, lateMax := openLoopStats(open, "assign")
	if len(assignLat) == 0 {
		return nil, fmt.Errorf("phase 1 completed no assign requests")
	}
	lat := summarize(assignLat)
	rep.samples["p50_ms"] = lat
	rep.values["p50_ms"] = lat.Med
	rep.values["latency.p90_ms"] = percentile(assignLat, 90)
	rep.values["latency.samples"] = float64(len(assignLat))
	rep.values["latency.tail_pct"], rep.values["latency.tail_ms"] = tail(assignLat)
	rep.values["serve.generator_late_ms_max"] = lateMax
	insertLat, _ := openLoopStats(open, "cluster")
	rep.values["serve.insert_p50_ms"] = percentile(insertLat, 50)
	rep.values["serve.insert_p90_ms"] = percentile(insertLat, 90)
	rep.samples["ops_per_s"] = summarize(closedRates)
	rep.values["ops_per_s"] = rep.samples["ops_per_s"].Med

	d := func(name string) float64 { return float64(after[name] - before[name]) }
	rep.values["serve.requests_per_pass"] = ratio(d("serve_requests_total"), d("serve_passes_total"))
	rep.values["serve.pairs_per_request"] = ratio(d("serve_pairs_total"), d("serve_requests_total"))
	rep.values["serve.accept_ratio"] = ratio(d("serve_edges_total"), d("serve_pairs_total"))
	rep.values["serve.cache_hit_ratio"] = ratio(d("serve_cache_hits_total"), d("serve_cache_hits_total")+d("serve_cache_misses_total"))
	if n := float64(rep.attempted); n > 0 {
		rep.values["runtime.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / n
		rep.values["runtime.gc_per_op"] = float64(m1.NumGC-m0.NumGC) / n
	}

	if o.traced && o.traceDir != "" {
		if err := writeTraces(o.traceDir, o.workload, r.srv.Recorder(), nil, client); err != nil {
			return nil, fmt.Errorf("write traces: %w", err)
		}
	}
	if n := r.wrong.Load(); n > 0 {
		rep.fail("%d assigns of resident members came back unassigned", n)
	}
	if err := r.checkPartition(); err != nil {
		rep.fail("%v", err)
	}
	return rep, nil
}

// openLoop sends requests drawn from picker on a fixed schedule for durNs,
// each on its own goroutine, whether or not earlier ones have been answered
// (independent users), and waits for every answer. Each request is timed from
// when it was due; firstID numbers the phase's first request in the trace.
func (r *serveRun) openLoop(durNs int64, picker *keyPicker, firstID int, client *clientTrace) []request {
	n := int(float64(durNs) / 1e9 * r.shape.rate)
	interval := 1e9 / r.shape.rate
	reqs := make([]request, n)
	members := make([]int, n)
	for i := range reqs {
		reqs[i].kind, members[i] = picker.next()
	}
	var wg sync.WaitGroup
	t0 := client.now()
	for i := range reqs {
		due := t0 + int64(float64(i)*interval)
		if wait := due - client.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		wg.Add(1)
		go func(i int, due int64) {
			defer wg.Done()
			q := &reqs[i]
			q.dueNs, q.sentNs = due, client.now()
			failed, ok := r.send(q.kind, members[i])
			if !ok { // pool exhausted: ask instead of inserting
				q.kind = "assign"
				failed, _ = r.send(q.kind, members[i])
			}
			q.doneNs, q.failed = client.now(), failed
			client.add(clientSpan{name: q.kind, tid: 3, startNs: q.sentNs, endNs: q.doneNs, id: firstID + i})
		}(i, due)
	}
	wg.Wait()
	return reqs
}

// closedLoop runs one client per picker, each sending its next request only
// after the previous answer (callers that wait), until durNs has passed or
// the insert pool is exhausted. It returns the requests and the phase's
// duration.
func (r *serveRun) closedLoop(durNs int64, pickers []*keyPicker, client *clientTrace) ([]request, int64) {
	t0 := client.now()
	var stop atomic.Bool
	per := make([][]request, len(pickers))
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() && client.now()-t0 < durNs {
				kind, member := pickers[c].next()
				start := client.now()
				failed, ok := r.send(kind, member)
				if !ok {
					stop.Store(true)
					return
				}
				end := client.now()
				per[c] = append(per[c], request{kind: kind, dueNs: start, sentNs: start, doneNs: end, failed: failed})
				client.add(clientSpan{name: kind, tid: 4 + c, startNs: start, endNs: end, id: len(per[c]) - 1})
			}
		}(c)
	}
	wg.Wait()
	elapsed := client.now() - t0
	var all []request
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].dueNs < all[j].dueNs })
	return all, elapsed
}

// checkPartition compares the resident partition with a from-scratch build
// of exactly the acknowledged corpus, in resident order, under the same
// configuration: incremental serving must equal batch clustering.
func (r *serveRun) checkPartition() error {
	got := r.srv.Partition()
	acked := r.resident[:len(got)]
	for i, s := range acked {
		if s.Residues == nil {
			return fmt.Errorf("resident index %d was never acknowledged to a client", i)
		}
	}
	pcfg := pgraph.DefaultConfig()
	pcfg.Filter = pgraph.FilterLSH
	g, _, err := pgraph.Build(acked, pcfg)
	if err != nil {
		return fmt.Errorf("from-scratch reference build: %w", err)
	}
	uf := unionfind.New(g.NumVertices())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			uf.Union(u, int(v))
		}
	}
	if !samePartition(got, uf.Labels()) {
		return fmt.Errorf("resident partition of %d sequences differs from a from-scratch build", len(got))
	}
	return nil
}

// samePartition reports whether two labelings induce the same partition.
func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd, rev := map[int32]int32{}, map[int32]int32{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := rev[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]], rev[b[i]] = b[i], a[i]
	}
	return true
}
