package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/obs"
)

// runObsGPU clusters a small planted graph on one traced device with the
// given recorder and options mutator, returning the result and timeline.
func runObsGPU(t *testing.T, rec *obs.Recorder, inj gpusim.FaultInjector, mut func(*Options)) (*Result, obs.DeviceTimeline) {
	t.Helper()
	g, _ := plantedTestGraph(400, 5)
	o := testOptions()
	o.Plan.BudgetWords = 60_000 // force several batches
	o.Obs = rec
	if mut != nil {
		mut(&o)
	}
	dev := gpusim.MustNew(gpusim.K20Config())
	dev.EnableTracing()
	if inj != nil {
		dev.SetFaultInjector(inj)
	}
	res, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	return res, obs.DeviceTimeline{Name: "device0", Events: dev.Trace()}
}

// TestObsDisabledBitIdentical is the acceptance gate for the zero-overhead
// contract: a run with a recorder attached must produce the exact same
// clustering and virtual timings as a run without one.
func TestObsDisabledBitIdentical(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		mut := func(o *Options) { o.Plan.Lanes = lanes }
		plain, _ := runObsGPU(t, nil, nil, mut)
		traced, _ := runObsGPU(t, obs.New(), nil, mut)
		if !reflect.DeepEqual(plain.Clustering, traced.Clustering) {
			t.Fatalf("lanes=%d: clustering differs with a recorder attached", lanes)
		}
		if plain.Timings != traced.Timings {
			t.Fatalf("lanes=%d: timings differ with a recorder attached:\nplain  %+v\ntraced %+v",
				lanes, plain.Timings, traced.Timings)
		}
	}
}

// near asserts relative closeness of two virtual durations summed in
// different orders (span sums vs the ledger's columns and device metrics).
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestObsTableSplitMatchesTimings regenerates the Table-I component split
// purely from spans + device trace and checks it against Timings.
func TestObsTableSplitMatchesTimings(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		rec := obs.New()
		res, tl := runObsGPU(t, rec, nil, func(o *Options) { o.Plan.Lanes = lanes })
		sp := obs.TableSplit(rec.Spans(), []obs.DeviceTimeline{tl})
		tm := res.Timings
		for _, c := range []struct {
			name       string
			span, accu float64
		}{
			{"CPU", sp.CPUNs, tm.CPUNs},
			{"GPU", sp.GPUNs, tm.GPUNs},
			{"H2D", sp.H2DNs, tm.H2DNs},
			{"D2H", sp.D2HNs, tm.D2HNs},
			{"DiskIO", sp.DiskIONs, tm.DiskIONs},
			{"Total", sp.TotalNs, tm.TotalNs},
		} {
			if !near(c.span, c.accu) {
				t.Errorf("lanes=%d %s: span-derived %.3f != timings %.3f",
					lanes, c.name, c.span, c.accu)
			}
		}
	}
}

// TestObsPhasesAndLanes checks the recorded structure of a pipelined run:
// the five host phases in order, per-batch spans, and both lane tracks.
func TestObsPhasesAndLanes(t *testing.T) {
	rec := obs.New()
	runObsGPU(t, rec, nil, func(o *Options) { o.Plan.Lanes = 2 })
	var phases []string
	tracks := map[string]int{}
	for _, s := range rec.Spans() {
		tracks[s.Track]++
		if s.Track == obs.TrackPhases {
			phases = append(phases, s.Name)
		}
		if s.EndNs < s.StartNs {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	want := []string{obs.NameRead, "shingle-pass1", "aggregate", "shingle-pass2", "report"}
	if !reflect.DeepEqual(phases, want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	if tracks["lane0"] == 0 || tracks["lane1"] == 0 {
		t.Fatalf("pipelined run recorded no lane spans: %v", tracks)
	}
	if tracks[obs.TrackHostCPU] == 0 {
		t.Fatalf("no host-cpu spans recorded: %v", tracks)
	}
}

// TestObsCountersMatchResult is the acceptance gate for metric exactness:
// every exported counter must equal the corresponding Result field, on a
// faulted pipelined run.
func TestObsCountersMatchResult(t *testing.T) {
	sched, err := faults.Parse("h2d op=2 count=2")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(sched)
	rec := obs.New()
	inj.SetRecorder(rec)
	res, _ := runObsGPU(t, rec, inj, func(o *Options) { o.Plan.Lanes = 2 })
	if !res.Faults.Any() {
		t.Fatal("fault schedule fired nothing; test needs a faulted run")
	}
	cv := func(name string) int64 { return rec.Counter(name, "").Value() }
	checks := []struct {
		name string
		want int64
	}{
		{"gpclust_tuples", res.Pass1.Tuples + res.Pass2.Tuples},
		{"gpclust_shingles", int64(res.Pass1.Shingles + res.Pass2.Shingles)},
		{"gpclust_batches", int64(res.Pass1.Batches + res.Pass2.Batches)},
		{"gpclust_fault_transfer_retries", res.Faults.TransferRetries},
		{"gpclust_fault_kernel_retries", res.Faults.KernelRetries},
		{"gpclust_fault_oom_retries", res.Faults.OOMRetries},
		{"gpclust_fault_oom_splits", res.Faults.OOMSplits},
		{"gpclust_fault_host_fallbacks", res.Faults.HostFallbacks},
		{"gpclust_fault_pipeline_restarts", res.Faults.Restarts},
	}
	for _, c := range checks {
		if got := cv(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := rec.Gauge("gpclust_clusters", "").Value(); got != float64(res.NumClusters()) {
		t.Errorf("gpclust_clusters = %g, want %d", got, res.NumClusters())
	}
	if got := rec.Gauge("gpclust_fault_backoff_ns", "").Value(); got != res.Faults.BackoffNs {
		t.Errorf("gpclust_fault_backoff_ns = %g, want %g", got, res.Faults.BackoffNs)
	}
	// The injector also marked its firings on the faults track.
	var faultInstants int
	for _, in := range rec.Instants() {
		if in.Track == obs.TrackFaults {
			faultInstants++
		}
	}
	if faultInstants == 0 {
		t.Error("no fault instants recorded by the injector")
	}
	if got := cv("gpclust_faults_injected"); got != int64(faultInstants) {
		t.Errorf("gpclust_faults_injected = %d, want %d instants", got, faultInstants)
	}
}

// stripWall removes the wall_ns args (the only nondeterministic bytes) from
// an exported trace so two seeded runs can be compared structurally.
func stripWall(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	evs, ok := doc["traceEvents"].([]any)
	if !ok {
		t.Fatalf("traceEvents missing or null in %s", raw)
	}
	for _, e := range evs {
		if m, ok := e.(map[string]any); ok {
			if args, ok := m["args"].(map[string]any); ok {
				delete(args, "wall_ns")
				if len(args) == 0 {
					delete(m, "args")
				}
			}
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestObsExportsDeterministic: two identical seeded pipelined runs export
// byte-identical metrics and (wall-clock args aside) identical merged
// traces, despite the nondeterministic order concurrent lanes record in.
func TestObsExportsDeterministic(t *testing.T) {
	export := func() ([]byte, []byte) {
		rec := obs.New()
		_, tl := runObsGPU(t, rec, nil, func(o *Options) { o.Plan.Lanes = 2 })
		var trace, metrics bytes.Buffer
		if err := obs.WriteMergedTrace(&trace, rec, []obs.DeviceTimeline{tl}); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteOpenMetrics(&metrics); err != nil {
			t.Fatal(err)
		}
		return trace.Bytes(), metrics.Bytes()
	}
	t1, m1 := export()
	t2, m2 := export()
	if !bytes.Equal(m1, m2) {
		t.Fatalf("metrics exports differ between identical runs:\n%s\nvs\n%s", m1, m2)
	}
	if !bytes.Equal(stripWall(t, t1), stripWall(t, t2)) {
		t.Fatal("merged-trace exports differ structurally between identical runs")
	}
}

// TestObsHostBackends: the host backends' ledger mirrors every charge as a
// span on its own clock, so TableSplit matches their Timings, and their
// counters match the Result.
func TestObsHostBackends(t *testing.T) {
	g, _ := plantedTestGraph(400, 5)
	for _, backend := range []string{"serial", "parallel"} {
		rec := obs.New()
		o := testOptions()
		o.Obs = rec
		var res *Result
		var err error
		switch backend {
		case "parallel":
			o.Workers = 3
			res, err = ClusterParallel(g, o)
		default:
			res, err = ClusterSerial(g, o)
		}
		if err != nil {
			t.Fatal(err)
		}
		sp := obs.TableSplit(rec.Spans(), nil)
		tm := res.Timings
		if !near(sp.ShingleNs, tm.ShingleNs) || !near(sp.CPUNs, tm.CPUNs) ||
			!near(sp.DiskIONs, tm.DiskIONs) || !near(sp.TotalNs, tm.TotalNs) {
			t.Errorf("%s: span split %+v != timings %+v", backend, sp, tm)
		}
		if got := rec.Counter("gpclust_tuples", "").Value(); got != res.Pass1.Tuples+res.Pass2.Tuples {
			t.Errorf("%s: gpclust_tuples = %d, want %d", backend, got, res.Pass1.Tuples+res.Pass2.Tuples)
		}
	}
}

// TestRetryBackoffOption pins satellite 3: Options.RetryBackoffNs scales the
// recovery stalls that used to be controlled by a mutable package variable.
func TestRetryBackoffOption(t *testing.T) {
	if (Options{RetryBackoffNs: -1}).retryBackoff() != DefaultRetryBackoffNs {
		// Validate() rejects negatives before any run; the resolver itself
		// only honors positive overrides.
		t.Fatal("negative RetryBackoffNs leaked through the resolver")
	}
	if got := (Options{}).retryBackoff(); got != DefaultRetryBackoffNs {
		t.Fatalf("zero RetryBackoffNs resolved to %g, want default %g", got, DefaultRetryBackoffNs)
	}
	if got := (Options{RetryBackoffNs: 5}).retryBackoff(); got != 5 {
		t.Fatalf("explicit RetryBackoffNs resolved to %g, want 5", got)
	}
	o := testOptions()
	o.RetryBackoffNs = -1
	if err := o.Validate(); err == nil {
		t.Fatal("Validate accepted negative RetryBackoffNs")
	}

	run := func(backoff float64) *Result {
		sched, err := faults.Parse("h2d op=2 count=2")
		if err != nil {
			t.Fatal(err)
		}
		g, _ := plantedTestGraph(300, 4)
		o := testOptions()
		o.RetryBackoffNs = backoff
		dev := gpusim.MustNew(gpusim.K20Config())
		dev.SetFaultInjector(faults.NewInjector(sched))
		res, err := ClusterGPU(g, dev, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small, large := run(1e3), run(1e6)
	if small.Faults.BackoffNs == 0 || large.Faults.BackoffNs == 0 {
		t.Fatal("fault schedule produced no retries")
	}
	if large.Faults.BackoffNs <= small.Faults.BackoffNs {
		t.Fatalf("RetryBackoffNs not honored: backoff %g (1e3 base) vs %g (1e6 base)",
			small.Faults.BackoffNs, large.Faults.BackoffNs)
	}
	if !reflect.DeepEqual(small.Clustering, large.Clustering) {
		t.Fatal("backoff setting changed the clustering")
	}
}
