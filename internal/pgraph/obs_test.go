package pgraph

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/obs"
)

func obsNear(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestObsRecorderGPUBuild checks the GPU build's recorded structure: the
// filter/verify phases, per-batch spans, a split that matches Stats, and
// counters equal to Stats — plus the bit-identical contract against a
// recorder-free build.
func TestObsRecorderGPUBuild(t *testing.T) {
	seqs := testMetagenome(t, 120)
	base := DefaultConfig()
	base.GPU = true
	// Small enough that even the packed layout (which fits more pairs
	// per batch) schedules several batches.
	base.Plan.BudgetWords = 3_000
	base.Device = gpusim.MustNew(gpusim.K20Config())
	gPlain, stPlain, err := Build(seqs, base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	rec := obs.New()
	cfg.Obs = rec
	cfg.Device = gpusim.MustNew(gpusim.K20Config())
	cfg.Device.EnableTracing()
	g, st, err := Build(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, "recorder attached", gPlain, g)
	if st.TotalNs != stPlain.TotalNs || st.AlignNs != stPlain.AlignNs {
		t.Fatalf("recorder changed virtual times: %+v vs %+v", st, stPlain)
	}

	var phases []string
	tracks := map[string]int{}
	for _, s := range rec.Spans() {
		tracks[s.Track]++
		if s.Track == obs.TrackPhases {
			phases = append(phases, s.Name)
		}
	}
	if !reflect.DeepEqual(phases, []string{"filter", "verify"}) {
		t.Fatalf("phases = %v, want [filter verify]", phases)
	}
	if tracks[obs.TrackBatches] == 0 {
		t.Fatalf("build recorded no batch spans: %v", tracks)
	}

	tl := obs.DeviceTimeline{Name: "device0", Events: cfg.Device.Trace()}
	sp := obs.TableSplit(rec.Spans(), []obs.DeviceTimeline{tl})
	if !obsNear(sp.GPUNs, st.AlignNs) || !obsNear(sp.H2DNs, st.H2DNs) ||
		!obsNear(sp.D2HNs, st.D2HNs) || !obsNear(sp.TotalNs, st.TotalNs) {
		t.Errorf("span split %+v != stats %+v", sp, st)
	}

	if got := rec.Counter("pgraph_candidates", "").Value(); got != int64(st.Candidates) {
		t.Errorf("pgraph_candidates = %d, want %d", got, st.Candidates)
	}
	if got := rec.Counter("pgraph_edges", "").Value(); got != st.Edges {
		t.Errorf("pgraph_edges = %d, want %d", got, st.Edges)
	}
	if got := rec.Counter("pgraph_gpu_batches", "").Value(); got != int64(st.GPUBatches) {
		t.Errorf("pgraph_gpu_batches = %d, want %d", got, st.GPUBatches)
	}
	// The thrust kernel counts its own launches; on a fault-free run the
	// scheduled batches and launch attempts coincide.
	if got := rec.Counter("gpclust_sw_kernel_launches", "").Value(); got != int64(st.GPUBatches) {
		t.Errorf("gpclust_sw_kernel_launches = %d, want %d", got, st.GPUBatches)
	}

	var metrics bytes.Buffer
	if err := rec.WriteOpenMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(metrics.Bytes(), []byte("pgraph_edges_total")) {
		t.Fatalf("metrics export missing pgraph_edges_total:\n%s", metrics.Bytes())
	}
}

// TestObsRecorderHostBuild: the host backend's ledger records its charges
// on its own clock, and the same counters.
func TestObsRecorderHostBuild(t *testing.T) {
	seqs := testMetagenome(t, 80)
	cfg := DefaultConfig()
	rec := obs.New()
	cfg.Obs = rec
	_, st, err := Build(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := obs.TableSplit(rec.Spans(), nil)
	if !obsNear(sp.TotalNs, st.TotalNs) {
		t.Fatalf("span total %.3f != stats total %.3f", sp.TotalNs, st.TotalNs)
	}
	if got := rec.Counter("pgraph_edges", "").Value(); got != st.Edges {
		t.Fatalf("pgraph_edges = %d, want %d", got, st.Edges)
	}
}

// TestConfigRetryBackoff pins the Config.RetryBackoffNs migration: zero means
// the former package default, negatives are rejected by Build, and the knob
// scales recovery stalls without changing the edge set.
func TestConfigRetryBackoff(t *testing.T) {
	if got := (Config{}).retryBackoff(); got != DefaultRetryBackoffNs {
		t.Fatalf("zero RetryBackoffNs resolved to %g, want default %g", got, DefaultRetryBackoffNs)
	}
	if got := (Config{RetryBackoffNs: 7}).retryBackoff(); got != 7 {
		t.Fatalf("explicit RetryBackoffNs resolved to %g, want 7", got)
	}
	seqs := testMetagenome(t, 60)
	bad := DefaultConfig()
	bad.RetryBackoffNs = -1
	if _, _, err := Build(seqs, bad); err == nil {
		t.Fatal("Build accepted negative RetryBackoffNs")
	}

	run := func(backoff float64) Stats {
		sched, err := faults.Parse("h2d op=2 count=2")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.GPU = true
		cfg.Plan.BudgetWords = 6_000
		cfg.RetryBackoffNs = backoff
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		cfg.Device.SetFaultInjector(faults.NewInjector(sched))
		_, st, err := Build(seqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	small, large := run(1e3), run(1e6)
	if small.Faults.BackoffNs == 0 || large.Faults.BackoffNs == 0 {
		t.Fatal("fault schedule produced no retries")
	}
	if large.Faults.BackoffNs <= small.Faults.BackoffNs {
		t.Fatalf("RetryBackoffNs not honored: %g (1e3 base) vs %g (1e6 base)",
			small.Faults.BackoffNs, large.Faults.BackoffNs)
	}
	if small.Edges != large.Edges {
		t.Fatal("backoff setting changed the edge count")
	}
}
