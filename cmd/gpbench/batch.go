package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"

	"gpclust/internal/bench"
	"gpclust/internal/core"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/obs"
	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// minReps is the fewest timed operations a batch run makes.
	minReps = 3
	// maxSplitError is how far the per-layer virtual split taken from the
	// traced spans may drift from the program's own accumulators.
	maxSplitError = 0.01
	// minRecall is the edge recall the LSH filter must keep against the
	// exact filter on homology-lsh.
	minRecall = 0.95
)

// batchWorkload is a workload of repeated whole-input operations.
type batchWorkload interface {
	// setup generates the inputs from the seed.
	setup() error
	// op runs one operation on a fresh simulated device. traced wires an obs
	// recorder and device tracing and fills the span-derived layers.
	op(traced bool) (opResult, error)
	// check compares the first timed operation's output with a reference
	// computed outside the timed loop. It may return per-layer values it
	// measured (edge recall) along with a failed check.
	check(first opResult) (map[string]float64, error)
}

// opResult is one operation's output and the per-layer values read from the
// counters the program exposes.
type opResult struct {
	fingerprint uint64 // of the output: every operation of a run must agree
	output      any
	deviceNs    float64            // device busy time: kernels plus copies
	layers      map[string]float64 // per-layer values of this operation
	splitErr    float64            // traced: span split vs accumulators, relative
	rec         *obs.Recorder      // traced: the operation's recorder
	dev         *gpusim.Device
}

type opSample struct {
	wallNs int64
	allocB uint64
	gcs    uint32
	res    opResult
}

// runBatch sets the workload up o.setups() times (each set-up includes one
// cold operation, since these calls have no separate set-up step of their
// own), then times operations until the run's seconds are spent. A traced run
// spends half of them untraced and half traced; the difference of the two
// medians is the tracing overhead. Every operation must repeat the first's
// output and virtual time. Checks run last and are never timed.
func runBatch(w batchWorkload, o options) (*report, error) {
	rep := newReport()
	client := newClientTrace()

	var setups []float64
	for i := 0; i < o.setups(); i++ {
		runtime.GC()
		t0 := client.now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if _, err := w.op(false); err != nil {
			return nil, fmt.Errorf("set-up operation: %w", err)
		}
		t1 := client.now()
		client.add(clientSpan{name: "setup", tid: 0, startNs: t0, endNs: t1, id: i})
		setups = append(setups, float64(t1-t0)/1e9)
	}
	rep.samples["setup_s"] = summarize(setups)
	rep.values["setup_s"] = rep.samples["setup_s"].Med

	budget := int64(o.seconds * 1e9)
	if o.traced {
		budget /= 2
	}
	plain, err := timeOps(w, false, budget, client)
	if err != nil {
		return nil, err
	}
	layerSamples := plain
	if o.traced {
		if layerSamples, err = timeOps(w, true, budget, client); err != nil {
			return nil, err
		}
	}
	rep.values["peak_rss_mb"] = peakRSSMB()

	first := plain[0].res
	all := plain
	if o.traced {
		all = append(slices.Clip(plain), layerSamples...)
	}
	for i, s := range all {
		rep.attempted++
		switch v, v0 := s.res.layers["virtual_s"], first.layers["virtual_s"]; {
		case s.res.fingerprint != first.fingerprint:
			rep.failed++
			rep.fail("operation %d produced a different output from the first", i)
		case v != v0:
			rep.failed++
			rep.fail("operation %d took %v s of virtual time, the first %v: the simulated clock must repeat", i, v, v0)
		}
	}

	walls := make([]float64, len(plain))
	var sumS float64
	for i, s := range plain {
		walls[i] = float64(s.wallNs) / 1e6
		sumS += float64(s.wallNs) / 1e9
	}
	sort.Float64s(walls)
	lat := summarize(walls)
	rep.samples["p50_ms"] = lat
	rep.values["p50_ms"] = lat.Med
	rep.values["latency.p90_ms"] = percentile(walls, 90)
	rep.values["ops_per_s"] = float64(len(plain)) / sumS
	rep.values["latency.samples"] = float64(len(plain))
	rep.values["latency.tail_pct"], rep.values["latency.tail_ms"] = tail(walls)

	rep.values["runtime.alloc_mb_per_op"] = medianOf(plain, func(s opSample) float64 { return float64(s.allocB) / 1e6 })
	rep.values["runtime.gc_per_op"] = medianOf(plain, func(s opSample) float64 { return float64(s.gcs) })
	if first.deviceNs > 0 {
		rep.values["gpusim.wall_ns_per_device_ns"] = lat.Med * 1e6 / first.deviceNs
	}
	for name := range layerSamples[0].res.layers {
		rep.values[name] = medianOf(layerSamples, func(s opSample) float64 { return s.res.layers[name] })
	}
	if o.traced {
		tracedMed := medianOf(layerSamples, func(s opSample) float64 { return float64(s.wallNs) / 1e6 })
		rep.values["trace.overhead_share"] = (tracedMed - lat.Med) / lat.Med
		var worst float64
		for _, s := range layerSamples {
			worst = math.Max(worst, s.res.splitErr)
		}
		rep.values["trace.split_error"] = worst
		if worst > maxSplitError {
			rep.fail("span-derived virtual split differs from the program's accumulators by %.4g (limit %g)", worst, maxSplitError)
		}
		if o.traceDir != "" {
			last := layerSamples[len(layerSamples)-1].res
			if err := writeTraces(o.traceDir, o.workload, last.rec, last.dev, client); err != nil {
				return nil, fmt.Errorf("write traces: %w", err)
			}
		}
	}

	layers, err := w.check(first)
	for k, v := range layers {
		rep.values[k] = v
	}
	if err != nil {
		rep.fail("%v", err)
	}
	return rep, nil
}

// timeOps runs operations for budgetNs of wall time (at least minReps),
// each after a forced GC, timing each one alone. Only the first sample keeps
// its output and only the last its recorder and device, to bound memory.
func timeOps(w batchWorkload, traced bool, budgetNs int64, client *clientTrace) ([]opSample, error) {
	tid := 1
	if traced {
		tid = 2
	}
	var out []opSample
	t0 := client.now()
	var last int64
	for len(out) < minReps || client.now()-t0+last <= budgetNs {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := client.now()
		res, err := w.op(traced)
		end := client.now()
		if err != nil {
			return nil, fmt.Errorf("operation %d: %w", len(out), err)
		}
		runtime.ReadMemStats(&m1)
		client.add(clientSpan{name: "op", tid: tid, startNs: start, endNs: end, id: len(out)})
		if n := len(out); n > 0 {
			out[n-1].res.rec, out[n-1].res.dev = nil, nil
			res.output = nil
		}
		last = end - start
		out = append(out, opSample{wallNs: last, allocB: m1.TotalAlloc - m0.TotalAlloc, gcs: m1.NumGC - m0.NumGC, res: res})
	}
	return out, nil
}

func medianOf(samples []opSample, f func(opSample) float64) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = f(s)
	}
	sort.Float64s(v)
	return median(v)
}

// Corpus shape shared by the homology and serving workloads: the GOS-like
// seq.DefaultMetagenomeConfig generator, except that every family has
// familySize members and every ancestor ancestorLen residues. The seed then
// changes the sequences but not the amount of work: with the default
// heavy-tailed family sizes and 120–300-residue ancestors, the wall time of
// one build varies by ±15% from seed to seed, more than any bound the
// benchmark could hold.
const (
	familySize  = 10
	ancestorLen = 210
)

func corpus(n int, seed int64) ([]seq.Sequence, error) {
	cfg := seq.DefaultMetagenomeConfig(n)
	cfg.MinFamily, cfg.MaxFamily = familySize, familySize
	cfg.AncestorLenMin, cfg.AncestorLenMax = ancestorLen, ancestorLen
	cfg.Seed = seed
	mg, err := seq.GenerateMetagenome(cfg)
	if err != nil {
		return nil, err
	}
	return mg.Seqs, nil
}

// homology is homology-exact or homology-lsh: one pgraph.Build of the
// corpus with the pgraph -gpu defaults (auto-tuned plan, packed, fused).
type homology struct {
	n      int
	seed   int64
	filter string
	seqs   []seq.Sequence
}

func newHomology(o options, filter string) *homology {
	n := 1200
	if o.quick {
		n = 150
	}
	return &homology{n: n, seed: o.seed, filter: filter}
}

func (h *homology) setup() (err error) {
	h.seqs, err = corpus(h.n, h.seed)
	return err
}

func (h *homology) config(gpu bool) pgraph.Config {
	c := pgraph.DefaultConfig()
	c.Filter = h.filter
	c.GPU, c.AutoTune = gpu, gpu
	return c
}

func (h *homology) op(traced bool) (opResult, error) {
	dev := gpusim.MustNew(gpusim.K20Config())
	cfg := h.config(true)
	cfg.Device = dev
	var rec *obs.Recorder
	if traced {
		rec = obs.New()
		cfg.Obs = rec
		dev.EnableTracing()
	}
	g, st, err := pgraph.Build(h.seqs, cfg)
	if err != nil {
		return opResult{}, err
	}
	m := dev.Metrics()
	r := opResult{
		fingerprint: graphFingerprint(g),
		output:      g,
		deviceNs:    m.KernelTimeNs + m.H2DTimeNs + m.D2HTimeNs,
		rec:         rec,
		dev:         dev,
		layers: map[string]float64{
			"virtual_s":               st.TotalNs / 1e9,
			"pgraph.candidates":       float64(st.Candidates),
			"pgraph.accept_ratio":     ratio(float64(st.Edges), float64(st.Candidates)),
			"pgraph.filter_virtual_s": st.FilterNs / 1e9,
			"pgraph.verify_virtual_s": (st.TotalNs - st.FilterNs) / 1e9,
			"pgraph.h2d_virtual_s":    st.H2DNs / 1e9,
			"pgraph.d2h_virtual_s":    st.D2HNs / 1e9,
			"pgraph.h2d_bytes":        float64(st.H2DBytes),
			"pgraph.d2h_bytes":        float64(st.D2HBytes),
			"sched.batches":           float64(st.Plan.Batches),
			"sched.lsh_batches":       float64(st.LSHPlan.Batches),
			"sched.plan_drift":        st.Plan.DriftFrac(),
			"sched.lsh_plan_drift":    st.LSHPlan.DriftFrac(),
			"thrust.sw_divergence":    st.Divergence,
		},
	}
	addDeviceLayers(r.layers, m)
	if traced {
		var verifyWallNs int64
		r.splitErr, verifyWallNs = homologySplit(rec.Spans(), st)
		r.layers["pgraph.verify_wall_s"] = float64(verifyWallNs) / 1e9
		r.layers["pgraph.filter_wall_s"] = float64(st.WallNs-verifyWallNs) / 1e9
	}
	return r, nil
}

// homologySplit compares the filter and verify phase spans with Stats and
// returns the worse relative gap and the verify span's wall time. The
// filter phase span carries no wall time, so filter_wall_s is the build's
// wall time minus the verify span's.
func homologySplit(spans []obs.Span, st pgraph.Stats) (float64, int64) {
	var filterNs, verifyNs float64
	var verifyWall int64
	for _, s := range spans {
		if s.Track != obs.TrackPhases {
			continue
		}
		switch s.Name {
		case "filter":
			filterNs += s.EndNs - s.StartNs
		case "verify":
			verifyNs += s.EndNs - s.StartNs
			verifyWall += s.WallNs
		}
	}
	return math.Max(relErr(filterNs, st.FilterNs), relErr(verifyNs, st.TotalNs-st.FilterNs)), verifyWall
}

func (h *homology) check(first opResult) (map[string]float64, error) {
	cfg := h.config(false)
	cfg.Filter = pgraph.FilterExact
	ref, _, err := pgraph.Build(h.seqs, cfg)
	if err != nil {
		return nil, fmt.Errorf("host reference build: %w", err)
	}
	g := first.output.(*graph.Graph)
	if h.filter == pgraph.FilterExact {
		if !slices.Equal(g.Offsets, ref.Offsets) || !slices.Equal(g.Adj, ref.Adj) {
			return nil, fmt.Errorf("GPU edge set (%d edges) differs from the host build (%d edges)", g.NumEdges(), ref.NumEdges())
		}
		return map[string]float64{"pgraph.edge_recall": 1}, nil
	}
	recall := edgeRecall(g, ref)
	layers := map[string]float64{"pgraph.edge_recall": recall}
	if recall < minRecall {
		return layers, fmt.Errorf("LSH edge recall %.4f below %.2f", recall, minRecall)
	}
	return layers, nil
}

// shingle is one core.ClusterGPU call with the gpclust defaults (c1=200,
// c2=100, auto-tuned plan) on a planted graph of the paper's 20K shape,
// scaled down, with every family of shingleFamily members for the same
// reason the corpus fixes its family size.
type shingle struct {
	cfg graph.PlantedConfig
	g   *graph.Graph
}

const shingleFamily = 40

func newShingle(o options) *shingle {
	n := 2000
	if o.quick {
		n = 200
	}
	c := bench.Paper20KConfig(float64(n) / 20000)
	c.NumVertices = n
	c.MinFamily, c.MaxFamily = shingleFamily, shingleFamily
	c.Seed = o.seed + 13
	return &shingle{cfg: c}
}

func (s *shingle) setup() error {
	s.g, _ = graph.Planted(s.cfg)
	return nil
}

func shingleOptions() core.Options {
	o := core.DefaultOptions()
	o.AutoTune = true
	return o
}

func (s *shingle) op(traced bool) (opResult, error) {
	dev := gpusim.MustNew(gpusim.K20Config())
	opt := shingleOptions()
	var rec *obs.Recorder
	if traced {
		rec = obs.New()
		opt.Obs = rec
		dev.EnableTracing()
	}
	res, err := core.ClusterGPU(s.g, dev, opt)
	if err != nil {
		return opResult{}, err
	}
	m := dev.Metrics()
	t := res.Timings
	plan := res.Pass1.Plan
	plan.Add(res.Pass2.Plan)
	r := opResult{
		fingerprint: clusteringFingerprint(res.Clustering),
		output:      res.Clustering,
		deviceNs:    m.KernelTimeNs + m.H2DTimeNs + m.D2HTimeNs,
		rec:         rec,
		dev:         dev,
		layers: map[string]float64{
			"virtual_s":          t.TotalNs / 1e9,
			"core.cpu_virtual_s": t.CPUNs / 1e9,
			"core.gpu_virtual_s": t.GPUNs / 1e9,
			"core.h2d_virtual_s": t.H2DNs / 1e9,
			"core.d2h_virtual_s": t.D2HNs / 1e9,
			"core.h2d_bytes":     float64(t.H2DBytes),
			"core.d2h_bytes":     float64(t.D2HBytes),
			"core.pass1_tuples":  float64(res.Pass1.Tuples),
			"core.pass2_tuples":  float64(res.Pass2.Tuples),
			"core.pass1_wall_s":  float64(res.Wall.Pass1Ns) / 1e9,
			"core.pass2_wall_s":  float64(res.Wall.Pass2Ns) / 1e9,
			"core.report_wall_s": float64(res.Wall.ReportNs) / 1e9,
			"sched.batches":      float64(res.Pass1.Batches + res.Pass2.Batches),
			"sched.plan_drift":   plan.DriftFrac(),
		},
	}
	addDeviceLayers(r.layers, m)
	if traced {
		sp := obs.TableSplit(rec.Spans(), []obs.DeviceTimeline{{Name: "device0", Events: dev.Trace()}})
		for _, c := range [][2]float64{
			{sp.CPUNs, t.CPUNs}, {sp.GPUNs, t.GPUNs}, {sp.H2DNs, t.H2DNs},
			{sp.D2HNs, t.D2HNs}, {sp.DiskIONs, t.DiskIONs}, {sp.TotalNs, t.TotalNs},
		} {
			r.splitErr = math.Max(r.splitErr, relErr(c[0], c[1]))
		}
	}
	return r, nil
}

func (s *shingle) check(first opResult) (map[string]float64, error) {
	par, err := core.ClusterParallel(s.g, shingleOptions())
	if err != nil {
		return nil, fmt.Errorf("parallel reference: %w", err)
	}
	if !reflect.DeepEqual(first.output, par.Clustering) {
		return nil, fmt.Errorf("GPU partition (%d clusters) differs from ClusterParallel (%d clusters)",
			len(first.output.(core.Clustering).Clusters), par.NumClusters())
	}
	return nil, nil
}

func addDeviceLayers(layers map[string]float64, m gpusim.Metrics) {
	layers["gpusim.kernel_launches"] = float64(m.KernelLaunches)
	layers["gpusim.thread_ops"] = float64(m.ThreadOps)
	layers["gpusim.warp_serial_ops"] = float64(m.WarpSerialOps)
	layers["gpusim.global_transactions"] = float64(m.GlobalTransactions)
	layers["gpusim.kernel_virtual_s"] = m.KernelTimeNs / 1e9
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// relErr is |got-want| relative to want; a nonzero value against a zero
// reference counts as a full miss.
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(got-want) / math.Abs(want)
}

// edgeRecall is the share of ref's edges present in g.
func edgeRecall(g, ref *graph.Graph) float64 {
	var total, hit int
	for u := 0; u < ref.NumVertices(); u++ {
		for _, v := range ref.Neighbors(uint32(u)) {
			if uint32(u) < v {
				total++
				if g.HasEdge(uint32(u), v) {
					hit++
				}
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}

var crcTable = crc64.MakeTable(crc64.ECMA)

func graphFingerprint(g *graph.Graph) uint64 {
	b := make([]byte, 0, 8*len(g.Offsets)+4*len(g.Adj))
	for _, o := range g.Offsets {
		b = binary.LittleEndian.AppendUint64(b, uint64(o))
	}
	for _, v := range g.Adj {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return crc64.Checksum(b, crcTable)
}

func clusteringFingerprint(c core.Clustering) uint64 {
	var b []byte
	for _, cl := range c.Clusters {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(cl)))
		for _, v := range cl {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
	}
	return crc64.Checksum(b, crcTable)
}
