package pgraph

import (
	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
	"gpclust/internal/sched"
	"gpclust/internal/thrust"
)

// Cost-model pricing of the device LSH filter, in the verification stage's
// style: every kernel the pipeline launches is calibrated by probing the
// real implementation on a scratch device with the same config, and the
// filter's exact operation sequence — staging, copies, launches, readback,
// emission — replays through sched.Sim. The predicted window lands in
// Stats.LSHPlan.PredictedNs next to the measured one, gated by benchcheck's
// drift check like the verification plans.

// Calibrated kernel names of the LSH pipeline.
const (
	kLSHMinHash = "segmented_min_hash"
	kLSHBand    = "band_hash"
	kLSHSort    = "sort_pairs64"
	kLSHHeads   = "bucket_heads"
	kLSHFill    = "fill"
)

// lshProbeWords caps the calibration probe's shingle stream.
const lshProbeWords = 4096

// elementwiseThreads is the thread count of one elementwise launch over the
// given words (thrust's geometry: 8 elements per thread, 256-wide blocks).
func elementwiseThreads(words int) int {
	threads := (words + 7) / 8
	if threads == 0 {
		threads = 1
	}
	grid := (threads + 255) / 256
	return grid * 256
}

// minHashThreads is the thread count of one SegmentedMinHash launch over
// nsegs segments and a family of the given size (one thread per segment and
// permutation group, 256-wide blocks).
func minHashThreads(nsegs, hashes int) int {
	groups := (hashes + thrust.MinHashGroup - 1) / thrust.MinHashGroup
	grid := (groups*nsegs + 255) / 256
	if grid < 1 {
		grid = 1
	}
	return grid * 256
}

// calibrateLSHModel probes every kernel of the LSH pipeline on a scratch
// device: a prefix of the real shingle stream with its real segment
// structure, so the probes' divergence and access patterns match the run
// they price. Probe failures leave kernels uncalibrated (priced at launch
// cost only) — they cannot occur on a fresh fault-free device.
func calibrateLSHModel(devCfg gpusim.Config, e *lshEnv) *sched.Model {
	m := sched.NewModel(devCfg)
	if e.total == 0 {
		return m
	}
	// Probe shape: whole sets until the word cap, at least one.
	n, nseg := 0, 0
	for _, set := range e.sets {
		if nseg > 0 && n+len(set) > lshProbeWords {
			break
		}
		n += len(set)
		nseg++
	}
	data := make([]uint32, 0, n)
	offs := make([]uint32, nseg+1)
	for i, set := range e.sets[:nseg] {
		offs[i] = uint32(len(data))
		data = append(data, set...)
	}
	offs[nseg] = uint32(len(data))
	rows := e.prm.rows
	if rows < 1 {
		rows = 1
	}
	// One permutation group: every thread of the real launch carries a
	// group, so the probe's per-hash cost is the run's.
	fam := minwise.NewFamily(min(max(e.prm.hashes(), 1), thrust.MinHashGroup), lshFamilySeed)

	scratch := gpusim.MustNew(devCfg)
	bufs, err := lshMalloc(scratch, n, nseg+1, n, max(rows, len(fam.Pairs))*nseg, nseg, n, n)
	if err != nil {
		return m
	}
	dataBuf, offBuf, tmpBuf, sigBuf, keyBuf, valBuf, flagBuf := bufs[0], bufs[1], bufs[2], bufs[3], bufs[4], bufs[5], bufs[6]
	defer lshFree(bufs)
	if scratch.CopyH2D(dataBuf, 0, data) != nil || scratch.CopyH2D(offBuf, 0, offs) != nil {
		return m
	}
	probe := func(name string, units float64, threads int, launch func() error) {
		k0 := scratch.Metrics().KernelTimeNs
		if launch() != nil {
			return
		}
		m.CalibrateKernel(name, scratch.Metrics().KernelTimeNs-k0-devCfg.KernelLaunchNs, units, threads)
	}
	segs := thrust.Segments{Offsets: offBuf, NumSegs: nseg}
	probe(kLSHMinHash, float64(n*len(fam.Pairs)), minHashThreads(nseg, len(fam.Pairs)), func() error {
		return thrust.SegmentedMinHash(scratch, nil, dataBuf, segs, fam.Pairs, sigBuf, nseg, 0)
	})
	probe(kLSHFill, float64(rows*nseg), elementwiseThreads(rows*nseg), func() error {
		return thrust.Fill(scratch, sigBuf, rows*nseg, 1)
	})
	probe(kLSHBand, float64(rows*nseg), elementwiseThreads(nseg), func() error {
		return thrust.BandHash(scratch, nil, sigBuf, nseg, 0, 1, rows, keyBuf, 0)
	})
	probe(kLSHSort, float64(n), elementwiseThreads(n), func() error {
		return thrust.SortPairs64(scratch, dataBuf, tmpBuf, valBuf, n)
	})
	probe(kLSHHeads, float64(n), elementwiseThreads(n), func() error {
		return thrust.MarkBucketHeads(scratch, nil, dataBuf, tmpBuf, n, flagBuf)
	})
	return m
}

// predictLSH replays the filter's operation sequence — everything between
// the scheduler window's start and the post-run synchronize — through the
// cost model. Every LSH op is synchronous (one lane, no overlap), so the
// replay is a straight accumulation.
func predictLSH(m *sched.Model, e *lshEnv, spansA, spansB []sched.Span) float64 {
	sim := sched.NewSim(m, 0)
	groupNs := func(n int) {
		sim.Kernel(-1, kLSHSort, float64(n), elementwiseThreads(n))
		sim.Kernel(-1, kLSHHeads, float64(n), elementwiseThreads(n))
		sim.Copy(-1, n, false) // head flags
		sim.Copy(-1, n, false) // bucket values
		sim.HostWork(float64(n) * FilterNsPerOp)
	}
	if e.prm.conservative {
		if n := e.total; n > 0 {
			sim.HostWork(float64(2*n) * packNsPerWord)
			sim.Copy(-1, n, true)
			sim.Copy(-1, n, true)
			sim.Kernel(-1, kLSHFill, float64(n), elementwiseThreads(n))
			groupNs(n)
		}
		sim.SyncAll()
		return sim.Host
	}
	ne := len(e.sets)
	c := e.prm.hashes()
	for _, sp := range spansA {
		ns := sp.Hi - sp.Lo
		words := 0
		for _, set := range e.sets[sp.Lo:sp.Hi] {
			words += len(set)
		}
		sim.HostWork(float64(words+ns+1) * packNsPerWord)
		sim.Copy(-1, words, true)
		sim.Copy(-1, ns+1, true)
		sim.Kernel(-1, kLSHMinHash, float64(words*c), minHashThreads(ns, c))
	}
	for _, sp := range spansB {
		g := sp.Hi - sp.Lo
		n := g * ne
		sim.HostWork(float64(2*n) * packNsPerWord)
		sim.Copy(-1, n, true)
		sim.Copy(-1, n, true)
		sim.Kernel(-1, kLSHBand, float64(g*e.prm.rows*ne), g*elementwiseThreads(ne))
		groupNs(n)
	}
	sim.SyncAll()
	return sim.Host
}
