package main

import (
	"math"
	"sort"
)

// summary is a sample's median and quartiles with its size. Quartiles use
// the "exclusive" method of Python's statistics.quantiles(n=4), so the
// spreads --compare reports match that common tool on the same values.
type summary struct {
	N           int
	Q1, Med, Q3 float64
	Min, Max    float64
	RelSpread   float64 // (Q3-Q1)/Med; 0 when Med is 0
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Med = median(v)
	s.Q1, s.Q3 = s.Med, s.Med
	if len(v) >= 2 {
		q := quartiles(v)
		s.Q1, s.Q3 = q[0], q[2]
	}
	if s.Med != 0 {
		s.RelSpread = (s.Q3 - s.Q1) / math.Abs(s.Med)
	}
	return s
}

// median of an ascending sample (mean of the middle two for even sizes).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles of an ascending sample of at least two values, by the
// exclusive method (Python's statistics.quantiles default).
func quartiles(sorted []float64) [3]float64 {
	const n = 4
	ld := len(sorted)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		out[i-1] = (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return out
}

// percentile is the p-th percentile (0..100) of an ascending sample by
// linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailPercentile returns the highest of the standard reporting percentiles
// that leaves at least ten of n samples beyond it; ok is false when even
// the median does not (fewer than 20 samples).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// tail returns the highest standard percentile with at least ten samples
// beyond it and its value in an ascending sample; 0, 0 when the sample is
// too small for any.
func tail(sorted []float64) (p, v float64) {
	p, ok := tailPercentile(len(sorted))
	if !ok {
		return 0, 0
	}
	return p, percentile(sorted, p)
}

// request is one served request's timeline on the benchmark's stopwatch:
// when the open-loop schedule said it was due, when the generator actually
// sent it, and when its answer arrived.
type request struct {
	kind   string // "assign" or "cluster"
	dueNs  int64
	sentNs int64
	doneNs int64
	failed bool
}

// latencyMs is the request's latency counted from its due time, so a
// generator or server stall that delays sending is charged to every request
// it delays, not hidden as a gap between sends.
func (r request) latencyMs() float64 { return float64(r.doneNs-r.dueNs) / 1e6 }

// lateMs is how far behind its schedule the generator sent the request.
func (r request) lateMs() float64 { return float64(r.sentNs-r.dueNs) / 1e6 }

// openLoopStats summarizes an open-loop phase: the latency sample of one
// request kind (successful requests only; failures are counted apart) and
// the generator's worst lateness across all requests.
func openLoopStats(reqs []request, kind string) (lat []float64, lateMaxMs float64) {
	for _, r := range reqs {
		lateMaxMs = math.Max(lateMaxMs, r.lateMs())
		if r.kind == kind && !r.failed {
			lat = append(lat, r.latencyMs())
		}
	}
	sort.Float64s(lat)
	return lat, lateMaxMs
}
