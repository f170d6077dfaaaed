package main

import (
	"math"
	"sort"
	"testing"
)

// TestQuartilesMatchPython pins summarize to Python's
// statistics.median/quantiles(n=4) on the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5.5, 1.25, 9, 2, 7, 3.5, 8, 4}, 2.375, 4.75, 7.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{42}, 42, 42, 42},
	} {
		s := summarize(c.in)
		if s.Q1 != c.q1 || s.Med != c.med || s.Q3 != c.q3 || s.N != len(c.in) {
			t.Errorf("summarize(%v) = q1 %g med %g q3 %g n %d, want %g %g %g %d",
				c.in, s.Q1, s.Med, s.Q3, s.N, c.q1, c.med, c.q3, len(c.in))
		}
	}
	if s := summarize([]float64{1, 2, 3, 4, 5}); math.Abs(s.RelSpread-1) > 1e-12 || s.Min != 1 || s.Max != 5 {
		t.Errorf("spread/min/max = %g/%g/%g, want 1/1/5", s.RelSpread, s.Min, s.Max)
	}
	if s := summarize(nil); s.N != 0 || s.Med != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	v := make([]float64, 101)
	for i := range v {
		v[i] = float64(i)
	}
	for _, c := range []struct{ p, want float64 }{{0, 0}, {50, 50}, {90, 90}, {99, 99}, {100, 100}, {12.5, 12.5}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(0..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 3}, 50); got != 2 {
		t.Errorf("percentile([1 3], 50) = %g, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g", got)
	}
}

// TestTailPercentile pins the reporting rule: the highest percentile with
// at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, {9999, 99, true}, {1000, 99, true}, {999, 90, true},
		{100, 90, true}, {99, 50, true}, {20, 50, true}, {19, 0, false}, {0, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g %v, want %g %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

// TestOpenLoopLateness checks that a stall is charged from each request's
// due time: requests queued behind a 50 ms stall carry it in their latency
// even though the server answered each within 1 ms of sending, and the
// generator's worst lateness is reported.
func TestOpenLoopLateness(t *testing.T) {
	const ms = int64(1e6)
	reqs := []request{
		{kind: "assign", dueNs: 0, sentNs: 0, doneNs: 1 * ms},
		{kind: "assign", dueNs: 5 * ms, sentNs: 55 * ms, doneNs: 56 * ms}, // generator stalled 50 ms
		{kind: "assign", dueNs: 10 * ms, sentNs: 56 * ms, doneNs: 57 * ms},
		{kind: "cluster", dueNs: 15 * ms, sentNs: 57 * ms, doneNs: 60 * ms},
		{kind: "assign", dueNs: 20 * ms, sentNs: 20 * ms, doneNs: 80 * ms, failed: true},
	}
	lat, late := openLoopStats(reqs, "assign")
	want := []float64{1, 47, 51}
	if !sort.Float64sAreSorted(lat) || len(lat) != len(want) {
		t.Fatalf("assign latencies = %v, want %v (sorted, failures excluded)", lat, want)
	}
	for i := range want {
		if lat[i] != want[i] {
			t.Fatalf("assign latencies = %v, want %v", lat, want)
		}
	}
	if late != 50 {
		t.Errorf("generator lateness max = %g ms, want 50", late)
	}
	if ins, _ := openLoopStats(reqs, "cluster"); len(ins) != 1 || ins[0] != 45 {
		t.Errorf("cluster latencies = %v, want [45]", ins)
	}
}
