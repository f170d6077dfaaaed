package bench

import (
	"strings"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/graph"
	"gpclust/internal/sched"
)

func TestTimedRow(t *testing.T) {
	r := timedRow("x", 2.5e9, "c")
	if r.Label != "x" || r.Value != 2.5 || r.Unit != "s" || r.Comment != "c" {
		t.Fatalf("row = %+v", r)
	}
}

func TestDriftComment(t *testing.T) {
	plan := sched.PlanReport{PredictedNs: 110, ActualNs: 100}
	if got := driftComment("base", 0, plan); got != "base" {
		t.Fatalf("unpriced point annotated: %q", got)
	}
	got := driftComment("base", plan.PredictedNs, plan)
	if !strings.HasPrefix(got, "base, drift ") || !strings.Contains(got, "10%") {
		t.Fatalf("priced point = %q", got)
	}
}

func TestRecoveryComment(t *testing.T) {
	if got := recoveryComment("base", faults.Recovery{}); got != "base" {
		t.Fatalf("fault-free run annotated: %q", got)
	}
	rec := faults.Recovery{KernelRetries: 2}
	got := recoveryComment("base", rec)
	if !strings.HasPrefix(got, "base (") || !strings.Contains(got, rec.String()) {
		t.Fatalf("recovered run = %q", got)
	}
}

func TestComponentLabelsAndPairF1(t *testing.T) {
	// Two components {0,1,2} and {3,4}, one singleton {5}.
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	labels := componentLabels(g)
	if len(labels) != 6 {
		t.Fatalf("%d labels", len(labels))
	}
	if labels[0] != labels[1] || labels[1] != labels[2] || labels[3] != labels[4] {
		t.Fatalf("components merged wrong: %v", labels)
	}
	if labels[0] == labels[3] || labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatalf("distinct components share a label: %v", labels)
	}

	if f := pairF1(labels, labels, 6); f != 1 {
		t.Fatalf("self F1 = %v", f)
	}
	// Dropping the 1-2 edge splits the first component: sensitivity falls,
	// precision stays 1, so 0 < F1 < 1.
	split := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 3, V: 4}})
	f := pairF1(componentLabels(split), labels, 6)
	if f <= 0 || f >= 1 {
		t.Fatalf("split F1 = %v", f)
	}
	if f2 := pairF1(nil, nil, 0); f2 != 0 {
		t.Fatalf("empty F1 = %v", f2)
	}
}

func TestAblateLSHShape(t *testing.T) {
	rows, points, err := AblateLSH(160)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(points) != 4 {
		t.Fatalf("%d rows, %d points", len(rows), len(points))
	}
	if points[0].Filter != "exact" || !points[0].Identical || points[0].EdgeRecall != 1 {
		t.Fatalf("exact baseline = %+v", points[0])
	}
	if points[0].SchedNs != 0 || points[0].PredictedNs != 0 {
		t.Fatalf("exact point carries an LSH plan: %+v", points[0])
	}
	var sawDefault bool
	for _, p := range points[1:] {
		if p.Default {
			sawDefault = true
		}
		if p.EdgeRecall < 0 || p.EdgeRecall > 1 || p.FScore < 0 || p.FScore > 1 {
			t.Fatalf("scores out of range: %+v", p)
		}
		if p.Candidates <= 0 || p.SchedNs <= 0 || p.PredictedNs <= 0 {
			t.Fatalf("LSH point not measured/priced: %+v", p)
		}
	}
	if !sawDefault {
		t.Fatalf("sweep missing the default point: %+v", points)
	}
}
