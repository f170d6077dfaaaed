package sched

import (
	"strings"
	"testing"

	"gpclust/internal/obs"
)

// TestBudgets: the sweep is geometric, starts at maxB, never goes below
// minB, and is capped at 8 candidates.
func TestBudgets(t *testing.T) {
	got := Budgets(1000, 100)
	want := []int{1000, 500, 250, 125}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if got := Budgets(1<<30, 1); len(got) != 8 {
		t.Fatalf("sweep not capped: %v", got)
	}
	// maxB below minB clamps to a single minB candidate.
	if got := Budgets(10, 100); len(got) != 1 || got[0] != 100 {
		t.Fatalf("clamp: %v", got)
	}
}

// TestPick: argmin over feasible candidates, deterministic on ties, and
// ok=false when nothing is feasible.
func TestPick(t *testing.T) {
	cands := []Candidate{
		{BudgetWords: 100, Lanes: 1}, {BudgetWords: 100, Lanes: 2},
		{BudgetWords: 50, Lanes: 1}, {BudgetWords: 50, Lanes: 2},
	}
	pred := func(c Candidate) (float64, bool) {
		if c.BudgetWords == 50 && c.Lanes == 2 {
			return 0, false // infeasible
		}
		return float64(c.BudgetWords) / float64(c.Lanes), true
	}
	best, ns, ok := Pick(cands, pred)
	if !ok || best != (Candidate{BudgetWords: 100, Lanes: 2}) || ns != 50 {
		t.Fatalf("got %+v, %g, %v", best, ns, ok)
	}
	// Tie between {100,2} (50) and a hypothetical equal candidate keeps the
	// earliest.
	tied := []Candidate{{BudgetWords: 100, Lanes: 2}, {BudgetWords: 50, Lanes: 1}}
	best, _, _ = Pick(tied, pred)
	if best != (Candidate{BudgetWords: 100, Lanes: 2}) {
		t.Fatalf("tie broke to %+v", best)
	}
	if _, _, ok := Pick(cands, func(Candidate) (float64, bool) { return 0, false }); ok {
		t.Fatal("no feasible candidate still picked")
	}
}

// TestPlanReportAccumulation: Add sums the time fields and keeps the first
// pass's plan shape; DriftFrac is the symmetric relative error.
func TestPlanReportAccumulation(t *testing.T) {
	var p PlanReport
	p.Add(PlanReport{AutoTuned: true, BudgetWords: 100, Lanes: 2, Batches: 3,
		PredictedNs: 1000, ActualNs: 800})
	p.Add(PlanReport{BudgetWords: 10, Lanes: 1, Batches: 1, PredictedNs: 100, ActualNs: 200})
	if !p.AutoTuned || p.BudgetWords != 100 || p.Lanes != 2 || p.Batches != 3 {
		t.Fatalf("plan shape overwritten: %+v", p)
	}
	if p.PredictedNs != 1100 || p.ActualNs != 1000 {
		t.Fatalf("times not summed: %+v", p)
	}
	if got := p.DriftFrac(); got != 0.1 {
		t.Fatalf("drift %g", got)
	}
	under := PlanReport{PredictedNs: 500, ActualNs: 1000}
	if got := under.DriftFrac(); got != 0.5 {
		t.Fatalf("under-prediction drift %g", got)
	}
	if got := (PlanReport{}).DriftFrac(); got != 0 {
		t.Fatalf("empty drift %g", got)
	}
}

// TestPlanReportString: both modes render, for CLI summaries.
func TestPlanReportString(t *testing.T) {
	s := PlanReport{AutoTuned: true, BudgetWords: 42, Lanes: 3, Packed: true, Batches: 2}.String()
	if !strings.Contains(s, "auto") || !strings.Contains(s, "42") || !strings.Contains(s, "image=packed") {
		t.Fatalf("auto render: %q", s)
	}
	if s := (PlanReport{}).String(); !strings.Contains(s, "fixed") || !strings.Contains(s, "image=byte") {
		t.Fatalf("fixed render: %q", s)
	}
}

// TestRecordPlan: the chosen plan lands as gauges under the prefix; a nil
// recorder is inert.
func TestRecordPlan(t *testing.T) {
	rec := obs.New()
	RecordPlan(rec, "test", PlanReport{AutoTuned: true, BudgetWords: 7, Lanes: 2,
		Packed: true, Batches: 3, PredictedNs: 11, ActualNs: 13})
	checks := map[string]float64{
		"test_plan_autotuned":    1,
		"test_plan_budget_words": 7,
		"test_plan_lanes":        2,
		"test_plan_packed":       1,
		"test_plan_batches":      3,
		"test_plan_predicted_ns": 11,
		"test_plan_actual_ns":    13,
	}
	for name, want := range checks {
		if got := rec.Gauge(name, "").Value(); got != want {
			t.Fatalf("%s = %g, want %g", name, got, want)
		}
	}
	RecordPlan(nil, "x", PlanReport{}) // must not panic
}
