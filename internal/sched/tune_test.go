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

// TestPick: argmin over feasible plans, deterministic on ties, and
// ok=false when nothing is feasible.
func TestPick(t *testing.T) {
	cands := []Plan{
		{BudgetWords: 100, Lanes: 1}, {BudgetWords: 100, Lanes: 2},
		{BudgetWords: 50, Lanes: 1}, {BudgetWords: 50, Lanes: 2},
	}
	pred := func(c Plan) (float64, bool) {
		if c.BudgetWords == 50 && c.Lanes == 2 {
			return 0, false // infeasible
		}
		return float64(c.BudgetWords) / float64(c.Lanes), true
	}
	best, ns, ok := Pick(cands, pred)
	if !ok || best != (Plan{BudgetWords: 100, Lanes: 2}) || ns != 50 {
		t.Fatalf("got %+v, %g, %v", best, ns, ok)
	}
	// Tie between {100,2} (50) and a hypothetical equal candidate keeps the
	// earliest.
	tied := []Plan{{BudgetWords: 100, Lanes: 2}, {BudgetWords: 50, Lanes: 1}}
	best, _, _ = Pick(tied, pred)
	if best != (Plan{BudgetWords: 100, Lanes: 2}) {
		t.Fatalf("tie broke to %+v", best)
	}
	if _, _, ok := Pick(cands, func(Plan) (float64, bool) { return 0, false }); ok {
		t.Fatal("no feasible candidate still picked")
	}
}

// TestFitBudget pins the largest budget that fits on a free word count
// that is not a multiple of 4: three quarters, rounded down once.
func TestFitBudget(t *testing.T) {
	for _, tc := range []struct{ free, want int }{
		{1_342_177_280, 1_006_632_960},
		{1_342_176_839, 1_006_632_629}, // beside a 441-word resident table
		{7, 5},
		{0, 0},
	} {
		if got := FitBudget(tc.free); got != tc.want {
			t.Errorf("FitBudget(%d) = %d, want %d", tc.free, got, tc.want)
		}
	}
}

// TestPlanBudget: a pinned budget wins; an unpinned one is FitBudget,
// halved for a pipelined plan.
func TestPlanBudget(t *testing.T) {
	for _, tc := range []struct {
		plan Plan
		want int
	}{
		{Plan{BudgetWords: 5_000}, 5_000},
		{Plan{BudgetWords: 5_000, Lanes: 2}, 5_000},
		{Plan{}, 750},
		{Plan{Lanes: 1}, 750},
		{Plan{Lanes: 2}, 375},
		{Plan{Lanes: 4}, 375},
	} {
		if got := tc.plan.Budget(1_001); got != tc.want {
			t.Errorf("%+v.Budget(1001) = %d, want %d", tc.plan, got, tc.want)
		}
	}
}

// TestPlanValidate: a negative budget and lanes outside 0..maxLanes are
// rejected; every other plan passes.
func TestPlanValidate(t *testing.T) {
	for _, tc := range []struct {
		plan     Plan
		maxLanes int
		ok       bool
	}{
		{Plan{}, 1, true},
		{Plan{BudgetWords: 1, Lanes: 1}, 1, true},
		{Plan{Lanes: 4}, 4, true},
		{Plan{BudgetWords: -1}, 4, false},
		{Plan{Lanes: -1}, 4, false},
		{Plan{Lanes: 2}, 1, false},
		{Plan{Lanes: 5}, 4, false},
	} {
		if err := tc.plan.Validate(tc.maxLanes); (err == nil) != tc.ok {
			t.Errorf("%+v.Validate(%d) = %v, want ok=%v", tc.plan, tc.maxLanes, err, tc.ok)
		}
	}
}

// TestParseBudget: "auto" asks the tuner, a word count pins the budget
// (0 included), anything else is rejected under the flag's name.
func TestParseBudget(t *testing.T) {
	for _, tc := range []struct {
		in    string
		words int
		auto  bool
	}{{"auto", 0, true}, {"0", 0, false}, {"5000", 5000, false}} {
		words, auto, err := ParseBudget("-batch", tc.in)
		if err != nil || words != tc.words || auto != tc.auto {
			t.Errorf("ParseBudget(%q) = %d, %v, %v", tc.in, words, auto, err)
		}
	}
	for _, in := range []string{"-1", "x", "", "AUTO"} {
		if _, _, err := ParseBudget("-batch", in); err == nil || !strings.Contains(err.Error(), `-batch must be "auto"`) {
			t.Errorf("ParseBudget(%q) error %v", in, err)
		}
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
