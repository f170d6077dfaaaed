package sched

import (
	"fmt"

	"gpclust/internal/obs"
)

// The auto-tuner. A consumer enumerates candidate batch plans — a geometric
// sweep of word budgets crossed with feasible lane counts — predicts each
// candidate's virtual time by replaying its operation sequence through Sim,
// and commits to the argmin. Prediction runs in plain Go against a scratch
// calibration (never the real device), so planning itself charges zero
// virtual time: the auto-tuned run's clock only ever pays for the plan it
// chose.

// Candidate is one batch plan under consideration.
type Candidate struct {
	BudgetWords int // per-batch device footprint cap
	Lanes       int // 1 = sequential, ≥2 = pipelined across that many lanes
	// Packed: the plan ships the batch's bit-packed image, which the
	// kernels decode in place. pgraph's tuner weighs it against the byte
	// residue layout; core's image is packed whenever Options.Packed finds a
	// width below 32 bits.
	Packed bool
}

// PlanReport describes the batch plan a scheduling pass ran, for
// Stats/Result reporting and the bench drift gate.
type PlanReport struct {
	AutoTuned   bool    `json:"auto_tuned"`
	BudgetWords int     `json:"budget_words"`
	Lanes       int     `json:"lanes"`
	Packed      bool    `json:"packed"` // the batch image was bit-packed (see Candidate)
	Batches     int     `json:"batches"`
	PredictedNs float64 `json:"predicted_ns"` // cost-model prediction for the chosen plan
	ActualNs    float64 `json:"actual_ns"`    // measured virtual time of the scheduler window
}

// Add accumulates another pass's report (multi-pass pipelines report the
// sum of their scheduler windows; plan shape fields keep the first pass's
// values, which dominates — pass 2 inputs are far smaller).
func (p *PlanReport) Add(q PlanReport) {
	if p.Batches == 0 {
		p.AutoTuned, p.BudgetWords, p.Lanes, p.Batches = q.AutoTuned, q.BudgetWords, q.Lanes, q.Batches
		p.Packed = q.Packed
	}
	p.PredictedNs += q.PredictedNs
	p.ActualNs += q.ActualNs
}

// DriftFrac is the relative error of the prediction against the measured
// window, or 0 when nothing was measured.
func (p PlanReport) DriftFrac() float64 {
	if p.ActualNs <= 0 || p.PredictedNs <= 0 {
		return 0
	}
	d := (p.PredictedNs - p.ActualNs) / p.ActualNs
	if d < 0 {
		return -d
	}
	return d
}

// Budgets returns the geometric budget sweep for the auto-tuner: maxB
// halved repeatedly while it stays ≥ minB, capped at 8 candidates. maxB is
// always included (the largest feasible batches are where the transfer
// setup cost amortizes best — the single-batch plan BENCH_pr3 showed
// beating the 3-batch plan ~2×).
func Budgets(maxB, minB int) []int {
	if maxB < minB {
		maxB = minB
	}
	var out []int
	for b := maxB; b >= minB && len(out) < 8; b /= 2 {
		out = append(out, b)
	}
	if len(out) == 0 {
		out = append(out, maxB)
	}
	return out
}

// Pick returns the candidate with the lowest predicted virtual time.
// predict returns ok=false for an infeasible candidate (e.g. its lanes'
// staging cannot fit device memory beside the budget). Ties keep the
// earliest candidate, so the choice is a deterministic function of the
// candidate order. ok is false when no candidate is feasible.
func Pick(cands []Candidate, predict func(Candidate) (float64, bool)) (Candidate, float64, bool) {
	var best Candidate
	bestNs := 0.0
	found := false
	for _, c := range cands {
		ns, ok := predict(c)
		if !ok {
			continue
		}
		if !found || ns < bestNs {
			best, bestNs, found = c, ns, true
		}
	}
	return best, bestNs, found
}

// RecordPlan registers the chosen plan in the observability layer under the
// given metric prefix (pure observation: gauges only).
func RecordPlan(r *obs.Recorder, prefix string, p PlanReport) {
	if !r.Enabled() {
		return
	}
	auto := 0.0
	if p.AutoTuned {
		auto = 1
	}
	r.Gauge(prefix+"_plan_autotuned", "1 when the batch plan was auto-tuned.").Set(auto)
	r.Gauge(prefix+"_plan_budget_words", "Per-batch device budget of the chosen plan.").Set(float64(p.BudgetWords))
	r.Gauge(prefix+"_plan_lanes", "Pipeline lanes of the chosen plan (1 = sequential).").Set(float64(p.Lanes))
	packed := 0.0
	if p.Packed {
		packed = 1
	}
	r.Gauge(prefix+"_plan_packed", "1 when the plan shipped a bit-packed batch image.").Set(packed)
	r.Gauge(prefix+"_plan_batches", "Batches the chosen plan scheduled.").Set(float64(p.Batches))
	r.Gauge(prefix+"_plan_predicted_ns", "Cost-model predicted virtual time of the plan.").Set(p.PredictedNs)
	r.Gauge(prefix+"_plan_actual_ns", "Measured virtual time of the scheduler window.").Set(p.ActualNs)
}

// String renders the report for CLI summaries.
func (p PlanReport) String() string {
	mode := "fixed"
	if p.AutoTuned {
		mode = "auto"
	}
	image := "byte"
	if p.Packed {
		image = "packed"
	}
	return fmt.Sprintf("%s plan: budget=%d words, lanes=%d, image=%s, batches=%d, predicted=%.2fms, actual=%.2fms",
		mode, p.BudgetWords, p.Lanes, image, p.Batches, p.PredictedNs/1e6, p.ActualNs/1e6)
}
