package sched

import (
	"fmt"
	"strconv"

	"gpclust/internal/gpusim"
	"gpclust/internal/obs"
)

// The auto-tuner. A consumer enumerates candidate plans — a geometric sweep
// of word budgets crossed with the dimensions it tunes — predicts each
// candidate's virtual time by replaying its operation sequence through Sim,
// and commits to the argmin. Prediction runs in plain Go against a scratch
// calibration (never the real device), so planning itself charges zero
// virtual time: the auto-tuned run's clock only ever pays for the plan it
// chose.

// Plan is one batch plan: every decision a device consumer makes before its
// batch loop runs (the paper's Algorithm 2). A tuner enumerates plans and
// Picks one; core.Options.Plan and pgraph.Config.Plan pin one. Each
// consumer reads the dimensions it runs, and every plan yields the same
// output: only the virtual schedule changes.
type Plan struct {
	// BudgetWords caps one batch's device footprint in words. 0 leaves it
	// unpinned: the tuner picks it, or Budget sizes it from free memory.
	BudgetWords int
	// Lanes is 0 or 1 for sequential batches on the default stream, and
	// 2 or more to pipeline them across that many lanes; a tuner given a
	// pipelined plan keeps to pipelined lane counts.
	Lanes int
	// Packed ships each batch as a bit-packed image that the kernels decode
	// in place. A tuner that prices both images (pgraph's) may pick the
	// plain one instead.
	Packed bool
	// FullSort runs core's Algorithm 1 literally — a segmented sort of the
	// whole permuted list, then the first s — instead of the fused top-s
	// selection kernel.
	FullSort bool
	// DeviceAggregate moves core's shingle keys and per-trial tuple sorts
	// onto the device, leaving the host a merge of pre-sorted streams.
	DeviceAggregate bool
	// LengthBin orders pgraph's candidate pairs by alignment cost before
	// batching, which keeps a warp's lanes converged.
	LengthBin bool
}

// FitBudget is the largest batch budget that fits freeWords of free device
// memory: three quarters of it, leaving headroom for the consumer's other
// buffers. It tops every tuner's budget sweep and sizes a plan that pins no
// budget.
func FitBudget(freeWords int) int { return freeWords * 3 / 4 }

// FreeWords is the device's free memory in words.
func FreeWords(dev *gpusim.Device) int { return int(dev.FreeMemory() / gpusim.WordBytes) }

// Budget resolves the plan's batch budget with freeWords of free device
// memory: the pinned BudgetWords, else FitBudget, halved for a pipelined
// plan, whose lanes keep two batches resident at once.
func (p Plan) Budget(freeWords int) int {
	if p.BudgetWords > 0 {
		return p.BudgetWords
	}
	if p.Lanes >= 2 {
		return FitBudget(freeWords) / 2
	}
	return FitBudget(freeWords)
}

// Validate rejects a negative budget and a lane count outside 0..maxLanes,
// the most the consumer runs.
func (p Plan) Validate(maxLanes int) error {
	if p.BudgetWords < 0 {
		return fmt.Errorf("negative Plan.BudgetWords %d", p.BudgetWords)
	}
	if p.Lanes < 0 || p.Lanes > maxLanes {
		return fmt.Errorf("Plan.Lanes %d outside 0..%d", p.Lanes, maxLanes)
	}
	return nil
}

// ParseBudget reads a budget flag named name: "auto" asks the tuner for
// the budget (auto is true, words 0), and a word count pins it, 0 meaning
// the largest budget that fits (Budget).
func ParseBudget(name, s string) (words int, auto bool, err error) {
	if s == "auto" {
		return 0, true, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false, fmt.Errorf("%s must be \"auto\" or a non-negative word count, got %q", name, s)
	}
	return n, false, nil
}

// PlanReport describes the batch plan a scheduling pass ran, for
// Stats/Result reporting and the bench drift gate.
type PlanReport struct {
	AutoTuned   bool    `json:"auto_tuned"`
	BudgetWords int     `json:"budget_words"`
	Lanes       int     `json:"lanes"`
	Packed      bool    `json:"packed"` // the batch image was bit-packed (see Plan)
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

// Pick returns the plan with the lowest predicted virtual time. predict
// returns ok=false for an infeasible plan (e.g. its lanes' staging cannot
// fit device memory beside the budget). Ties keep the earliest plan, so the
// choice is a deterministic function of the plan order. ok is false when no
// plan is feasible.
func Pick(plans []Plan, predict func(Plan) (float64, bool)) (Plan, float64, bool) {
	var best Plan
	bestNs := 0.0
	found := false
	for _, p := range plans {
		ns, ok := predict(p)
		if !ok {
			continue
		}
		if !found || ns < bestNs {
			best, bestNs, found = p, ns, true
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
