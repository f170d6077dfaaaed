package bench

import (
	"fmt"

	"gpclust/internal/core"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/pgraph"
	"gpclust/internal/sched"
	"gpclust/internal/seq"
)

// AutoTunePoint is one (workload, batch-plan setting) outcome of the
// auto-tune ablation: the end-to-end virtual total, the scheduler window the
// cost model prices, and — for every point that ran the model — the
// prediction next to the measurement. scripts/benchcheck enforces the PR's
// acceptance criteria on these records: per workload the auto-tuned plan's
// virtual total must not exceed any fixed setting's, every output must
// agree, and each priced point's prediction must land within 25% of the
// measured window.
type AutoTunePoint struct {
	Workload    string  `json:"workload"` // "gpclust" | "pgraph"
	Setting     string  `json:"setting"`  // "auto" or the forced plan
	Auto        bool    `json:"auto"`
	BudgetWords int     `json:"budget_words"` // chosen or forced per-batch budget
	Lanes       int     `json:"lanes"`
	Batches     int     `json:"batches"`
	VirtualNs   float64 `json:"virtual_ns"`   // end-to-end run, virtual clock
	SchedNs     float64 `json:"sched_ns"`     // measured scheduler window (plan actual)
	PredictedNs float64 `json:"predicted_ns"` // cost model's price for the same window (0: not priced)
	Output      int64   `json:"output"`       // clusters (gpclust) / edges (pgraph); identical per workload
}

// autoTuneRow renders one point for the human-readable sweep.
func autoTuneRow(p AutoTunePoint, plan sched.PlanReport) AblationRow {
	return timedRow(p.Workload+" "+p.Setting, p.VirtualNs,
		driftComment(plan.String(), p.PredictedNs, plan))
}

// AblateAutoTune compares the cost-model auto-tuner against fixed batch
// plans on both consumers of internal/sched: the shingling passes
// (gpclust) and the Smith–Waterman verification (pgraph). The model prices
// every fixed setting too, the plans it did not choose; outputs must be
// bit-identical across every setting of a workload. scale sizes the gpclust graph (Paper20KConfig), pgraphN the
// metagenome (0: the 1200-ORF default).
func AblateAutoTune(scale float64, o core.Options, pgraphN int) ([]AblationRow, []AutoTunePoint, error) {
	var (
		rows   []AblationRow
		points []AutoTunePoint
	)

	// gpclust: the largest budget that fits (sequential, and halved for the
	// pipelined plan), two forced multi-batch budgets, and the auto-tuner.
	// The auto-tuner's candidate sweep is a superset of both derived plans,
	// so with an accurate model it can never lose to them.
	g, _ := graph.Planted(Paper20KConfig(scale))
	type coreSetting struct {
		label    string
		budget   int
		pipeline bool
		auto     bool
	}
	coreSettings := []coreSetting{
		{"auto", 0, false, true},
		{"fixed derived sequential", 0, false, false},
		{"fixed derived pipelined", 0, true, false},
		{"fixed 200K words", 200_000, false, false},
		{"fixed 40K words", 40_000, false, false},
	}
	var goldenClusters [][]uint32
	for _, cs := range coreSettings {
		opt := o
		opt.Plan.BudgetWords = cs.budget
		if cs.pipeline {
			opt.Plan.Lanes = 2
		}
		opt.AutoTune = cs.auto
		dev := gpusim.MustNew(gpusim.K20Config())
		r, err := core.ClusterGPU(g, dev, opt)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: gpclust %s: %w", cs.label, err)
		}
		if goldenClusters == nil {
			goldenClusters = r.Clustering.Clusters
		} else if !clusteringEqual(goldenClusters, r.Clustering.Clusters) {
			return nil, nil, fmt.Errorf("bench: gpclust %s: clustering diverged from %s",
				cs.label, coreSettings[0].label)
		}
		var plan sched.PlanReport
		plan.Add(r.Pass1.Plan)
		plan.Add(r.Pass2.Plan)
		p := AutoTunePoint{
			Workload: "gpclust", Setting: cs.label, Auto: cs.auto,
			BudgetWords: plan.BudgetWords, Lanes: plan.Lanes, Batches: plan.Batches,
			VirtualNs: r.Timings.TotalNs, SchedNs: plan.ActualNs,
			PredictedNs: plan.PredictedNs,
			Output:      int64(r.NumClusters()),
		}
		points = append(points, p)
		rows = append(rows, autoTuneRow(p, plan))
	}

	// pgraph: the single whole-workload batch of the largest budget that
	// fits, a forced multi-batch budget, and the auto-tuner.
	if pgraphN <= 0 {
		pgraphN = 1200
	}
	mgCfg := seq.DefaultMetagenomeConfig(pgraphN)
	mgCfg.Seed = 7
	mg, err := seq.GenerateMetagenome(mgCfg)
	if err != nil {
		return nil, nil, err
	}
	type pgSetting struct {
		label  string
		budget int
		auto   bool
	}
	pgSettings := []pgSetting{
		{"auto", 0, true},
		{"fixed whole-workload", 0, false},
		{"fixed 40K words sequential", 40_000, false},
	}
	var golden *graph.Graph
	for _, ps := range pgSettings {
		cfg := pgraph.DefaultConfig()
		cfg.GPU = true
		cfg.Plan.BudgetWords = ps.budget
		cfg.AutoTune = ps.auto
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		pg, st, err := pgraph.Build(mg.Seqs, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: pgraph %s: %w", ps.label, err)
		}
		if golden == nil {
			golden = pg
		} else if !graphEqual(golden, pg) {
			return nil, nil, fmt.Errorf("bench: pgraph %s: edge set diverged from %s",
				ps.label, pgSettings[0].label)
		}
		p := AutoTunePoint{
			Workload: "pgraph", Setting: ps.label, Auto: ps.auto,
			BudgetWords: st.Plan.BudgetWords, Lanes: st.Plan.Lanes, Batches: st.Plan.Batches,
			VirtualNs: st.TotalNs, SchedNs: st.Plan.ActualNs,
			PredictedNs: st.Plan.PredictedNs,
			Output:      st.Edges,
		}
		points = append(points, p)
		rows = append(rows, autoTuneRow(p, st.Plan))
	}
	return rows, points, nil
}

// clusteringEqual compares two cluster reports exactly (both are emitted in
// the deterministic largest-first order).
func clusteringEqual(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
