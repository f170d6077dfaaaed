package bench

import (
	"fmt"

	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
)

// LSHPoint is one (filter, banding-shape) outcome of the LSH candidate-filter
// ablation on the default metagenome workload: the candidate count the
// Smith–Waterman verifier had to score, the edge recall and component-level
// pairwise F-score against the exact filter's graph, and the LSH plan's
// cost-model window. scripts/benchcheck enforces the LSH filter's acceptance
// criteria on these records: the default LSH shape must hold ≥ 0.95 edge
// recall with strictly fewer candidates than the exact filter, and every
// priced point must stay inside the 25% drift gate.
type LSHPoint struct {
	Setting     string  `json:"setting"` // "exact" | "lsh 256x1 (default)" | "lsh 64x1" ...
	Filter      string  `json:"filter"`  // exact | lsh
	Bands       int     `json:"bands"`   // 0: exact or the default shape
	Rows        int     `json:"rows"`
	Default     bool    `json:"default"`      // the tuned default banding shape
	Candidates  int64   `json:"candidates"`   // pairs admitted to SW verification
	EdgeRecall  float64 `json:"edge_recall"`  // |E ∩ E_exact| / |E_exact|
	FScore      float64 `json:"f_score"`      // component-partition pairwise F1 vs exact
	Identical   bool    `json:"identical"`    // graph bit-identical to the exact path
	VirtualNs   float64 `json:"virtual_ns"`   // end-to-end Build, virtual clock
	FilterNs    float64 `json:"filter_ns"`    // filter phase, virtual clock
	SchedNs     float64 `json:"sched_ns"`     // measured LSH-plan window (0: exact)
	PredictedNs float64 `json:"predicted_ns"` // cost model's price (0: not priced)
}

// lshRow renders one point for the human-readable sweep.
func lshRow(p LSHPoint, plan pgraph.Stats) AblationRow {
	comment := fmt.Sprintf("%d candidates, edge recall %.3f, F %.3f", p.Candidates, p.EdgeRecall, p.FScore)
	if p.Identical {
		comment = fmt.Sprintf("%d candidates, bit-identical graph", p.Candidates)
	}
	return timedRow(p.Setting, p.VirtualNs, driftComment(comment, p.PredictedNs, plan.LSHPlan))
}

// edgeRecall counts the fraction of the reference graph's edges present in
// the test graph (both CSR, both with sorted adjacency).
func edgeRecall(test, ref *graph.Graph) float64 {
	var refEdges, hit int64
	for u := range ref.Offsets[:len(ref.Offsets)-1] {
		adj := map[uint32]bool{}
		if u < len(test.Offsets)-1 {
			for _, v := range test.Adj[test.Offsets[u]:test.Offsets[u+1]] {
				adj[v] = true
			}
		}
		for _, v := range ref.Adj[ref.Offsets[u]:ref.Offsets[u+1]] {
			if uint32(u) >= v {
				continue // count each undirected edge once
			}
			refEdges++
			if adj[v] {
				hit++
			}
		}
	}
	if refEdges == 0 {
		return 1
	}
	return float64(hit) / float64(refEdges)
}

// AblateLSH sweeps the candidate-filter backends on the default metagenome:
// the exact suffix filter (the oracle), the tuned default LSH shape, and two
// deliberately low-recall shapes for the S-curve's other end.
// Every GPU run prices its LSH plan, so the sweep doubles as the cost-model
// drift gate for the new band/bucket kernels. n is the ORF count (0: the
// 1200-ORF default).
func AblateLSH(n int) ([]AblationRow, []LSHPoint, error) {
	if n <= 0 {
		n = 1200
	}
	mgCfg := seq.DefaultMetagenomeConfig(n)
	mgCfg.Seed = 7
	mg, err := seq.GenerateMetagenome(mgCfg)
	if err != nil {
		return nil, nil, err
	}

	type setting struct {
		label       string
		filter      string
		bands, rows int
	}
	settings := []setting{
		{"exact", pgraph.FilterExact, 0, 0},
		{fmt.Sprintf("lsh %dx%d (default)", pgraph.DefaultLSHBands, pgraph.DefaultLSHRows),
			pgraph.FilterLSH, 0, 0},
		{"lsh 64x1", pgraph.FilterLSH, 64, 1},
		{"lsh 16x2", pgraph.FilterLSH, 16, 2},
	}

	var (
		rows    []AblationRow
		points  []LSHPoint
		gExact  *graph.Graph
		refLbls []int32
	)
	for _, st := range settings {
		cfg := pgraph.DefaultConfig()
		cfg.Filter = st.filter
		cfg.LSHBands = st.bands
		cfg.LSHRows = st.rows
		cfg.GPU = true
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		g, stats, err := pgraph.Build(mg.Seqs, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: lsh %s: %w", st.label, err)
		}
		if gExact == nil {
			gExact = g
			refLbls = componentLabels(g)
		}
		p := LSHPoint{
			Setting: st.label, Filter: st.filter, Bands: st.bands, Rows: st.rows,
			Default:    st.filter == pgraph.FilterLSH && st.bands == 0 && st.rows == 0,
			Candidates: int64(stats.Candidates),
			EdgeRecall: edgeRecall(g, gExact),
			FScore:     pairF1(componentLabels(g), refLbls, len(refLbls)),
			Identical:  graphEqual(gExact, g),
			VirtualNs:  stats.TotalNs, FilterNs: stats.FilterNs,
			SchedNs: stats.LSHPlan.ActualNs, PredictedNs: stats.LSHPlan.PredictedNs,
		}
		points = append(points, p)
		rows = append(rows, lshRow(p, stats))
	}
	return rows, points, nil
}
