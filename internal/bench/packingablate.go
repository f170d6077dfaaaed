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

// PackingPoint is one (workload, residue-layout) outcome of the packed-image
// ablation: the end-to-end virtual total, the Data_c→g cost split into fixed
// setup and byte-proportional volume, the bytes actually shipped, and the
// cost model's price next to the measured scheduler window.
// scripts/benchcheck enforces the packing PR's acceptance criteria on these
// records: per workload both layouts must produce the identical output,
// packed must post a lower virtual total than unpacked, the gpclust packed
// image must cut the H2D byte volume by at least 30%, and every priced
// point must stay inside the drift gate.
type PackingPoint struct {
	Workload    string  `json:"workload"` // "gpclust" | "pgraph"
	Setting     string  `json:"setting"`  // "unpacked" | "packed"
	Packed      bool    `json:"packed"`
	VirtualNs   float64 `json:"virtual_ns"`     // end-to-end run, virtual clock
	H2DNs       float64 `json:"data_c2g_ns"`    // Data_c→g total (setup + volume)
	H2DSetupNs  float64 `json:"h2d_setup_ns"`   // fixed per-copy setup share
	H2DVolumeNs float64 `json:"h2d_volume_ns"`  // byte-proportional share
	H2DBytes    int64   `json:"data_c2g_bytes"` // bytes shipped host→device
	SchedNs     float64 `json:"sched_ns"`       // measured scheduler window
	PredictedNs float64 `json:"predicted_ns"`   // cost model's price (0: not priced)
	Output      int64   `json:"output"`         // clusters / edges; identical per workload
}

// packingSettings is the {unpacked, packed} sweep. Every device consumer
// reads the batch image in place: gpclust's fused kernels read full-width
// words or the packed image, pgraph's SW kernel the byte layout or the
// packed image.
var packingSettings = []struct {
	label  string
	packed bool
}{
	{"unpacked", false},
	{"packed", true},
}

func packingRow(p PackingPoint, plan sched.PlanReport) AblationRow {
	comment := fmt.Sprintf("Data_c→g %.2fs (%.0f%% volume), %.1f MB shipped",
		s(p.H2DNs), 100*p.H2DVolumeNs/max(p.H2DNs, 1), float64(p.H2DBytes)/1e6)
	return timedRow(p.Workload+" "+p.Setting, p.VirtualNs,
		driftComment(comment, p.PredictedNs, plan))
}

// AblatePacking sweeps the packed-image lever on both consumers of the device: the shingling passes (gpclust, images at the
// graph's MinBits width) and the Smith–Waterman verification (pgraph, 5-bit
// protein residues). Every setting runs a fixed batch plan, which the cost
// model prices in the exact layout it executed; outputs must be
// bit-identical across both layouts of a workload — packing changes bytes
// moved and instructions issued, never a result. scale
// sizes the gpclust graph (Paper20KConfig), pgraphN the metagenome (0: the
// 1200-ORF default).
func AblatePacking(scale float64, o core.Options, pgraphN int) ([]AblationRow, []PackingPoint, error) {
	var (
		rows   []AblationRow
		points []PackingPoint
	)

	g, _ := graph.Planted(Paper20KConfig(scale))
	var goldenClusters [][]uint32
	for _, ps := range packingSettings {
		opt := o
		opt.BatchWords = 200_000
		opt.Packed = ps.packed
		dev := gpusim.MustNew(gpusim.K20Config())
		r, err := core.ClusterGPU(g, dev, opt)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: gpclust %s: %w", ps.label, err)
		}
		if goldenClusters == nil {
			goldenClusters = r.Clustering.Clusters
		} else if !clusteringEqual(goldenClusters, r.Clustering.Clusters) {
			return nil, nil, fmt.Errorf("bench: gpclust %s: clustering diverged from %s",
				ps.label, packingSettings[0].label)
		}
		var plan sched.PlanReport
		plan.Add(r.Pass1.Plan)
		plan.Add(r.Pass2.Plan)
		p := PackingPoint{
			Workload: "gpclust", Setting: ps.label, Packed: ps.packed,
			VirtualNs: r.Timings.TotalNs,
			H2DNs:     r.Timings.H2DNs, H2DSetupNs: r.Timings.H2DSetupNs,
			H2DVolumeNs: r.Timings.H2DVolumeNs, H2DBytes: r.Timings.H2DBytes,
			SchedNs: plan.ActualNs, PredictedNs: plan.PredictedNs,
			Output: int64(r.NumClusters()),
		}
		points = append(points, p)
		rows = append(rows, packingRow(p, plan))
	}

	if pgraphN <= 0 {
		pgraphN = 1200
	}
	mgCfg := seq.DefaultMetagenomeConfig(pgraphN)
	mgCfg.Seed = 7
	mg, err := seq.GenerateMetagenome(mgCfg)
	if err != nil {
		return nil, nil, err
	}
	var golden *graph.Graph
	for _, ps := range packingSettings {
		cfg := pgraph.DefaultConfig()
		cfg.GPU = true
		cfg.GPUBatchWords = 40_000
		cfg.Packed = ps.packed
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		pg, st, err := pgraph.Build(mg.Seqs, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: pgraph %s: %w", ps.label, err)
		}
		if golden == nil {
			golden = pg
		} else if !graphEqual(golden, pg) {
			return nil, nil, fmt.Errorf("bench: pgraph %s: edge set diverged from %s",
				ps.label, packingSettings[0].label)
		}
		p := PackingPoint{
			Workload: "pgraph", Setting: ps.label, Packed: ps.packed,
			VirtualNs: st.TotalNs,
			H2DNs:     st.H2DNs, H2DSetupNs: st.H2DSetupNs,
			H2DVolumeNs: st.H2DVolumeNs, H2DBytes: st.H2DBytes,
			SchedNs: st.Plan.ActualNs, PredictedNs: st.Plan.PredictedNs,
			Output: st.Edges,
		}
		points = append(points, p)
		rows = append(rows, packingRow(p, st.Plan))
	}
	return rows, points, nil
}
