package bench

import (
	"fmt"

	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
)

// PGraphBackendPoint is one verification backend's outcome on the default
// metagenome workload, with the Table-I-style component split. It is the
// machine-readable record scripts/bench.sh stores in BENCH_pr3.json so
// later PRs can diff the trajectory.
type PGraphBackendPoint struct {
	Backend    string  `json:"backend"`
	VirtualNs  float64 `json:"virtual_ns"`    // end-to-end Build, virtual clock
	WallNs     int64   `json:"wall_ns"`       // end-to-end Build, this host
	FilterNs   float64 `json:"cpu_filter_ns"` // CPU filter component
	AlignNs    float64 `json:"sw_ns"`         // SW verification component
	H2DNs      float64 `json:"data_c2g_ns"`   // Data_c→g component
	D2HNs      float64 `json:"data_g2c_ns"`   // Data_g→c component
	Batches    int     `json:"batches"`       // device batches (gpu backends)
	Divergence float64 `json:"divergence"`    // SW-kernel warp-divergence overhead
	Edges      int64   `json:"edges"`         // accepted edges (identical everywhere)
}

// AblatePGraphBackend compares pGraph's Smith–Waterman verification
// strategies on one metagenome: the host worker pool, the GPU batch
// scheduler, the scheduler without length binning (warp-divergence cost),
// and a whole-workload single batch (occupancy effect). All four must
// accept the bit-identical edge set; the rows report the virtual-clock
// split. n is the ORF count (0: the examples/metagenome default of 1200);
// batchWords is the forced per-batch budget for the batched backends (0: a
// default that yields several batches at the default n).
func AblatePGraphBackend(n, batchWords int) ([]AblationRow, []PGraphBackendPoint, error) {
	if n <= 0 {
		n = 1200
	}
	if batchWords <= 0 {
		batchWords = 40_000
	}
	mgCfg := seq.DefaultMetagenomeConfig(n)
	mgCfg.Seed = 7
	mg, err := seq.GenerateMetagenome(mgCfg)
	if err != nil {
		return nil, nil, err
	}

	type backend struct {
		label string
		mut   func(*pgraph.Config)
	}
	backends := []backend{
		{"host pool x4", func(c *pgraph.Config) { c.Workers = 4 }},
		{"gpu sequential", func(c *pgraph.Config) {
			c.GPU = true
			c.Plan.BudgetWords = batchWords
		}},
		{"gpu seq no-binning", func(c *pgraph.Config) {
			c.GPU = true
			c.Plan.BudgetWords = batchWords
			c.Plan.LengthBin = false
		}},
		{"gpu single batch", func(c *pgraph.Config) {
			c.GPU = true // budget 0: the whole workload resident at once
		}},
	}

	var (
		rows   []AblationRow
		points []PGraphBackendPoint
		golden *graph.Graph
	)
	for _, b := range backends {
		cfg := pgraph.DefaultConfig()
		b.mut(&cfg)
		if cfg.GPU {
			cfg.Device = gpusim.MustNew(gpusim.K20Config())
		}
		g, st, err := pgraph.Build(mg.Seqs, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", b.label, err)
		}
		if golden == nil {
			golden = g
		} else if !graphEqual(golden, g) {
			return nil, nil, fmt.Errorf("bench: %s: edge set diverged from host backend", b.label)
		}
		points = append(points, PGraphBackendPoint{
			Backend:   b.label,
			VirtualNs: st.TotalNs, WallNs: st.WallNs,
			FilterNs: st.FilterNs, AlignNs: st.AlignNs,
			H2DNs: st.H2DNs, D2HNs: st.D2HNs,
			Batches: st.GPUBatches, Divergence: st.Divergence,
			Edges: st.Edges,
		})
		comment := fmt.Sprintf("CPU filter %.2fs, SW %.2fs", s(st.FilterNs), s(st.AlignNs))
		if cfg.GPU {
			comment = fmt.Sprintf("%s, Data_c→g %.2fs, Data_g→c %.2fs, %d batches, divergence %.1f%%",
				comment, s(st.H2DNs), s(st.D2HNs), st.GPUBatches, 100*st.Divergence)
		} else {
			comment = fmt.Sprintf("%s (%d workers)", comment, st.Workers)
		}
		rows = append(rows, AblationRow{
			Label: b.label, Value: s(st.TotalNs), Unit: "s",
			Comment: comment,
		})
	}
	return rows, points, nil
}

// graphEqual compares two CSR graphs exactly.
func graphEqual(a, b *graph.Graph) bool {
	if len(a.Offsets) != len(b.Offsets) || len(a.Adj) != len(b.Adj) {
		return false
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			return false
		}
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			return false
		}
	}
	return true
}
