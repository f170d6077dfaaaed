package pgraph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"

	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
)

// goldenFigures flattens one GPU build's virtual-clock figures in a fixed
// order: Float64bits of TotalNs, FilterNs, H2DNs and D2HNs; the candidate
// count; kernel launches; then a CRC-32 of the graph's Offsets and Adj.
func goldenFigures(g *graph.Graph, st Stats, launches int64) []uint64 {
	return []uint64{
		math.Float64bits(st.TotalNs), math.Float64bits(st.FilterNs),
		math.Float64bits(st.H2DNs), math.Float64bits(st.D2HNs),
		uint64(st.Candidates), uint64(launches), uint64(graphCRC(g)),
	}
}

// graphCRC is a CRC-32 (IEEE) of the graph's CSR arrays, little-endian.
func graphCRC(g *graph.Graph) uint32 {
	b := make([]byte, 0, 8*len(g.Offsets)+4*len(g.Adj))
	for _, o := range g.Offsets {
		b = binary.LittleEndian.AppendUint64(b, uint64(o))
	}
	for _, a := range g.Adj {
		b = binary.LittleEndian.AppendUint32(b, a)
	}
	return crc32.ChecksumIEEE(b)
}

// TestGoldenPGraphVirtualTime pins the virtual-clock figures and the output
// of a GPU Build under each candidate filter on one fixed corpus. The exact
// filter's price depends only on the symbol count and the candidate count,
// so a change to how the suffix array is built must reproduce the figures
// exactly; one that moves them on purpose re-records them from the figures
// the failure prints.
func TestGoldenPGraphVirtualTime(t *testing.T) {
	seqs := testMetagenome(t, 200)
	cases := []struct {
		name   string
		filter string
		mutate func(*Config)
		want   []uint64
	}{
		{name: "auto " + FilterExact, filter: FilterExact, want: []uint64{
			0x418cd07f9a473d45, 0x415eeaf680000000, 0x415e984580000000, 0x414eb5022e8ba2e9,
			0x2ab, 0x1, 0x3d9a95a0,
		}},
		{name: "auto " + FilterLSH, filter: FilterLSH, want: []uint64{
			0x4197df1c709cf344, 0x4187d50e2327be1e, 0x415e980e80000000, 0x414eb3968ba2e8b8,
			0x297, 0x5, 0x6f153a69,
		}},
		{name: "fixed 40K packed", filter: FilterExact, mutate: func(c *Config) {
			c.AutoTune, c.Plan.BudgetWords = false, 40_000
		}, want: []uint64{
			0x418f885c5ef0ddeb, 0x415eeaf680000000, 0x415e932e80000000, 0x414eb5022e8ba2e9,
			0x2ab, 0x1, 0x3d9a95a0,
		}},
		{name: "fixed 40K unpacked", filter: FilterExact, mutate: func(c *Config) {
			c.AutoTune, c.Plan.BudgetWords, c.Plan.Packed = false, 40_000, false
		}, want: []uint64{
			0x418cd07f9a473d45, 0x415eeaf680000000, 0x415e984580000000, 0x414eb5022e8ba2e9,
			0x2ab, 0x1, 0x3d9a95a0,
		}},
	}
	var record []string
	for _, tc := range cases {
		dev := gpusim.MustNew(gpusim.K20Config())
		cfg := DefaultConfig()
		cfg.GPU, cfg.AutoTune, cfg.Device = true, true, dev
		cfg.Filter = tc.filter
		if tc.mutate != nil {
			tc.mutate(&cfg)
		}
		g, st, err := Build(seqs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := goldenFigures(g, st, dev.Metrics().KernelLaunches)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: virtual-clock figures moved\n got  %v\n want %v", tc.name, got, tc.want)
		}
		lits := make([]string, len(got))
		for i, v := range got {
			lits[i] = fmt.Sprintf("%#x", v)
		}
		record = append(record, fmt.Sprintf("%s: {%s}", tc.name, strings.Join(lits, ", ")))
	}
	if t.Failed() {
		t.Logf("recorded figures:\n%s", strings.Join(record, "\n"))
	}
}
