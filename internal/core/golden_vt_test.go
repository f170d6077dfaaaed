package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
)

// goldenVTCase is one executor plan whose virtual-clock figures are pinned
// bit for bit: any change to the order, shape or pricing of the plan's
// device operations moves at least one of them.
type goldenVTCase struct {
	name   string
	mutate func(*Options)
	faults string // fault schedule attached to the device ("" = none)
	splits bool   // the plan must split lists across batches
	want   []uint64
}

// goldenVTFigures flattens a run's virtual-clock figures in a fixed order:
// Float64bits of TotalNs, CPUNs, GPUNs, H2DNs and D2HNs; H2D and D2H bytes;
// kernel launches; then Float64bits of each pass's predicted and actual
// scheduler window.
func goldenVTFigures(res *Result, launches int64) []uint64 {
	t := res.Timings
	out := []uint64{
		math.Float64bits(t.TotalNs), math.Float64bits(t.CPUNs), math.Float64bits(t.GPUNs),
		math.Float64bits(t.H2DNs), math.Float64bits(t.D2HNs),
		uint64(t.H2DBytes), uint64(t.D2HBytes), uint64(launches),
	}
	for _, p := range []*PassStats{&res.Pass1, &res.Pass2} {
		out = append(out, math.Float64bits(p.Plan.PredictedNs), math.Float64bits(p.Plan.ActualNs))
	}
	return out
}

// TestGoldenVirtualTime pins the virtual-clock figures of every executor
// plan on one planted graph. A change that keeps each plan's device
// operations must reproduce them exactly; one that moves them on purpose
// re-records them from the figures the failure prints.
func TestGoldenVirtualTime(t *testing.T) {
	g := plantedHubGraph()
	fixed := func(mut func(*Options)) func(*Options) {
		return func(o *Options) {
			o.Plan.BudgetWords = 5_000
			mut(o)
		}
	}
	cases := []goldenVTCase{
		{name: "one-lane fused packed", mutate: fixed(func(o *Options) {}),
			want: []uint64{
				0x41e6d1521c4b823e, 0x41938bd1c0000000, 0x417b0062c4ec4eb4, 0x41aa3abe54000000,
				0x41e45604c45d1742, 0xe054, 0xfdde0, 0x2a8,
				0x41d1b9f58be99f51, 0x41d1d3d315c23cda, 0x41daa046b7dba115, 0x41daa795918ba310,
			}},
		{name: "unpacked", mutate: fixed(func(o *Options) { o.Plan.Packed = false }),
			want: []uint64{
				0x41e7584ba7241fd8, 0x41937e89e0000000, 0x4197aa49ec4ec531, 0x41aa3be254000000,
				0x41e45604c45d1742, 0x20454, 0xfdde0, 0x2a8,
				0x41d21f1a207377f0, 0x41d28b3a207377e3, 0x41dab29a812d2cf3, 0x41dafe219c8ba33b,
			}},
		{name: "full sort", mutate: fixed(func(o *Options) { o.Plan.FullSort = true }),
			want: []uint64{
				0x41ecf7c01ce90c1b, 0x41938bd1c0000000, 0x41c971bb189d89f1, 0x41aa3abe54000000,
				0x41e45604c45d1742, 0xe054, 0xfdde0, 0x550,
				0x41d52707cf9ada78, 0x41db0422e34c151d, 0x41db257a320b225e, 0x41ddc421c53cde87,
			}},
		{name: "split lists", mutate: fixed(func(o *Options) { o.Plan.BudgetWords = 2_000 }), splits: true,
			want: []uint64{
				0x41fa950d6047b57d, 0x41938cbfd8000000, 0x4181d25fcab62eb4, 0x41bf3c0b9c000000,
				0x41f82cd3d7ffffed, 0xe138, 0xfdf20, 0x654,
				0x41e4245bcdd7b857, 0x41e4316b7416422a, 0x41f02f924bc2e8bc, 0x41f03288c1ea4b44,
			}},
		{name: "pipelined", mutate: fixed(func(o *Options) { o.Plan.Lanes = 2 }),
			want: []uint64{
				0x41e1e8439d906e7e, 0x41938bd1c0000000, 0x417b6462c4ec4ec0, 0x41b9fdb464000000,
				0x41dc27b108ba2e84, 0x1bec8, 0xfdde0, 0x2a8,
				0x41b79c0c661ca4b4, 0x41b7b1fda13055f4, 0x41dcbc112bc6d5f0, 0x41dcbccc418ba2ed,
			}},
		{name: "auto-tuned", mutate: func(o *Options) { o.AutoTune = true },
			want: []uint64{
				0x41abe009b37d0f12, 0x41938bd1c0000000, 0x4150e2d09d89d8a2, 0x417abc8ca0000000,
				0x419cf4e88ba2e8b7, 0x11394, 0xfdde0, 0x3c,
				0x418892d1e8479bc1, 0x4188c4a0ad33ea86, 0x4198e298c0ba2e8a, 0x4198ea09fbcddfbc,
			}},
		{name: "gpu agg split lists", splits: true,
			mutate: fixed(func(o *Options) { o.Plan.BudgetWords = 2_000; o.Plan.DeviceAggregate = true }),
			want: []uint64{
				0x42043d84a801783f, 0x4171f57460000000, 0x41a46d6347e6abc9, 0x41d5c1a7c0000000,
				0x4201294ee0e8b9e1, 0x19400, 0x168cd0, 0x2260,
				0x41ecd3deb5c7d967, 0x41ed0edc97bd85a1, 0x41f98ed3eabd79d8, 0x41f9e1133a51e489,
			}},
		{name: "gpu agg params upload failed", faults: "malloc op=1",
			mutate: fixed(func(o *Options) { o.Plan.DeviceAggregate = true }),
			want: []uint64{
				0x41fda130275eaba5, 0x4171f2d900000000, 0x419e2ddc20e9d985, 0x41ef3bb5cec00000,
				0x41eaec13cdd17470, 0x1acec, 0x168c30, 0xe10,
				0x41e439f8f713a887, 0x41e45afac2f008e0, 0x41f32a22501d795d, 0x41f364fb9b145e10,
			}},
	}
	var record []string
	for _, tc := range cases {
		o := testOptions()
		tc.mutate(&o)
		dev := gpusim.MustNew(gpusim.K20Config())
		if tc.faults != "" {
			sch, err := faults.Parse(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			dev.SetFaultInjector(faults.NewInjector(sch))
		}
		res, err := ClusterGPU(g, dev, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.splits && res.Pass1.SplitLists == 0 {
			t.Fatalf("%s: no split lists; the plan does not exercise the split-list merge", tc.name)
		}
		got := goldenVTFigures(res, dev.Metrics().KernelLaunches)
		if !equalUint64s(got, tc.want) {
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

// plantedHubGraph is a planted graph plus one hub adjacent to every other
// vertex: the hub's list outgrows a 2,000-word budget's largest piece, so
// such a plan splits it across batches while keeping batches few.
func plantedHubGraph() *graph.Graph {
	pg, _ := plantedTestGraph(800, 11)
	b := graph.NewBuilder(pg.NumVertices())
	for v := 0; v < pg.NumVertices(); v++ {
		for _, u := range pg.Neighbors(uint32(v)) {
			if uint32(v) < u {
				b.AddEdge(uint32(v), u)
			}
		}
		if v > 0 {
			b.AddEdge(0, uint32(v))
		}
	}
	return b.Build()
}

func equalUint64s(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
