package gpusim

import (
	"bytes"
	"strings"
	"testing"
)

func TestProfilingRecordsKernels(t *testing.T) {
	d := MustNew(K20Config())
	d.EnableProfiling()
	d.NextKernelName("alpha")
	if err := d.Launch(4, 64, func(ctx *ThreadCtx) { ctx.Ops(10) }); err != nil {
		t.Fatal(err)
	}
	d.NextKernelName("beta")
	if err := d.Launch(8, 64, func(ctx *ThreadCtx) { ctx.Ops(10) }); err != nil {
		t.Fatal(err)
	}
	// unnamed launch
	if err := d.Launch(1, 32, func(ctx *ThreadCtx) { ctx.Ops(1) }); err != nil {
		t.Fatal(err)
	}
	p := d.Profile()
	if len(p) != 3 {
		t.Fatalf("%d profile records, want 3", len(p))
	}
	if p[0].Name != "alpha" || p[1].Name != "beta" || p[2].Name != "" {
		t.Fatalf("names = %q %q %q", p[0].Name, p[1].Name, p[2].Name)
	}
	if p[0].Grid != 4 || p[0].Block != 64 || p[0].Threads != 256 {
		t.Fatalf("record 0 geometry = %+v", p[0])
	}
	if p[0].DurationNs <= 0 {
		t.Fatal("non-positive kernel duration")
	}
	if p[0].Occupancy <= 0 || p[0].Occupancy > 1 {
		t.Fatalf("occupancy = %v", p[0].Occupancy)
	}
}

func TestProfilingOffByDefault(t *testing.T) {
	d := MustNew(K20Config())
	d.NextKernelName("x")
	if err := d.Launch(1, 32, func(ctx *ThreadCtx) {}); err != nil {
		t.Fatal(err)
	}
	if len(d.Profile()) != 0 {
		t.Fatal("profiling recorded while disabled")
	}
}

func TestSummarizeProfile(t *testing.T) {
	d := MustNew(K20Config())
	d.EnableProfiling()
	for i := 0; i < 3; i++ {
		d.NextKernelName("hot")
		_ = d.Launch(32, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) })
	}
	d.NextKernelName("cold")
	_ = d.Launch(1, 32, func(ctx *ThreadCtx) { ctx.Ops(1) })

	sum := d.SummarizeProfile()
	if len(sum) != 2 {
		t.Fatalf("%d summary rows, want 2", len(sum))
	}
	if sum[0].Name != "hot" || sum[0].Launches != 3 {
		t.Fatalf("heaviest = %+v", sum[0])
	}
	if sum[0].TotalNs <= sum[1].TotalNs {
		t.Fatal("summary not sorted by total time")
	}
	var buf bytes.Buffer
	d.WriteProfile(&buf)
	if !strings.Contains(buf.String(), "hot") || !strings.Contains(buf.String(), "kernel") {
		t.Fatalf("WriteProfile output incomplete:\n%s", buf.String())
	}
}
