package gpusim

import "testing"

func TestTraceRecordsIntervals(t *testing.T) {
	d := MustNew(K20Config())
	d.EnableTracing()
	buf := d.MustMalloc(1024)
	defer buf.Free()
	_ = d.CopyH2D(buf, 0, make([]uint32, 1024))
	d.NextKernelName("work")
	_ = d.Launch(16, 256, func(ctx *ThreadCtx) { ctx.Ops(100) })
	d.AdvanceHost(5000)
	host := make([]uint32, 1024)
	_ = d.CopyD2H(host, buf, 0)

	tr := d.Trace()
	if len(tr) != 4 {
		t.Fatalf("%d trace events, want 4", len(tr))
	}
	wantTracks := []string{"copy", "compute", "host", "copy"}
	wantNames := []string{"H2D", "work", "host-work", "D2H"}
	for i, e := range tr {
		if e.Track != wantTracks[i] || e.Name != wantNames[i] {
			t.Fatalf("event %d = %+v, want %s/%s", i, e, wantTracks[i], wantNames[i])
		}
		if e.EndNs <= e.StartNs {
			t.Fatalf("event %d has non-positive duration", i)
		}
		if i > 0 && e.StartNs < tr[i-1].StartNs {
			t.Fatalf("events out of schedule order")
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	d := MustNew(K20Config())
	_ = d.Launch(1, 32, func(ctx *ThreadCtx) {})
	if len(d.Trace()) != 0 {
		t.Fatal("trace recorded while disabled")
	}
}
