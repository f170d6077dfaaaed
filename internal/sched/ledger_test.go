package sched

import (
	"testing"

	"gpclust/internal/gpusim"
	"gpclust/internal/obs"
)

// ledgerCharges is a charge sequence touching every column rule.
var ledgerCharges = []struct {
	name string
	ns   float64
}{
	{obs.NameRead, 700},
	{obs.NameShingle, 340},
	{"aggregate", 38},
	{obs.NameBackoff, 2000},
	{"report", 20},
	{obs.NameShingle, 680},
	{"pack", 8},
}

// TestLedgerClockAndColumns: a device-backed ledger advances the device's
// host clock, a host-only one its own, both by exactly the charged ns, and
// the columns follow the name rule — read to DiskIO, shingle to Shingle,
// backoff to none, anything else to CPU.
func TestLedgerClockAndColumns(t *testing.T) {
	dev := gpusim.MustNew(gpusim.K20Config())
	dev.AdvanceHost(5) // the ledger charges from wherever the clock stands
	for _, led := range []*Ledger{NewLedger(dev, nil), NewLedger(nil, nil)} {
		start := led.Now()
		var sum float64
		for _, c := range ledgerCharges {
			led.Charge(c.name, c.ns)
			sum += c.ns
			if got := led.Now() - start; got != sum {
				t.Fatalf("device=%v: clock advanced %g after charging %g", led.dev != nil, got, sum)
			}
		}
		want := obs.Split{ShingleNs: 1020, CPUNs: 66, DiskIONs: 700}
		if got := led.Split(); got != want {
			t.Fatalf("device=%v: columns %+v, want %+v", led.dev != nil, got, want)
		}
	}
	if got := dev.HostTime(); got != 5+3786 {
		t.Fatalf("device host clock at %g, want %g", got, 5.0+3786)
	}
}

// TestLedgerMirrorsSpans: with a recorder every positive charge is one
// host-cpu span over exactly its interval of the clock, and TableSplit over
// those spans gives the ledger's columns back.
func TestLedgerMirrorsSpans(t *testing.T) {
	rec := obs.New()
	led := NewLedger(nil, rec)
	led.Charge("idle", 0) // nothing to mirror
	for _, c := range ledgerCharges {
		led.Charge(c.name, c.ns)
	}
	spans := rec.Spans()
	if len(spans) != len(ledgerCharges) {
		t.Fatalf("%d spans for %d charges", len(spans), len(ledgerCharges))
	}
	at := 0.0
	for i, s := range spans {
		c := ledgerCharges[i]
		if s.Track != obs.TrackHostCPU || s.Name != c.name || s.StartNs != at || s.EndNs != at+c.ns {
			t.Fatalf("span %d = %+v, want %s on %s over [%g, %g]", i, s, c.name, obs.TrackHostCPU, at, at+c.ns)
		}
		at += c.ns
	}
	sp := obs.TableSplit(spans, nil)
	if want := led.Split(); sp.ShingleNs != want.ShingleNs || sp.CPUNs != want.CPUNs ||
		sp.DiskIONs != want.DiskIONs || sp.TotalNs != led.Now() {
		t.Fatalf("TableSplit %+v disagrees with the ledger %+v at %g", sp, want, led.Now())
	}
}

// TestLedgerNilRecorderAllocatesNothing: without a recorder a charge keeps
// no event and allocates nothing.
func TestLedgerNilRecorderAllocatesNothing(t *testing.T) {
	dev := gpusim.MustNew(gpusim.K20Config())
	for _, led := range []*Ledger{NewLedger(dev, nil), NewLedger(nil, nil)} {
		allocs := testing.AllocsPerRun(100, func() {
			led.Charge("aggregate", 38)
			led.Charge(obs.NameRead, 7)
		})
		if allocs != 0 {
			t.Fatalf("device=%v: %g allocations per charge pair, want 0", led.dev != nil, allocs)
		}
	}
}
