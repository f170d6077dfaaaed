package sched

import (
	"gpclust/internal/gpusim"
	"gpclust/internal/obs"
)

// Ledger is one run's account of host virtual time: every priced host
// operation of the run is one Charge. A charge advances the run's clock
// (the device's host clock, or the ledger's own when the run has no
// device), adds its ns to one Table I column by obs.Split.AddHost's rule,
// and, with a recorder, is mirrored as one span on obs.TrackHostCPU.
//
// A ledger has one writer: worker pools join before their caller charges.
// It belongs to one run, so a recorder shared across runs never mixes
// their totals.
type Ledger struct {
	dev   *gpusim.Device
	rec   *obs.Recorder
	clock float64 // the run's clock when dev is nil
	split obs.Split
}

// NewLedger returns an empty ledger on dev's host clock, or on its own
// clock from 0 when dev is nil. rec may be nil.
func NewLedger(dev *gpusim.Device, rec *obs.Recorder) *Ledger {
	return &Ledger{dev: dev, rec: rec}
}

// Now is the run's current position on the virtual clock.
func (l *Ledger) Now() float64 {
	if l.dev != nil {
		return l.dev.HostTime()
	}
	return l.clock
}

// Charge spends ns of host time on the named operation.
func (l *Ledger) Charge(name string, ns float64) {
	record := l.rec.Enabled() && ns > 0
	var t0 float64
	if record {
		t0 = l.Now()
	}
	if l.dev != nil {
		l.dev.AdvanceHost(ns)
	} else {
		l.clock += ns
	}
	l.split.AddHost(name, ns)
	if record {
		l.rec.Span(obs.TrackHostCPU, name, t0, t0+ns)
	}
}

// Split returns the columns charged so far: ShingleNs, CPUNs and DiskIONs.
func (l *Ledger) Split() obs.Split { return l.split }

// Phase opens a span on obs.TrackPhases at the current virtual time; close
// it with EndPhase. Both are inert without a recorder.
func (l *Ledger) Phase(name string) obs.Ending {
	if !l.rec.Enabled() {
		return obs.Ending{}
	}
	return l.rec.Start(obs.TrackPhases, name, l.Now())
}

// EndPhase closes a span opened by Phase at the current virtual time.
func (l *Ledger) EndPhase(e obs.Ending) { e.End(l.Now()) }

// Recovery marks a fault-recovery action on obs.TrackRecovery at the
// current virtual time.
func (l *Ledger) Recovery(name string) {
	if l.rec.Enabled() {
		l.rec.Instant(obs.TrackRecovery, name, l.Now())
	}
}
