package faults

import (
	"fmt"
	"strings"
	"sync"

	"gpclust/internal/gpusim"
	"gpclust/internal/obs"
)

// Injector is the schedule-driven gpusim.FaultInjector. It keeps one
// operation counter per fault kind, incremented on every consultation, and
// fires each event for Count consecutive operations of its kind starting
// at its trigger. The mutex only guards the counters (gpusim consults the
// injector from the host goroutine, but a caller may share one injector
// across devices); decisions depend solely on
// counter values and the virtual clock, so they are deterministic.
type Injector struct {
	mu   sync.Mutex
	seen [gpusim.NumFaultKinds]int64 // consultations per kind
	hits [gpusim.NumFaultKinds]int64 // faults fired per kind
	evs  []eventState
	rec  *obs.Recorder // nil: no recording
}

// eventState is one event plus its arming state: for at= events, the
// ordinal of the first consultation at or after the trigger time.
type eventState struct {
	ev      Event
	armedAt int64 // first firing ordinal for at= events (0: not yet armed)
}

// NewInjector builds an injector for the schedule.
func NewInjector(s Schedule) *Injector {
	inj := &Injector{evs: make([]eventState, len(s.Events))}
	for i, ev := range s.Events {
		if ev.Count < 1 {
			ev.Count = 1
		}
		if ev.Count > MaxCount {
			ev.Count = MaxCount
		}
		if ev.Kind == gpusim.FaultSlowSM && ev.Slow <= 1 {
			ev.Slow = DefaultSlow
		}
		inj.evs[i] = eventState{ev: ev}
	}
	return inj
}

// SetRecorder wires an observability recorder: every fired fault is marked
// as an instant on the faults track at its virtual firing time, and counted
// in the gpclust_faults_injected counter. Call before the run starts.
func (inj *Injector) SetRecorder(r *obs.Recorder) {
	inj.mu.Lock()
	inj.rec = r
	inj.mu.Unlock()
}

// Decide implements gpusim.FaultInjector.
func (inj *Injector) Decide(kind gpusim.FaultKind, nowNs float64) gpusim.FaultDecision {
	if kind < 0 || kind >= gpusim.NumFaultKinds {
		return gpusim.FaultDecision{}
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.seen[kind]++
	n := inj.seen[kind]
	var dec gpusim.FaultDecision
	for i := range inj.evs {
		st := &inj.evs[i]
		if st.ev.Kind != kind {
			continue
		}
		first := st.ev.Op
		if first == 0 { // at= trigger: arm on the first op at/after At.
			if st.armedAt == 0 && nowNs >= st.ev.At {
				st.armedAt = n
			}
			first = st.armedAt
			if first == 0 {
				continue
			}
		}
		if n < first || n >= first+st.ev.Count {
			continue
		}
		if kind == gpusim.FaultSlowSM {
			if st.ev.Slow > dec.Slow {
				dec.Slow = st.ev.Slow
			}
		} else {
			dec.Fail = true
		}
	}
	if dec.Fail || dec.Slow > 1 {
		inj.hits[kind]++
		if inj.rec.Enabled() {
			// obs never calls back into faults, so recording under inj.mu
			// cannot deadlock.
			inj.rec.Instant(obs.TrackFaults, "fault:"+kind.String(), nowNs)
			inj.rec.Counter("gpclust_faults_injected",
				"Faults the injector fired (including slow-SM spikes).").Inc()
		}
	}
	return dec
}

// Fired returns how many faults of the kind have fired.
func (inj *Injector) Fired(kind gpusim.FaultKind) int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if kind < 0 || kind >= gpusim.NumFaultKinds {
		return 0
	}
	return inj.hits[kind]
}

// TotalFailures returns how many operations the injector failed — every
// fired fault except slow-SM spikes, which slow a kernel but do not fail
// it. Consumers' Recovery counters are nonzero exactly when this is.
func (inj *Injector) TotalFailures() int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var total int64
	for k := gpusim.FaultKind(0); k < gpusim.NumFaultKinds; k++ {
		if k != gpusim.FaultSlowSM {
			total += inj.hits[k]
		}
	}
	return total
}

// TotalFired returns how many faults of any kind (including slow-SM
// spikes) have fired.
func (inj *Injector) TotalFired() int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var total int64
	for k := gpusim.FaultKind(0); k < gpusim.NumFaultKinds; k++ {
		total += inj.hits[k]
	}
	return total
}

// String summarizes fired faults per kind, e.g. "h2d:2 malloc:1".
func (inj *Injector) String() string {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var parts []string
	for k := gpusim.FaultKind(0); k < gpusim.NumFaultKinds; k++ {
		if inj.hits[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", k, inj.hits[k]))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}
