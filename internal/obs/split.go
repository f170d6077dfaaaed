package obs

// Split is a Table-I-style component breakdown: the host columns of a run's
// charges (AddHost), or the whole row rebuilt from a trace (TableSplit).
type Split struct {
	ShingleNs float64 // host-cpu "shingle" charges
	CPUNs     float64 // every other host-cpu charge except read/backoff
	GPUNs     float64 // device compute-track events
	H2DNs     float64 // device copy-track H2D events
	D2HNs     float64 // device copy-track D2H events
	DiskIONs  float64 // host-cpu "read" charges
	TotalNs   float64 // latest end across all spans and device events
}

// AddHost adds a named host charge to its column: read to DiskIONs, shingle
// to ShingleNs, backoff (fault-retry stalls) to none, any other to CPUNs.
func (sp *Split) AddHost(name string, ns float64) {
	switch name {
	case NameRead:
		sp.DiskIONs += ns
	case NameShingle:
		sp.ShingleNs += ns
	case NameBackoff:
		// stalls: total time only
	default:
		sp.CPUNs += ns
	}
}

// TableSplit derives the component breakdown from the given spans and
// device timelines: host-cpu spans by AddHost's rule, TotalNs the latest end.
func TableSplit(spans []Span, devs []DeviceTimeline) Split {
	var sp Split
	for _, s := range spans {
		if s.EndNs > sp.TotalNs {
			sp.TotalNs = s.EndNs
		}
		if s.Track == TrackHostCPU {
			sp.AddHost(s.Name, s.EndNs-s.StartNs)
		}
	}
	for _, dev := range devs {
		for _, e := range dev.Events {
			if e.EndNs > sp.TotalNs {
				sp.TotalNs = e.EndNs
			}
			switch e.Track {
			case "compute":
				sp.GPUNs += e.EndNs - e.StartNs
			case "copy":
				if e.Name == "D2H" {
					sp.D2HNs += e.EndNs - e.StartNs
				} else {
					sp.H2DNs += e.EndNs - e.StartNs
				}
			}
		}
	}
	return sp
}
