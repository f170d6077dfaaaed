package gpusim

import (
	"fmt"
	"io"
	"sort"
)

// KernelRecord is one launch's profile entry (the analogue of an nvprof
// row): what ran, for how long on the virtual clock, and the cost-model
// inputs that explain the duration.
type KernelRecord struct {
	Name         string
	Grid, Block  int
	DurationNs   float64
	Threads      int64
	WarpOps      int64 // warp-serialized instruction count (divergence included)
	Transactions int64 // 128-byte global-memory transactions
	Occupancy    float64
}

// EnableProfiling starts recording a KernelRecord per launch. Profiling is
// off by default (records accumulate without bound while on).
func (d *Device) EnableProfiling() {
	d.mu.Lock()
	d.profiling = true
	d.mu.Unlock()
}

// Profile returns the records captured since EnableProfiling, in launch
// order.
func (d *Device) Profile() []KernelRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]KernelRecord, len(d.profile))
	copy(out, d.profile)
	return out
}

// NextKernelName labels the next launch in the profile (consumed once).
// The thrust primitives and the gpClust kernels label themselves.
func (d *Device) NextKernelName(name string) {
	d.mu.Lock()
	d.pendingName = name
	d.mu.Unlock()
}

// ProfileSummary aggregates the profile by kernel name, heaviest first.
type ProfileSummary struct {
	Name       string
	Launches   int
	TotalNs    float64
	AvgOccup   float64
	TotalTrans int64
}

// SummarizeProfile groups the device's profile by kernel name.
func (d *Device) SummarizeProfile() []ProfileSummary {
	byName := map[string]*ProfileSummary{}
	for _, r := range d.Profile() {
		name := r.Name
		if name == "" {
			name = "(unnamed)"
		}
		s := byName[name]
		if s == nil {
			s = &ProfileSummary{Name: name}
			byName[name] = s
		}
		s.Launches++
		s.TotalNs += r.DurationNs
		s.AvgOccup += r.Occupancy
		s.TotalTrans += r.Transactions
	}
	out := make([]ProfileSummary, 0, len(byName))
	for _, s := range byName {
		s.AvgOccup /= float64(s.Launches)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalNs > out[j].TotalNs })
	return out
}

// WriteProfile renders the summary as an nvprof-style table.
func (d *Device) WriteProfile(w io.Writer) {
	fmt.Fprintf(w, "%-24s %9s %12s %10s %14s\n", "kernel", "launches", "time (ms)", "occupancy", "transactions")
	for _, s := range d.SummarizeProfile() {
		fmt.Fprintf(w, "%-24s %9d %12.3f %9.0f%% %14d\n",
			s.Name, s.Launches, s.TotalNs/1e6, 100*s.AvgOccup, s.TotalTrans)
	}
}
