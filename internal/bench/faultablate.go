package bench

import (
	"fmt"
	"reflect"

	"gpclust/internal/core"
	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
)

// AblateFaults is the fault-sweep study: the same graph is clustered
// fault-free and then under a ladder of injected device-fault schedules
// (transient transfer/kernel faults, persistent OOM, a full fault storm
// forcing the host fallback, and a latency-only slow-SM spike). Every
// recovered run must produce the bit-identical clustering — the sweep
// errors out if one diverges — and the rows report what each recovery
// cost on the virtual clock.
func AblateFaults(scale float64, o core.Options) ([]AblationRow, error) {
	o.Plan.BudgetWords = 200_000 // several batches, so per-batch recovery has scope
	g, _ := graph.Planted(Paper20KConfig(scale))
	devClean := gpusim.MustNew(gpusim.K20Config())
	clean, err := core.ClusterGPU(g, devClean, o)
	if err != nil {
		return nil, err
	}

	cases := []struct {
		label    string
		schedule string
		comment  string
	}{
		{"fault-free", "", "baseline"},
		{"transient transfers", "h2d op=2 count=2; d2h op=7", "retried with backoff"},
		{"transient kernel", "kernel op=3 count=2", "retried with backoff"},
		{"persistent OOM", "malloc op=1 count=12", "batch split until it fits"},
		{"fault storm", "h2d op=1 count=100", "retry budget exhausted; host fallback"},
		{"slow SM x8", "slowsm op=1 count=6 x=8", "latency spike only; no recovery needed"},
	}
	rows := make([]AblationRow, 0, len(cases))
	for _, c := range cases {
		r := clean
		if c.schedule != "" {
			sched, err := faults.Parse(c.schedule)
			if err != nil {
				return nil, fmt.Errorf("bench: schedule %q: %w", c.schedule, err)
			}
			dev := gpusim.MustNew(gpusim.K20Config())
			dev.SetFaultInjector(faults.NewInjector(sched))
			if r, err = core.ClusterGPU(g, dev, o); err != nil {
				return nil, fmt.Errorf("bench: schedule %q: %w", c.schedule, err)
			}
			if !reflect.DeepEqual(clean.Clustering, r.Clustering) {
				return nil, fmt.Errorf("bench: schedule %q: recovered clustering diverged from the fault-free run", c.schedule)
			}
		}
		comment := recoveryComment(c.comment, r.Faults)
		rows = append(rows, timedRow(c.label, r.Timings.TotalNs,
			fmt.Sprintf("%s; identical clustering, +%.3fs vs fault-free",
				comment, s(r.Timings.TotalNs-clean.Timings.TotalNs))))
	}
	return rows, nil
}
