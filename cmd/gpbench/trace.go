package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gpclust/internal/gpusim"
	"gpclust/internal/obs"
	"gpclust/internal/sched"
)

// clientTrace records the benchmark's own spans — one per set-up, operation
// or request, on the wall clock of one stopwatch — and writes them as a
// Chrome trace. It never goes through internal/obs, whose …Ns parameters
// carry virtual time only.
type clientTrace struct {
	sw    *sched.Stopwatch
	mu    sync.Mutex
	spans []clientSpan
}

type clientSpan struct {
	name           string
	tid            int // 0: set-up, 1: untraced operations, 2: traced operations, ≥3: clients
	startNs, endNs int64
	id             int // operation or request number
}

func newClientTrace() *clientTrace { return &clientTrace{sw: sched.NewStopwatch()} }

func (t *clientTrace) now() int64 { return t.sw.Total() }

func (t *clientTrace) add(s clientSpan) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *clientTrace) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]map[string]any, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, map[string]any{
			"name": s.name, "ph": "X", "pid": 1, "tid": s.tid,
			"ts": float64(s.startNs) / 1e3, "dur": float64(s.endNs-s.startNs) / 1e3,
			"args": map[string]any{"id": s.id},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeTraces writes the program's merged trace of one traced operation
// (host spans from its recorder plus the device timeline, if any) and the
// benchmark's client spans into dir.
func writeTraces(dir, workload string, rec *obs.Recorder, dev *gpusim.Device, client *clientTrace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var devs []obs.DeviceTimeline
	if dev != nil {
		devs = []obs.DeviceTimeline{{Name: "device0", Events: dev.Trace()}}
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteMergedTrace(f, rec, devs); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return client.write(filepath.Join(dir, workload+".client.json"))
}
