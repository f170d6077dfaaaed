package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the program's metric and
// workload tables in step.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadRepoSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one non-empty line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		spec []specMetric
		prog []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.kind, len(c.spec), len(c.prog))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", c.kind, m.Name, m.Better)
			}
		}
	}
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g, want the largest bound %g", setupBound, maxBound)
	}
}

// TestSmoke runs every workload with tiny inputs, untraced and traced, and
// checks the output contract: the last line holds exactly correct, attempted,
// failed and metrics; every metric BENCHMARK.json names is printed with its
// unit (end-to-end ones never 0); and the correctness checks pass.
func TestSmoke(t *testing.T) {
	spec := loadRepoSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			dir := t.TempDir()
			recPath := filepath.Join(dir, "runs.jsonl")
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.Name, "--quick", "--seconds", "0.5", "--trace", trace, "--trace-dir", dir, "--record", recPath}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.Name, trace, code, out.String(), errOut.String())
			}
			recs, err := loadRecords(recPath)
			if err != nil || len(recs) != 1 {
				t.Fatalf("%s trace=%s: --record wrote %d records: %v", w.Name, trace, len(recs), err)
			}
			// Batch workloads carry the exact virtual time; serve-mixed runs no device.
			if v, ok := recs[0].Exact["virtual_s"]; ok != (w.Name != "serve-mixed") || (ok && v <= 0) {
				t.Errorf("%s trace=%s: recorded exact metrics %v", w.Name, trace, recs[0].Exact)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			last := []byte(lines[len(lines)-1])
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(last, &keys); err != nil {
				t.Fatalf("%s trace=%s: last line is not JSON: %v\n%s", w.Name, trace, err, last)
			}
			if got := len(keys); got != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Fatalf("%s trace=%s: keys of the last line are not exactly correct, attempted, failed, metrics: %s", w.Name, trace, last)
			}
			var res result
			if err := json.Unmarshal(last, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, errOut.String())
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, must be positive", w.Name, m.Name, got.Value)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s trace=%s: %s missing from the human-readable lines", w.Name, trace, m.Name)
				}
			}
			if trace == "1" {
				for _, f := range []string{w.Name + ".trace.json", w.Name + ".client.json"} {
					data, err := os.ReadFile(filepath.Join(dir, f))
					if err != nil || !json.Valid(data) {
						t.Errorf("%s: trace file %s missing or invalid: %v", w.Name, f, err)
					}
				}
			}
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--quick"},
		{"--workload", "shingle", "--trace", "2"},
		{"--workload", "shingle", "--seconds", "0"},
		{"--compare", "only-one-file"},
		{"--workload", "serve-mixed", "--quick", "--rate", "-1"},
		{"--workload", "serve-mixed", "--quick", "--rate", "50", "--record", "sweep.jsonl"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0, want failure", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result line on failure", args)
		}
	}
}
