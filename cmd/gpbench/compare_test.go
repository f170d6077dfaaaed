package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	pair := func(a, b []float64) [][2]float64 {
		out := make([][2]float64, len(a))
		for i := range a {
			out[i] = [2]float64{a[i], b[i]}
		}
		return out
	}
	noisy := []float64{70, 130, 85, 115, 100, 75, 125, 90, 110, 100}
	for _, c := range []struct {
		name      string
		m         specMetric
		base, new []float64
		pairs     bool
		want      string
	}{
		{"same", lower, steady, steady, true, verdictWithin},
		{"slightly slower within bound", lower, steady, scale(steady, 1.05), true, verdictWithin},
		{"slower beyond bound", lower, steady, scale(steady, 1.2), true, verdictWorse},
		{"faster beyond spread, every pair won", lower, steady, scale(steady, 0.8), true, verdictBetter},
		{"faster without pairs, every run better", lower, steady, scale(steady, 0.8), false, verdictBetter},
		{"higher-better drop", higher, steady, scale(steady, 0.8), true, verdictWorse},
		{"higher-better gain", higher, steady, scale(steady, 1.2), true, verdictBetter},
		{"base spread wider than bound", lower, noisy, scale(noisy, 1.05), true, verdictUnresolved},
		{"noisy base, every new run better", lower, noisy, scale(steady, 0.5), true, verdictBetter},
		{"no new runs", lower, steady, nil, false, verdictUnresolved},
		{"no base runs", higher, nil, steady, false, verdictUnresolved},
	} {
		var pairs [][2]float64
		if c.pairs {
			pairs = pair(c.base, c.new)
		}
		if got := judge(c.m, c.base, c.new, pairs); got.verdict != c.want {
			t.Errorf("%s: verdict %q (worsening %.3f, base spread %.3f), want %q",
				c.name, got.verdict, got.worsening, got.base.RelSpread, c.want)
		}
	}
}

// TestPairBySeed checks that the k-th base run of a seed pairs with the k-th
// new run of that seed, and that runs without a partner stay unpaired.
func TestPairBySeed(t *testing.T) {
	base := []seeded{{1, 10}, {2, 20}, {1, 11}}
	new := []seeded{{1, 100}, {2, 200}, {1, 101}, {2, 201}, {3, 300}}
	got := pairBySeed(base, new)
	want := [][2]float64{{10, 100}, {20, 200}, {11, 101}}
	if len(got) != len(want) {
		t.Fatalf("pairs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pairs %v, want %v", got, want)
		}
	}
}

func TestJudgeExact(t *testing.T) {
	m := specMetric{Name: "virtual_s", Unit: "sim_s", Better: "lower"}
	base := []seeded{{1, 3.5}, {2, 3.6}}
	for _, c := range []struct {
		name string
		new  []seeded
		want string
	}{
		{"identical", []seeded{{1, 3.5}, {2, 3.6}, {1, 3.5}}, verdictWithin},
		{"one seed slower by a hair", []seeded{{1, 3.5}, {2, 3.6000001}}, verdictWorse},
		{"one faster, one slower", []seeded{{1, 3.4}, {2, 3.7}}, verdictWorse},
		{"faster, rest equal", []seeded{{1, 3.4}, {2, 3.6}}, verdictBetter},
		{"no same-seed pairs", []seeded{{3, 1}}, verdictUnresolved},
	} {
		if got := judgeExact(m, base, c.new); got.verdict != c.want {
			t.Errorf("%s: verdict %q (worsening %g), want %q", c.name, got.verdict, got.worsening, c.want)
		}
	}
}

// TestCompareFiles runs --compare end to end on record files: a row per
// workload × end-to-end metric, an exact virtual_s row where the workload has
// one, a failed_share row, and a non-zero exit when a row is worse or
// unresolved.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	specJSON := `{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	// write records seeds 1–5 of each workload with the given p50; edit may
	// change any record before it is written.
	write := func(name string, p50 map[string]float64, edit func(*record)) string {
		var buf bytes.Buffer
		for seed := int64(1); seed <= 5; seed++ {
			for _, w := range []string{"homology-exact", "shingle"} {
				v, ok := p50[w]
				if !ok {
					continue
				}
				r := record{Workload: w, Seed: seed, Exact: map[string]float64{"virtual_s": 3 + float64(seed)/10},
					result: result{Correct: true, Attempted: 10, Metrics: map[string]metric{
						"p50_ms":  {Value: v + float64(seed)/100, Unit: "ms"},
						"setup_s": {Value: 1, Unit: "s"},
					}}}
				if edit != nil {
					edit(&r)
				}
				line, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(append(line, '\n'))
			}
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	both := map[string]float64{"homology-exact": 100, "shingle": 200}
	base := write("base.jsonl", both, nil)
	compare := func(newPath string, wantCode int) string {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run([]string{"--compare", "--spec", spec, base, newPath}, &out, &errOut); code != wantCode {
			t.Fatalf("compare with %s: exit %d, want %d\n%s%s", filepath.Base(newPath), code, wantCode, out.String(), errOut.String())
		}
		return out.String()
	}
	row := func(out, workload, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == workload && f[1] == metric {
				return line
			}
		}
		t.Fatalf("no %s %s row in\n%s", workload, metric, out)
		return ""
	}
	expectRow := func(out, workload, metric, verdict string) {
		t.Helper()
		if line := row(out, workload, metric); !strings.HasSuffix(line, "  "+verdict) {
			t.Errorf("%s %s should read %q: %s", workload, metric, verdict, line)
		}
	}

	out := compare(write("same.jsonl", both, nil), 0)
	if n := strings.Count(out, verdictWithin); n != 8 {
		t.Errorf("want 8 %q rows (2 workloads × p50, setup, virtual_s, failed_share), got %d:\n%s", verdictWithin, n, out)
	}

	out = compare(write("slow.jsonl", map[string]float64{"homology-exact": 100, "shingle": 260}, nil), 1)
	expectRow(out, "shingle", "p50_ms", verdictWorse)
	expectRow(out, "homology-exact", "p50_ms", verdictWithin)

	// Faster, but one operation in ten fails: the p50 gain does not count.
	out = compare(write("failing.jsonl", map[string]float64{"homology-exact": 50, "shingle": 100}, func(r *record) {
		if r.Workload == "shingle" {
			r.Failed = 1
		}
	}), 1)
	expectRow(out, "homology-exact", "p50_ms", verdictBetter)
	expectRow(out, "shingle", "p50_ms", verdictWithin)
	expectRow(out, "shingle", "failed_share", verdictWorse)

	// The simulated clock moved on one seed of one workload.
	out = compare(write("virtual.jsonl", both, func(r *record) {
		if r.Workload == "shingle" && r.Seed == 3 {
			r.Exact["virtual_s"] += 1e-9
		}
	}), 1)
	expectRow(out, "shingle", "virtual_s", verdictWorse)
	expectRow(out, "homology-exact", "virtual_s", verdictWithin)

	// The new side never ran shingle.
	out = compare(write("partial.jsonl", map[string]float64{"homology-exact": 100}, nil), 1)
	expectRow(out, "shingle", "p50_ms", verdictUnresolved)
	expectRow(out, "shingle", "failed_share", verdictUnresolved)
	expectRow(out, "homology-exact", "p50_ms", verdictWithin)
}
