package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //gpclint:ignore unchecked-error read-only file, Close reports nothing actionable
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of one workload × metric comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// comparison is one row of --compare output.
type comparison struct {
	workload  string
	metric    specMetric
	base, new summary
	worsening float64 // relative change of the median, positive = worse
	winShare  float64 // share of same-seed pairs the new side won; -1 without pairs
	verdict   string
	detail    [2]string // base and new columns, when not a summary of run values
}

// seeded is one run's value of a metric with the run's seed.
type seeded struct {
	seed int64
	v    float64
}

func valuesOf(runs []seeded) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.v
	}
	return out
}

// pairBySeed pairs the k-th base run of each seed with the k-th new run of
// the same seed, so sides that ran every seed twice pair run for run.
func pairBySeed(base, new []seeded) [][2]float64 {
	bySeed := map[int64][]float64{}
	for _, r := range base {
		bySeed[r.seed] = append(bySeed[r.seed], r.v)
	}
	used := map[int64]int{}
	var pairs [][2]float64
	for _, r := range new {
		if k := used[r.seed]; k < len(bySeed[r.seed]) {
			pairs = append(pairs, [2]float64{bySeed[r.seed][k], r.v})
			used[r.seed] = k + 1
		}
	}
	return pairs
}

// judge compares one metric's runs. Unresolved: a side has no runs, or the
// base's own quartile spread exceeds the bound, so a change within it cannot
// be told from noise — unless every new run beats every base run. Worse: the
// new median is worse than the base median by more than the bound. Better:
// the median improved by more than the base's spread, and the new side won
// at least nine in ten same-seed pairs (or, without pairs, every new run beat
// every base run).
func judge(m specMetric, base, new []float64, pairs [][2]float64) comparison {
	c := comparison{metric: m, base: summarize(base), new: summarize(new), winShare: -1}
	if c.base.N == 0 || c.new.N == 0 {
		c.verdict = verdictUnresolved
		return c
	}
	lower := m.Better != "higher"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	if c.base.Med != 0 {
		c.worsening = (c.new.Med - c.base.Med) / math.Abs(c.base.Med)
		if !lower {
			c.worsening = -c.worsening
		}
	}
	allBetter := (lower && c.new.Max < c.base.Min) || (!lower && c.new.Min > c.base.Max)
	wins := allBetter
	if len(pairs) > 0 {
		n := 0
		for _, p := range pairs {
			if better(p[1], p[0]) {
				n++
			}
		}
		c.winShare = float64(n) / float64(len(pairs))
		wins = c.winShare >= 0.9
	}
	switch {
	case c.base.RelSpread > m.Bound && !allBetter:
		c.verdict = verdictUnresolved
	case c.worsening > m.Bound:
		c.verdict = verdictWorse
	case -c.worsening > c.base.RelSpread && wins:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictWithin
	}
	return c
}

// judgeExact compares an exact metric (lower is better) by same-seed pairs
// with bound 0: worse if any pair got worse, better if none did and one
// improved, unresolved without pairs. Its worsening is the largest relative
// change of a pair.
func judgeExact(m specMetric, base, new []seeded) comparison {
	c := comparison{metric: m, base: summarize(valuesOf(base)), new: summarize(valuesOf(new)), winShare: -1}
	pairs := pairBySeed(base, new)
	if len(pairs) == 0 {
		c.verdict = verdictUnresolved
		return c
	}
	var worse, better int
	c.worsening = math.Inf(-1)
	for _, p := range pairs {
		d := p[1] - p[0]
		if p[0] != 0 {
			d /= math.Abs(p[0])
		}
		c.worsening = math.Max(c.worsening, d)
		switch {
		case p[1] > p[0]:
			worse++
		case p[1] < p[0]:
			better++
		}
	}
	c.winShare = float64(better) / float64(len(pairs))
	switch {
	case worse > 0:
		c.verdict = verdictWorse
	case better > 0:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictWithin
	}
	return c
}

// judgeFailures compares the share of operations that failed, pooled over
// each side's runs, with bound 0. Its worsening is the difference of the two
// shares.
func judgeFailures(base, new []record) comparison {
	share := func(runs []record) (float64, string) {
		var failed, attempted int
		for _, r := range runs {
			failed += r.Failed
			attempted += r.Attempted
		}
		return ratio(float64(failed), float64(attempted)), fmt.Sprintf("%d of %d", failed, attempted)
	}
	c := comparison{metric: failedShare, winShare: -1}
	b, bText := share(base)
	n, nText := share(new)
	c.detail = [2]string{bText, nText}
	c.worsening = n - b
	switch {
	case len(base) == 0 || len(new) == 0:
		c.verdict = verdictUnresolved
	case n > b:
		c.verdict = verdictWorse
	case n < b:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictWithin
	}
	return c
}

// failedShare is the row every workload gets for failed operations: a gain
// does not count when more operations fail, since a failed request also
// drops out of the latency sample.
var failedShare = specMetric{Name: "failed_share", Unit: "ratio", Better: "lower"}

// compareRecords judges, for every workload in either file, each end-to-end
// metric, each exact metric the workload reports, and its failed operations.
// When more operations fail, no row of that workload reads better. Traced
// runs are left out: they measure the per-layer split.
func compareRecords(spec *benchSpec, base, new []record) []comparison {
	var order []string
	seen := map[string]bool{}
	for _, r := range append(slices.Clip(base), new...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			order = append(order, r.Workload)
		}
	}
	untraced := func(recs []record, w string) (out []record) {
		for _, r := range recs {
			if r.Workload == w && !r.Trace {
				out = append(out, r)
			}
		}
		return out
	}
	collect := func(runs []record, value func(record) (float64, bool)) (out []seeded) {
		for _, r := range runs {
			if v, ok := value(r); ok {
				out = append(out, seeded{r.Seed, v})
			}
		}
		return out
	}
	var out []comparison
	for _, w := range order {
		b, n := untraced(base, w), untraced(new, w)
		var rows []comparison
		for _, m := range spec.EndToEnd {
			value := func(r record) (float64, bool) { v, ok := r.Metrics[m.Name]; return v.Value, ok }
			bv, nv := collect(b, value), collect(n, value)
			rows = append(rows, judge(m, valuesOf(bv), valuesOf(nv), pairBySeed(bv, nv)))
		}
		for _, d := range exact {
			value := func(r record) (float64, bool) { v, ok := r.Exact[d.name]; return v, ok }
			bv, nv := collect(b, value), collect(n, value)
			if len(bv)+len(nv) > 0 {
				rows = append(rows, judgeExact(specMetric{Name: d.name, Unit: d.unit, Better: "lower"}, bv, nv))
			}
		}
		failures := judgeFailures(b, n)
		for i := range rows {
			if failures.verdict == verdictWorse && rows[i].verdict == verdictBetter {
				rows[i].verdict = verdictWithin
			}
		}
		rows = append(rows, failures)
		for i := range rows {
			rows[i].workload = w
		}
		out = append(out, rows...)
	}
	return out
}

// runCompare prints the rows of compareRecords and exits non-zero when any
// row is worse or unresolved, or any run was incorrect.
func runCompare(specPath string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "gpbench: usage: gpbench --compare [--spec BENCHMARK.json] BASE.jsonl NEW.jsonl")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "gpbench:", err)
		return 2
	}
	sides := make([][]record, 2)
	for i, p := range args {
		if sides[i], err = loadRecords(p); err != nil {
			fmt.Fprintln(stderr, "gpbench:", err)
			return 2
		}
	}
	status := 0
	for i, recs := range sides {
		for _, r := range recs {
			if !r.Correct {
				fmt.Fprintf(stdout, "INCORRECT run in %s: %s seed %d\n", args[i], r.Workload, r.Seed)
				status = 1
			}
		}
	}
	fmt.Fprintf(stdout, "%-15s %-12s %-5s %34s %34s %9s %6s %6s  %s\n",
		"workload", "metric", "unit", "base median [q1, q3] n", "new median [q1, q3] n", "worse by", "bound", "wins", "verdict")
	for _, c := range compareRecords(spec, sides[0], sides[1]) {
		wins := "-"
		if c.winShare >= 0 {
			wins = fmt.Sprintf("%.0f%%", 100*c.winShare)
		}
		b, n := c.detail[0], c.detail[1]
		if b == "" {
			b, n = describe(c.base), describe(c.new)
		}
		fmt.Fprintf(stdout, "%-15s %-12s %-5s %34s %34s %8.2f%% %6.2f %6s  %s\n",
			c.workload, c.metric.Name, c.metric.Unit, b, n,
			100*c.worsening, c.metric.Bound, wins, c.verdict)
		if c.verdict == verdictWorse || c.verdict == verdictUnresolved {
			status = 1
		}
	}
	return status
}

func describe(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.Med, s.Q1, s.Q3, s.N)
}
