// Command gpbench is the repository's benchmark: one command that runs one
// workload against the program's public functions, times it from outside,
// checks the outputs, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) by name with its unit. The last line of
// standard output is a JSON object {correct, attempted, failed, metrics}.
//
//	bash cmd/gpbench/run.sh --workload homology-exact --seed 7 --seconds 25 --trace 0
//	bash cmd/gpbench/run.sh --workload serve-mixed --trace 1 --trace-dir .bench_build/traces
//	bash cmd/gpbench/run.sh --compare base.jsonl new.jsonl
//
// README.md describes the workloads, the metric map and the bounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceDir string  // where --trace 1 writes trace files; "" writes none
	quick    bool    // tiny inputs and one set-up, for the smoke test
	rate     float64 // serve-mixed phase-1 rate in requests/s; 0 is the benchmark's
}

// setups is how many times the run sets up.
func (o options) setups() int {
	if o.quick {
		return 1
	}
	return setupReps
}

// report is what a workload run measured, before printing.
type report struct {
	attempted, failed int
	problems          []string           // failed correctness checks
	values            map[string]float64 // metric name → value
	samples           map[string]summary // distributions behind timing metrics
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]summary{}}
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// metric and result are the JSON shape of the final output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a --record file, the input of --compare.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Host     string             `json:"host"`
	Exact    map[string]float64 `json:"exact,omitempty"` // the exact metrics the workload has
	result
}

var workloadNames = []string{"homology-exact", "homology-lsh", "shingle", "serve-mixed"}

func runWorkload(o options) (*report, error) {
	switch o.workload {
	case "homology-exact":
		return runBatch(newHomology(o, "exact"), o)
	case "homology-lsh":
		return runBatch(newHomology(o, "lsh"), o)
	case "shingle":
		return runBatch(newShingle(o), o)
	case "serve-mixed":
		return runServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code exposed, for the tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o       options
		trace   int
		rec     = fs.String("record", "", "append this run's result as one JSON line to the named file (input of --compare)")
		compare = fs.Bool("compare", false, "compare two --record files: gpbench --compare BASE NEW")
		spec    = fs.String("spec", "BENCHMARK.json", "with --compare: the benchmark definition holding each metric's bound")
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 7, "seed of every input generator")
	fs.Float64Var(&o.seconds, "seconds", 25, "measured time of the run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1: a traced run that prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.traceDir, "trace-dir", "", "with --trace 1: write <workload>.trace.json and <workload>.client.json here")
	fs.BoolVar(&o.quick, "quick", false, "tiny inputs and one set-up (smoke test)")
	fs.Float64Var(&o.rate, "rate", 0, "serve-mixed: phase-1 open-loop rate in requests/s instead of the benchmark's, for a knee sweep")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(*spec, fs.Args(), stdout, stderr)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "gpbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "gpbench: --seconds must be positive, got %g\n", o.seconds)
		return 2
	}
	if o.rate < 0 || (o.rate > 0 && *rec != "") {
		fmt.Fprintln(stderr, "gpbench: --rate must be positive and cannot be recorded: a sweep run is not the benchmark")
		return 2
	}
	o.traced = trace == 1

	fmt.Fprintf(stderr, "gpbench: %s seed=%d seconds=%g trace=%d on %s\n", o.workload, o.seed, o.seconds, trace, hostFingerprint())
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "gpbench:", err)
		return 1
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: rep.values[d.name], Unit: d.unit}
	}
	exactValues := map[string]float64{}
	for _, d := range exact {
		if v, ok := rep.values[d.name]; ok {
			exactValues[d.name] = v
		}
	}
	printHuman(stdout, o, rep, defs, exactValues)
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "gpbench: CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "gpbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if *rec != "" {
		r := record{Workload: o.workload, Seed: o.seed, Trace: o.traced, Host: hostFingerprint(), Exact: exactValues, result: res}
		if err := appendRecord(*rec, r); err != nil {
			fmt.Fprintln(stderr, "gpbench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printHuman writes one line per metric with its distribution where the
// metric summarizes timed samples. Untraced runs add the exact metrics the
// workload has, in full.
func printHuman(w io.Writer, o options, rep *report, defs []metricDef, exactValues map[string]float64) {
	fmt.Fprintf(w, "gpbench %s seed=%d attempted=%d failed=%d host: %s\n", o.workload, o.seed, rep.attempted, rep.failed, hostFingerprint())
	for _, d := range defs {
		line := fmt.Sprintf("  %-30s %14.6g %s", d.name, rep.values[d.name], d.unit)
		if s, ok := rep.samples[d.name]; ok {
			line += fmt.Sprintf("  (median of n=%d: q1 %.6g, q3 %.6g, min %.6g, max %.6g)", s.N, s.Q1, s.Q3, s.Min, s.Max)
		}
		fmt.Fprintln(w, line)
	}
	if o.traced {
		return
	}
	for _, d := range exact {
		if v, ok := exactValues[d.name]; ok {
			fmt.Fprintf(w, "  %-30s %14s %s  (exact: repeats for a seed)\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		}
	}
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("record %s: %w", path, err)
	}
	return f.Close()
}

// hostFingerprint names what the timings depend on besides the code.
func hostFingerprint() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB, or
// the Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close() //gpclint:ignore unchecked-error read-only file, Close reports nothing actionable
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
