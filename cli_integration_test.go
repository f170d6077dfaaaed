package gpclust_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildTool compiles one of the cmd/ binaries into dir and returns its path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// TestCLIPipeline drives the complete command-line toolchain: generate a
// synthetic metagenome, build its homology graph, cluster it on the
// simulated GPU, and score the clusters against the ground truth.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	genseq := buildTool(t, dir, "genseq")
	pgraph := buildTool(t, dir, "pgraph")
	gpclust := buildTool(t, dir, "gpclust")
	quality := buildTool(t, dir, "quality")

	fasta := filepath.Join(dir, "orfs.fa")
	truth := filepath.Join(dir, "truth.tsv")
	graphF := filepath.Join(dir, "graph.txt")
	clusters := filepath.Join(dir, "clusters.txt")

	run(t, genseq, "-mode", "seqs", "-n", "300", "-fasta", fasta, "-truth", truth)
	if fi, err := os.Stat(fasta); err != nil || fi.Size() == 0 {
		t.Fatalf("genseq produced no FASTA: %v", err)
	}

	out := run(t, pgraph, "-in", fasta, "-out", graphF)
	if !strings.Contains(out, "edges") {
		t.Fatalf("pgraph output unexpected: %s", out)
	}

	out = run(t, gpclust, "-in", graphF, "-backend", "gpu",
		"-c1", "40", "-c2", "20", "-out", clusters)
	if !strings.Contains(out, "clusters") || !strings.Contains(out, "virtual clock") {
		t.Fatalf("gpclust output unexpected: %s", out)
	}

	out = run(t, quality, "-clusters", clusters, "-truth", truth,
		"-graph", graphF, "-minsize", "5", "-column", "superfamily")
	if !strings.Contains(out, "PPV=") || !strings.Contains(out, "density") {
		t.Fatalf("quality output unexpected: %s", out)
	}

	// Serial and GPU backends must print identical cluster files.
	serialClusters := filepath.Join(dir, "serial.txt")
	run(t, gpclust, "-in", graphF, "-backend", "serial",
		"-c1", "40", "-c2", "20", "-out", serialClusters)
	a, err := os.ReadFile(clusters)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(serialClusters)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("serial and GPU CLI runs produced different cluster files")
	}
}

// TestCLIGraphModeAndBinary exercises genseq's graph mode, the binary graph
// format and the gpuagg / profile / trace flags.
func TestCLIGraphModeAndBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	genseq := buildTool(t, dir, "genseq")
	gpclust := buildTool(t, dir, "gpclust")

	graphBin := filepath.Join(dir, "graph.bin")
	truth := filepath.Join(dir, "truth.tsv")
	run(t, genseq, "-mode", "graph", "-n", "1500", "-graph", graphBin, "-truth", truth)

	traceF := filepath.Join(dir, "trace.json")
	out := run(t, gpclust, "-in", graphBin, "-backend", "gpu",
		"-c1", "30", "-c2", "15", "-gpuagg", "-profile", "-trace", traceF,
		"-out", filepath.Join(dir, "c1.txt"))
	if !strings.Contains(out, "kernel profile") || !strings.Contains(out, "sort_pairs64") {
		t.Fatalf("profile output missing kernels: %s", out)
	}
	if fi, err := os.Stat(traceF); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}

	out = run(t, gpclust, "-in", graphBin, "-backend", "gpu",
		"-c1", "30", "-c2", "15", "-out", filepath.Join(dir, "c2.txt"))
	if !strings.Contains(out, "clusters") {
		t.Fatalf("auto-plan gpu run output unexpected: %s", out)
	}
	run(t, gpclust, "-in", graphBin, "-backend", "gpu",
		"-c1", "30", "-c2", "15", "-pipeline", "-gpuagg", "-out", filepath.Join(dir, "c4.txt"))
	a, _ := os.ReadFile(filepath.Join(dir, "c1.txt"))
	b, _ := os.ReadFile(filepath.Join(dir, "c2.txt"))
	if string(a) != string(b) {
		t.Fatal("gpuagg and auto-plan gpu runs produced different clusterings")
	}
	if d, _ := os.ReadFile(filepath.Join(dir, "c4.txt")); string(d) != string(b) {
		t.Fatal("pipelined gpuagg and auto-plan gpu runs produced different clusterings")
	}

	// The serial backend gives every GPU plan's partition.
	run(t, gpclust, "-in", graphBin, "-backend", "serial",
		"-c1", "30", "-c2", "15", "-out", filepath.Join(dir, "c3.txt"))
	if d, _ := os.ReadFile(filepath.Join(dir, "c3.txt")); string(d) != string(b) {
		t.Fatal("serial and auto-plan gpu runs produced different clusterings")
	}
}

// runFail runs bin expecting a non-zero exit; it returns the combined
// output for message assertions and the exit status.
func runFail(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: expected failure, exited 0\n%s", filepath.Base(bin), args, out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("%s %v: did not run: %v", filepath.Base(bin), args, err)
	}
	return string(out), exitErr.ExitCode()
}

// TestCLIFailurePaths exercises the toolchain's error handling: unreadable
// input, invalid flag combinations, and fault injection past the retry
// budget must all exit non-zero with a readable message — never a panic or
// silent success.
func TestCLIFailurePaths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	genseq := buildTool(t, dir, "genseq")
	pgraphBin := buildTool(t, dir, "pgraph")
	gpclust := buildTool(t, dir, "gpclust")
	serveBin := buildTool(t, dir, "gpclust-serve")

	fasta := filepath.Join(dir, "orfs.fa")
	truth := filepath.Join(dir, "truth.tsv")
	graphF := filepath.Join(dir, "graph.txt")
	run(t, genseq, "-mode", "seqs", "-n", "120", "-fasta", fasta, "-truth", truth)
	run(t, pgraphBin, "-in", fasta, "-out", graphF)

	missing := filepath.Join(dir, "no-such-file")
	cases := []struct {
		name string
		bin  string
		args []string
		want string
		code int // expected exit status
	}{
		{"gpclust missing input", gpclust, []string{"-in", missing}, "no-such-file", 1},
		{"gpclust no input flag", gpclust, nil, "-in is required", 2},
		{"gpclust pipeline without gpu", gpclust,
			[]string{"-in", graphF, "-backend", "serial", "-pipeline"}, "-pipeline requires -backend gpu", 2},
		{"gpclust faults without gpu", gpclust,
			[]string{"-in", graphF, "-backend", "parallel", "-faults", "h2d op=1"}, "-faults requires -backend gpu", 2},
		{"gpclust bad schedule", gpclust,
			[]string{"-in", graphF, "-backend", "gpu", "-faults", "warp op=zero"}, "faults", 2},
		{"gpclust fault storm no fallback", gpclust,
			[]string{"-in", graphF, "-backend", "gpu", "-c1", "20", "-c2", "10",
				"-faults", "h2d op=1 count=1000000", "-retries", "1", "-nofallback"},
			"retry budget exhausted", 1},
		{"pgraph missing input", pgraphBin, []string{"-in", missing}, "no-such-file", 1},
		{"pgraph bad schedule", pgraphBin,
			[]string{"-in", fasta, "-gpu", "-faults", "h2d op="}, "faults", 2},
		{"pgraph fault storm no fallback", pgraphBin,
			[]string{"-in", fasta, "-gpu", "-faults", "kernel op=1 count=1000000",
				"-retries", "1", "-nofallback"},
			"retry budget exhausted", 1},
		{"gpclust negative retries", gpclust,
			[]string{"-in", graphF, "-backend", "gpu", "-retries=-1"}, "-retries must be >= 0", 2},
		// Usage errors: rejected before the (missing) input is read.
		{"gpclust serial workers", gpclust,
			[]string{"-in", missing, "-backend", "serial", "-workers", "2"},
			"-workers requires -backend parallel or gpu", 2},
		{"gpclust negative batch", gpclust,
			[]string{"-in", missing, "-batch=-1"}, `-batch must be "auto" or a non-negative word count, got "-1"`, 2},
		{"gpclust unknown backend", gpclust,
			[]string{"-in", missing, "-backend", "bogus"}, `unknown backend "bogus"`, 2},
		{"pgraph negative retries", pgraphBin,
			[]string{"-in", fasta, "-gpu", "-retries=-1"}, "-retries must be >= 0", 2},
		{"pgraph trace without gpu", pgraphBin,
			[]string{"-in", fasta, "-trace", filepath.Join(dir, "t.json")}, "-trace requires -gpu", 2},
		// Usage errors: rejected before the (missing) input is read.
		{"pgraph unknown filter", pgraphBin,
			[]string{"-in", missing, "-filter", "cascade"}, `-filter must be "exact" or "lsh", got "cascade"`, 2},
		{"pgraph negative bands", pgraphBin,
			[]string{"-in", missing, "-filter", "lsh", "-bands=-4"}, "-bands must be >= 0", 2},
		{"pgraph negative rows", pgraphBin,
			[]string{"-in", missing, "-filter", "lsh", "-rows=-1"}, "-rows must be >= 0", 2},
		{"pgraph named bands", pgraphBin,
			[]string{"-in", missing, "-filter", "lsh", "-bands", "conservative"},
			`invalid value "conservative" for flag -bands`, 2},
		{"pgraph bad batchwords", pgraphBin,
			[]string{"-in", missing, "-gpu", "-batchwords", "lots"}, `-batchwords must be "auto"`, 2},
		{"pgraph negative batchwords", pgraphBin,
			[]string{"-in", missing, "-gpu", "-batchwords=-1"},
			`-batchwords must be "auto" or a non-negative word count, got "-1"`, 2},
		{"pgraph NaN score", pgraphBin,
			[]string{"-in", missing, "-score", "NaN"}, "-score must be finite and >= 0 (got NaN)", 2},
		{"pgraph infinite score", pgraphBin,
			[]string{"-in", missing, "-gpu", "-score", "Inf"}, "-score must be finite and >= 0 (got +Inf)", 2},
		{"pgraph negative score", pgraphBin,
			[]string{"-in", missing, "-score=-0.5"}, "-score must be finite and >= 0 (got -0.5)", 2},
		{"serve NaN score", serveBin,
			[]string{"-in", missing, "-score", "nan"}, "-score must be finite and >= 0 (got NaN)", 2},
		{"serve negative infinite score", serveBin,
			[]string{"-in", missing, "-score=-Inf"}, "-score must be finite and >= 0 (got -Inf)", 2},
		{"serve negative bands", serveBin,
			[]string{"-in", missing, "-bands=-4"}, "-bands must be >= 0", 2},
		{"serve negative rows", serveBin,
			[]string{"-in", missing, "-rows=-2"}, "-rows must be >= 0", 2},
		{"serve named bands", serveBin,
			[]string{"-in", missing, "-bands", "conservative"}, `invalid value "conservative" for flag -bands`, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runFail(t, tc.bin, tc.args...)
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output does not mention %q:\n%s", tc.want, out)
			}
			if code != tc.code {
				t.Fatalf("exit status %d, want %d:\n%s", code, tc.code, out)
			}
			if tc.bin == pgraphBin && strings.Contains(out, "pgraph: pgraph:") {
				t.Fatalf("error line carries the pgraph: prefix twice:\n%s", out)
			}
		})
	}
}

// TestCLIFaultInjectionRecovers checks the happy chaos path end to end:
// injected faults are reported on stderr, recovery is summarized, and the
// cluster file is identical to the fault-free run's.
func TestCLIFaultInjectionRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	genseq := buildTool(t, dir, "genseq")
	gpclust := buildTool(t, dir, "gpclust")

	graphBin := filepath.Join(dir, "graph.bin")
	run(t, genseq, "-mode", "graph", "-n", "800", "-graph", graphBin,
		"-truth", filepath.Join(dir, "truth.tsv"))

	clean := filepath.Join(dir, "clean.txt")
	faulted := filepath.Join(dir, "faulted.txt")
	run(t, gpclust, "-in", graphBin, "-backend", "gpu", "-c1", "30", "-c2", "15",
		"-batch", "5000", "-out", clean)
	out := run(t, gpclust, "-in", graphBin, "-backend", "gpu", "-c1", "30", "-c2", "15",
		"-batch", "5000", "-faults", "h2d op=2; malloc op=4 count=2; slowsm op=1 x=3", "-out", faulted)
	if !strings.Contains(out, "injected faults:") || !strings.Contains(out, "recovery:") {
		t.Fatalf("fault summary missing from output:\n%s", out)
	}
	a, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("faulted CLI run produced a different cluster file than the clean run")
	}
}

// TestCLIServeShutdown starts gpclust-serve on an ephemeral port, checks that
// it answers /healthz, and sends SIGTERM: the server must shut down
// gracefully and exit 0 within 10 s.
func TestCLIServeShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	genseq := buildTool(t, dir, "genseq")
	serveBin := buildTool(t, dir, "gpclust-serve")
	fasta := filepath.Join(dir, "orfs.fa")
	run(t, genseq, "-mode", "seqs", "-n", "60", "-fasta", fasta,
		"-truth", filepath.Join(dir, "truth.tsv"))

	cmd := exec.Command(serveBin, "-in", fasta, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The reader owns log until readDone closes; it ends at EOF, which the
	// process's exit (or the cleanup's kill) guarantees.
	var log strings.Builder
	url := make(chan string, 1)
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			log.WriteString(sc.Text() + "\n")
			if _, u, ok := strings.Cut(sc.Text(), "serving on "); ok {
				url <- u
			}
		}
	}()
	waited := false
	t.Cleanup(func() {
		if !waited {
			_ = cmd.Process.Kill() // the test already failed; only reap the process
			<-readDone
			_ = cmd.Wait()
		}
	})

	var base string
	select {
	case base = <-url:
	case <-readDone:
		t.Fatalf("gpclust-serve exited before serving:\n%s", log.String())
	case <-time.After(60 * time.Second):
		t.Fatal("gpclust-serve printed no serving line within 60 s")
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answered %s", resp.Status)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-readDone:
	case <-time.After(10 * time.Second):
		t.Fatal("gpclust-serve still running 10 s after SIGTERM")
	}
	waited = true
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gpclust-serve after SIGTERM: %v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "shutting down") {
		t.Fatalf("no shutdown message on stderr:\n%s", log.String())
	}
}

// readTraceFile decodes a Chrome-trace JSON file and returns its traceEvents,
// failing if the array is absent or null (the Perfetto-rejection bug).
func readTraceFile(t *testing.T, path string) []map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s is not valid JSON: %v", path, err)
	}
	if doc.TraceEvents == nil {
		t.Fatalf("%s: traceEvents is null or missing", path)
	}
	return doc.TraceEvents
}

// TestCLIObservability drives the -trace/-metrics surface of both tools: a
// faulted pipelined gpclust run and a multi-batch GPU pgraph build must write a
// parseable merged trace (host phase spans, lane spans and fault instants on
// distinct tracks) and an OpenMetrics file carrying the run's counters.
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	genseq := buildTool(t, dir, "genseq")
	pgraphBin := buildTool(t, dir, "pgraph")
	gpclust := buildTool(t, dir, "gpclust")

	fasta := filepath.Join(dir, "orfs.fa")
	graphF := filepath.Join(dir, "graph.txt")
	run(t, genseq, "-mode", "seqs", "-n", "200", "-fasta", fasta,
		"-truth", filepath.Join(dir, "truth.tsv"))

	pTrace := filepath.Join(dir, "pgraph-trace.json")
	pMetrics := filepath.Join(dir, "pgraph-metrics.txt")
	run(t, pgraphBin, "-in", fasta, "-out", graphF, "-gpu",
		"-batchwords", "8000", "-trace", pTrace, "-metrics", pMetrics)
	if evs := readTraceFile(t, pTrace); len(evs) == 0 {
		t.Fatal("pgraph trace has no events")
	}
	pm, err := os.ReadFile(pMetrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pgraph_edges_total", "gpclust_sw_pairs_total", "# EOF"} {
		if !strings.Contains(string(pm), want) {
			t.Fatalf("pgraph metrics missing %q:\n%s", want, pm)
		}
	}

	gTrace := filepath.Join(dir, "gpclust-trace.json")
	gMetrics := filepath.Join(dir, "gpclust-metrics.txt")
	out := run(t, gpclust, "-in", graphF, "-backend", "gpu", "-pipeline",
		"-c1", "30", "-c2", "15", "-batch", "5000", "-faults", "h2d op=2",
		"-trace", gTrace, "-metrics", gMetrics, "-out", filepath.Join(dir, "c.txt"))
	if !strings.Contains(out, "merged timeline written") || !strings.Contains(out, "metrics written") {
		t.Fatalf("observability summary missing from output:\n%s", out)
	}
	evs := readTraceFile(t, gTrace)
	cats := map[string]bool{}
	for _, ev := range evs {
		if cat, ok := ev["cat"].(string); ok {
			cats[cat] = true
		}
	}
	for _, want := range []string{"phases", "host-cpu", "lane0", "lane1", "faults", "recovery", "compute", "copy"} {
		if !cats[want] {
			t.Fatalf("gpclust trace missing %q events (have %v)", want, cats)
		}
	}
	gm, err := os.ReadFile(gMetrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gpclust_tuples_total", "gpclust_fault_transfer_retries_total",
		"gpclust_faults_injected_total", "gpclust_clusters", "# EOF"} {
		if !strings.Contains(string(gm), want) {
			t.Fatalf("gpclust metrics missing %q:\n%s", want, gm)
		}
	}

	// -metrics works on the host backends too (no device, no -trace).
	sMetrics := filepath.Join(dir, "serial-metrics.txt")
	run(t, gpclust, "-in", graphF, "-backend", "serial", "-c1", "30", "-c2", "15",
		"-metrics", sMetrics, "-out", filepath.Join(dir, "cs.txt"))
	sm, err := os.ReadFile(sMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sm), "gpclust_tuples_total") {
		t.Fatalf("serial metrics missing gpclust_tuples_total:\n%s", sm)
	}
}

// TestCLIExperiments smoke-tests the experiment driver's cheapest paths.
func TestCLIExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	experiments := buildTool(t, dir, "experiments")

	out := run(t, experiments, "-exp", "table2", "-scale2m", "0.002")
	if !strings.Contains(out, "Table II") {
		t.Fatalf("table2 output unexpected: %s", out)
	}
	out = run(t, experiments, "-exp", "table3",
		"-scalequality", "0.002", "-c1", "40", "-c2", "20", "-minsize", "10")
	if !strings.Contains(out, "Table III") {
		t.Fatalf("table3 output unexpected: %s", out)
	}
}
