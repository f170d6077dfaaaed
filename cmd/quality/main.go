// Command quality scores a clustering (the cluster-per-line file gpclust
// writes) against a ground-truth table (the TSV genseq writes), computing
// the paper's Section IV-D measurements: pairwise PPV, NPV, specificity and
// sensitivity, plus group statistics and — when the similarity graph is
// supplied — cluster densities (Equation 6).
//
// Usage:
//
//	quality -clusters clusters.txt -truth truth.tsv -minsize 20
//	quality -clusters clusters.txt -truth truth.tsv -graph graph.txt -column superfamily
//
// With -compare a second cluster file is scored pairwise against the first
// (PPV, sensitivity and their F-score), the measurement the LSH filter
// experiments use to quantify how far an approximate filter's final
// clustering drifts from the exact pipeline's.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gpclust/internal/graph"
	"gpclust/internal/metrics"
)

func main() {
	var (
		clustersPath = flag.String("clusters", "", "cluster file: one cluster per line, whitespace-separated vertex ids (required)")
		truthPath    = flag.String("truth", "", "ground-truth TSV from genseq: id, family, superfamily (required)")
		graphPath    = flag.String("graph", "", "optional similarity graph (edge list or binary) for density")
		column       = flag.String("column", "superfamily", "truth column to score against: family|superfamily")
		minSize      = flag.Int("minsize", 20, "evaluate clusters of at least this many members (paper: 20)")
		comparePath  = flag.String("compare", "", "optional second cluster file scored pairwise against -clusters (PPV/SE/F)")
	)
	flag.Parse()
	if *clustersPath == "" || *truthPath == "" {
		fmt.Fprintln(os.Stderr, "quality: -clusters and -truth are required")
		flag.Usage()
		os.Exit(2)
	}

	bench, n, err := readTruth(*truthPath, *column)
	fatal(err)
	clusters, err := readClusters(*clustersPath, n)
	fatal(err)

	kept := clusters[:0]
	for _, cl := range clusters {
		if len(cl) >= *minSize {
			kept = append(kept, cl)
		}
	}
	labels := metrics.LabelsFromClusters(kept, n, *minSize)
	c := metrics.PairConfusion(labels, bench, n)
	st := metrics.ComputeGroupStats(kept)

	fmt.Printf("clusters ≥ %d: %d groups, %d sequences, largest %d, avg %.0f±%.0f\n",
		*minSize, st.Groups, st.Sequences, st.Largest, st.MeanSize, st.StdSize)
	fmt.Printf("vs %s: PPV=%.2f%% NPV=%.2f%% SP=%.2f%% SE=%.2f%%  (TP=%d FP=%d FN=%d TN=%d)\n",
		*column, 100*c.PPV(), 100*c.NPV(), 100*c.Specificity(), 100*c.Sensitivity(),
		c.TP, c.FP, c.FN, c.TN)

	if *graphPath != "" {
		g, err := loadGraph(*graphPath)
		fatal(err)
		if g.NumVertices() < n {
			fatal(fmt.Errorf("graph has %d vertices, truth covers %d", g.NumVertices(), n))
		}
		mean, std := metrics.DensityStats(g, kept)
		fmt.Printf("cluster density: %.2f±%.2f\n", mean, std)
	}

	if *comparePath != "" {
		other, err := readClusters(*comparePath, n)
		fatal(err)
		keptOther := other[:0]
		for _, cl := range other {
			if len(cl) >= *minSize {
				keptOther = append(keptOther, cl)
			}
		}
		// -clusters is the benchmark, -compare the test partition, so PPV
		// reads "fraction of the compared clustering's co-clustered pairs the
		// reference also co-clusters".
		oc := metrics.PairConfusion(metrics.LabelsFromClusters(keptOther, n, *minSize), labels, n)
		ppv, se := oc.PPV(), oc.Sensitivity()
		f := 0.0
		if ppv+se > 0 {
			f = 2 * ppv * se / (ppv + se)
		}
		fmt.Printf("vs %s: PPV=%.2f%% SE=%.2f%% F=%.4f  (TP=%d FP=%d FN=%d TN=%d)\n",
			*comparePath, 100*ppv, 100*se, f, oc.TP, oc.FP, oc.FN, oc.TN)
	}
}

// readTruth parses genseq's TSV and returns per-id labels of the chosen
// column plus the id-space size.
func readTruth(path, column string) ([]int32, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close() //gpclint:ignore unchecked-error read-only file, Close reports nothing actionable
	col := 2
	switch column {
	case "family":
		col = 1
	case "superfamily":
		col = 2
	default:
		return nil, 0, fmt.Errorf("quality: unknown truth column %q", column)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var labels []int32
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if line == 1 && len(fields) > 0 && fields[0] == "id" {
			continue // header
		}
		if len(fields) <= col {
			return nil, 0, fmt.Errorf("quality: %s line %d: want ≥ %d columns", path, line, col+1)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, 0, fmt.Errorf("quality: %s line %d: bad id %q", path, line, fields[0])
		}
		v, err := strconv.ParseInt(fields[col], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("quality: %s line %d: bad label %q", path, line, fields[col])
		}
		for len(labels) <= id {
			labels = append(labels, -1)
		}
		labels[id] = int32(v)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return labels, len(labels), nil
}

// readClusters parses gpclust's output: one cluster per line.
func readClusters(path string, n int) ([][]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //gpclint:ignore unchecked-error read-only file, Close reports nothing actionable
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<22), 1<<22)
	var clusters [][]uint32
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cl := make([]uint32, 0, len(fields))
		for _, fstr := range fields {
			v, err := strconv.ParseUint(fstr, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("quality: %s line %d: bad vertex id %q", path, line, fstr)
			}
			if int(v) >= n {
				return nil, fmt.Errorf("quality: %s line %d: vertex %d outside truth's %d ids", path, line, v, n)
			}
			cl = append(cl, uint32(v))
		}
		clusters = append(clusters, cl)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return clusters, nil
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //gpclint:ignore unchecked-error read-only file, Close reports nothing actionable
	br := bufio.NewReaderSize(f, 1<<20)
	magic, err := br.Peek(4)
	if err == nil && string(magic) == "GPC1" {
		return graph.ReadBinary(br)
	}
	return graph.ReadEdgeList(br)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "quality:", err)
		os.Exit(1)
	}
}
