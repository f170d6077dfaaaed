package bench

import (
	"strings"
	"testing"
)

func TestAblateAutoTune(t *testing.T) {
	rows, points, err := AblateAutoTune(0.02, tinyOptions(), 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(points) || len(points) != 8 {
		t.Fatalf("rows=%d points=%d, want 8 each", len(rows), len(points))
	}

	autoByWorkload := map[string]int{}
	outByWorkload := map[string]int64{}
	for i, p := range points {
		if p.Workload == "" || p.Setting == "" {
			t.Fatalf("point %d unnamed: %+v", i, p)
		}
		if p.VirtualNs <= 0 || p.BudgetWords <= 0 || p.Lanes <= 0 || p.Batches <= 0 {
			t.Fatalf("point %s/%s has a degenerate plan: %+v", p.Workload, p.Setting, p)
		}
		if p.PredictedNs <= 0 || p.SchedNs <= 0 {
			t.Fatalf("point %s/%s missing a cost prediction: %+v", p.Workload, p.Setting, p)
		}
		if p.Auto {
			autoByWorkload[p.Workload]++
		}
		if out, ok := outByWorkload[p.Workload]; !ok {
			outByWorkload[p.Workload] = p.Output
		} else if out != p.Output {
			t.Fatalf("point %s/%s output %d differs from the workload's first point %d",
				p.Workload, p.Setting, p.Output, out)
		}
		if !strings.Contains(rows[i].Comment, "drift") {
			t.Fatalf("row %q comment lacks the drift column: %q", rows[i].Label, rows[i].Comment)
		}
	}
	for _, w := range []string{"gpclust", "pgraph"} {
		if autoByWorkload[w] != 1 {
			t.Fatalf("workload %s has %d auto points, want exactly 1", w, autoByWorkload[w])
		}
	}
}

func TestClusteringEqual(t *testing.T) {
	a := [][]uint32{{1, 2}, {3}}
	if !clusteringEqual(a, [][]uint32{{1, 2}, {3}}) {
		t.Fatal("identical clusterings reported unequal")
	}
	if clusteringEqual(a, [][]uint32{{1, 2}}) {
		t.Fatal("shape mismatch reported equal")
	}
	if clusteringEqual(a, [][]uint32{{1, 2}, {4}}) {
		t.Fatal("member mismatch reported equal")
	}
	if clusteringEqual(a, [][]uint32{{1}, {3, 2}}) {
		t.Fatal("ragged mismatch reported equal")
	}
}
