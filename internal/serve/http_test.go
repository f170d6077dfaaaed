package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"gpclust/internal/seq"
)

func fastaBody(t *testing.T, seqs []seq.Sequence) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, seqs); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	corpus := testMetagenome(t, 30)
	s, err := New(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// POST /cluster inserts the corpus.
	resp, err := http.Post(srv.URL+"/cluster", "text/plain", fastaBody(t, corpus))
	if err != nil {
		t.Fatal(err)
	}
	var cr clusterReply
	decodeJSON(t, resp, &cr)
	if len(cr.Indices) != len(corpus) || cr.Indices[0] != 0 {
		t.Fatalf("cluster indices = %v", cr.Indices)
	}
	if cr.Families != s.Stats().Families {
		t.Errorf("cluster reply families = %d, want %d", cr.Families, s.Stats().Families)
	}

	// POST /assign with a resident member's residues finds its family.
	resp, err = http.Post(srv.URL+"/assign", "text/plain", fastaBody(t, corpus[3:4]))
	if err != nil {
		t.Fatal(err)
	}
	var ar assignReply
	decodeJSON(t, resp, &ar)
	if !ar.Assigned {
		t.Fatal("identical query not assigned")
	}
	if want := int(s.Partition()[3]); ar.Family != want {
		t.Errorf("assign family = %d, want %d", ar.Family, want)
	}

	// GET /dump returns the queried member's whole family.
	resp, err = http.Get(srv.URL + "/dump?member=3")
	if err != nil {
		t.Fatal(err)
	}
	var dr dumpReply
	decodeJSON(t, resp, &dr)
	if dr.Family != int(s.Partition()[3]) || len(dr.Members) == 0 {
		t.Fatalf("dump reply = %+v", dr)
	}
	found := false
	for _, m := range dr.Members {
		if m.Index == 3 {
			found = m.ID == corpus[3].ID && m.Residues == string(corpus[3].Residues)
		}
	}
	if !found {
		t.Errorf("dump of member 3's family omitted member 3: %+v", dr.Members)
	}

	// GET /metrics serves OpenMetrics text with the serve instruments.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "serve_requests_total") {
		t.Errorf("metrics status %d body %q", resp.StatusCode, body)
	}

	// GET /healthz.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	corpus := testMetagenome(t, 6)
	s, err := New(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Cluster(corpus); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	check := func(what string, resp *http.Response, err error, want int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s status = %d, want %d", what, resp.StatusCode, want)
		}
	}

	resp, err := http.Get(srv.URL + "/assign")
	check("GET /assign", resp, err, http.StatusMethodNotAllowed)

	resp, err = http.Post(srv.URL+"/assign", "text/plain", strings.NewReader("not fasta at all"))
	check("garbage body", resp, err, http.StatusBadRequest)

	resp, err = http.Post(srv.URL+"/assign", "text/plain", fastaBody(t, corpus[:2]))
	check("two records to /assign", resp, err, http.StatusBadRequest)

	resp, err = http.Post(srv.URL+"/cluster", "text/plain", strings.NewReader(""))
	check("empty cluster body", resp, err, http.StatusBadRequest)

	resp, err = http.Get(srv.URL + "/dump?member=999")
	check("dump out of range", resp, err, http.StatusNotFound)

	resp, err = http.Get(srv.URL + "/dump?member=bogus")
	check("dump non-numeric", resp, err, http.StatusBadRequest)
}

// padReader yields whitespace that ReadFASTA skips: lines of spaces, so a
// body can be padded to an exact size without growing a record.
type padReader struct{ off int }

func (p *padReader) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = ' '
		if p.off%1024 == 1023 {
			b[i] = '\n'
		}
		p.off++
	}
	return len(b), nil
}

// paddedBody is seqs as FASTA, padded with skipped whitespace to size bytes.
func paddedBody(t *testing.T, seqs []seq.Sequence, size int) io.Reader {
	t.Helper()
	rec := fastaBody(t, seqs)
	if rec.Len() > size {
		t.Fatalf("records take %d bytes, over the %d-byte body", rec.Len(), size)
	}
	return io.MultiReader(rec, io.LimitReader(&padReader{}, int64(size-rec.Len())))
}

// TestHTTPBodyLimits: a body over its endpoint's limit, or one holding a
// record over the residue limit, is answered 413 before any of its records
// reach the server, and a body exactly at the limit is served.
func TestHTTPBodyLimits(t *testing.T) {
	corpus := testMetagenome(t, 12)
	long := seq.Sequence{ID: "long", Residues: make([]byte, maxRecordResidues+1)}
	for i := range long.Residues {
		long.Residues[i] = "ACDEFGHIKLMNPQRSTVWY"[i%20]
	}
	s, err := New(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Cluster(corpus[:6]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	cases := []struct {
		name string
		path string
		seqs []seq.Sequence
		size int
		want int
	}{
		{"assign at limit", "/assign", corpus[3:4], maxAssignBody, http.StatusOK},
		{"assign over limit", "/assign", corpus[3:4], maxAssignBody + 1, http.StatusRequestEntityTooLarge},
		{"cluster over limit", "/cluster", corpus[6:], maxClusterBody + 1, http.StatusRequestEntityTooLarge},
		{"assign record over limit", "/assign", []seq.Sequence{long}, maxAssignBody, http.StatusRequestEntityTooLarge},
		{"cluster record over limit", "/cluster", append(corpus[6:8:8], long), maxAssignBody, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, part := s.Stats(), s.Partition()
			resp, err := http.Post(srv.URL+tc.path, "text/plain", paddedBody(t, tc.seqs, tc.size))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			if after := s.Stats(); after.Sequences != before.Sequences || after.Epoch != before.Epoch {
				t.Fatalf("resident state changed: %+v -> %+v", before, after)
			}
			if !reflect.DeepEqual(s.Partition(), part) {
				t.Fatal("resident partition changed")
			}
		})
	}
}
