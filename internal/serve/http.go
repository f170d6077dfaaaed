package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"gpclust/internal/seq"
)

// HTTP surface. Request bodies are FASTA; responses are JSON. Admission
// rejects (ErrOverloaded) map to 503 with a Retry-After hint, input errors
// to 400, shutdown to 503, and a body over its endpoint's size limit or a
// record over the residue limit to 413 before any record reaches the server.
//
//	POST /assign   one FASTA record  → assignReply
//	POST /cluster  FASTA records     → clusterReply
//	GET  /dump?member=N              → dumpReply (N's whole family)
//	GET  /metrics                    → OpenMetrics text
//	GET  /healthz                    → "ok"

// Request limits. One /assign query is a single ORF; /cluster takes a batch
// of them. The body limits bound what one request makes the process buffer
// before admission control; the record limit, above titin's 34,350
// residues, bounds one record's alignments on the scheduler goroutine.
const (
	maxAssignBody     = 1 << 20
	maxClusterBody    = 64 << 20
	maxRecordResidues = 1 << 16
)

type assignReply struct {
	Assigned bool   `json:"assigned"`
	Family   int    `json:"family"`
	Member   int    `json:"member"`
	MemberID string `json:"member_id,omitempty"`
	Score    int32  `json:"score"`
}

type clusterReply struct {
	Indices  []int `json:"indices"`
	Merges   int   `json:"merges"`
	Families int   `json:"families"`
}

type dumpReply struct {
	Family  int      `json:"family"`
	Members []member `json:"members"`
}

type member struct {
	Index    int    `json:"index"`
	ID       string `json:"id"`
	Residues string `json:"residues"`
}

// Handler returns the server's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/assign", s.handleAssign)
	mux.HandleFunc("/cluster", s.handleCluster)
	mux.HandleFunc("/dump", s.handleDump)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// httpError maps service errors onto status codes.
func httpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// readFASTA parses a POST body of at most limit bytes whose records hold at
// most maxRecordResidues residues each.
func readFASTA(w http.ResponseWriter, r *http.Request, limit int64) ([]seq.Sequence, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a FASTA body", http.StatusMethodNotAllowed)
		return nil, false
	}
	seqs, err := seq.ReadFASTA(http.MaxBytesReader(w, r.Body, limit))
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		http.Error(w, fmt.Sprintf("serve: request body over %d bytes", tooLarge.Limit),
			http.StatusRequestEntityTooLarge)
		return nil, false
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if len(seqs) == 0 {
		http.Error(w, "serve: empty FASTA body", http.StatusBadRequest)
		return nil, false
	}
	for _, s := range seqs {
		if len(s.Residues) > maxRecordResidues {
			http.Error(w, fmt.Sprintf("serve: record %q has %d residues, over %d",
				s.ID, len(s.Residues), maxRecordResidues), http.StatusRequestEntityTooLarge)
			return nil, false
		}
	}
	return seqs, true
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	seqs, ok := readFASTA(w, r, maxAssignBody)
	if !ok {
		return
	}
	if len(seqs) != 1 {
		http.Error(w, "serve: /assign takes exactly one FASTA record", http.StatusBadRequest)
		return
	}
	res, err := s.Assign(seqs[0])
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, assignReply{Assigned: res.Assigned, Family: res.Family,
		Member: res.Member, MemberID: res.MemberID, Score: res.Score})
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	seqs, ok := readFASTA(w, r, maxClusterBody)
	if !ok {
		return
	}
	res, err := s.Cluster(seqs)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, clusterReply{Indices: res.Indices, Merges: res.Merges, Families: res.Families})
}

func (s *Server) handleDump(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("member"))
	if err != nil {
		http.Error(w, "serve: /dump?member=<resident index>", http.StatusBadRequest)
		return
	}
	seqs, ids, err := s.Dump(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	reply := dumpReply{Family: int(s.Partition()[id])}
	for i, sq := range seqs {
		reply.Members = append(reply.Members, member{Index: ids[i], ID: sq.ID, Residues: string(sq.Residues)})
	}
	writeJSON(w, reply)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	if err := s.obs.WriteOpenMetrics(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
