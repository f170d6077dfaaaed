// Command gpclust-serve keeps a clustered protein corpus resident and serves
// concurrent family queries and incremental inserts over HTTP. It clusters
// the -in corpus once at startup, then answers:
//
//	POST /assign   one FASTA record  → the resident family it belongs to
//	POST /cluster  FASTA records     → incremental insert (no re-cluster)
//	GET  /dump?member=N              → every member of N's family
//	GET  /metrics                    → OpenMetrics (latency histograms,
//	                                   queue depth, pass/merge counters)
//	GET  /healthz                    → liveness
//
// SIGINT or SIGTERM shuts the server down gracefully: it stops accepting
// connections, waits up to shutdownTimeout for in-flight requests, answers
// every request still queued, and exits 0.
//
// Admission is bounded: when the request queue is full the server answers
// 503 with a Retry-After hint instead of queueing without bound. Queued
// requests are coalesced into single device scoring passes, so concurrent
// clients share GPU batches. Each pass computes its sequences' band keys,
// and without -gpu scores its pairs, on every core (GOMAXPROCS workers);
// the resident band index holds a single-member bucket's member inline, so
// most buckets cost one map entry. Incremental inserts commit exactly the
// partition a from-scratch re-cluster of the union corpus would produce
// (the LSH filter is per-sequence, so candidate discovery is insertion-
// order independent).
//
// Usage:
//
//	gpclust-serve -in orfs.fa
//	gpclust-serve -in orfs.fa -addr :8844 -gpu -queue 512
//	gpclust-serve -in orfs.fa -bands 64 -rows 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
	"gpclust/internal/serve"
)

// Server timeouts. A slow or stalled client cannot hold a connection open
// indefinitely: the headers must arrive within readHeaderTimeout and the
// whole request (up to the 64 MiB /cluster body limit) within readTimeout.
// There is no write timeout, because a large /cluster insert legitimately
// runs long before its reply is written; shutdownTimeout bounds how long a
// shutdown waits for such requests to finish.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
	shutdownTimeout   = 30 * time.Second
)

func main() {
	var (
		in       = flag.String("in", "", "input FASTA corpus clustered at startup (required)")
		addr     = flag.String("addr", "localhost:8844", "HTTP listen address")
		queue    = flag.Int("queue", 0, "admission queue capacity (0 = library default; full queue answers 503)")
		coalesce = flag.Int("coalesce", 0, "max requests merged into one device pass (0 = library default)")
		gpu      = flag.Bool("gpu", false, "verify candidate pairs on the simulated GPU (batched Smith-Waterman)")
		minMatch = flag.Int("minmatch", 12, "shingle length for LSH candidate discovery")
		score    = flag.Float64("score", 1.2, "Smith-Waterman score threshold per residue of the shorter sequence")
		bands    = flag.Int("bands", 0, "LSH band count (0 = the tuned shape)")
		rows     = flag.Int("rows", 0, "LSH signature rows per band (0 = the tuned shape)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "gpclust-serve: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	for _, f := range []struct {
		v    int
		name string
	}{{*bands, "-bands"}, {*rows, "-rows"}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "gpclust-serve: %s must be >= 0 (got %d; 0 means the tuned shape)\n", f.name, f.v)
			os.Exit(2)
		}
	}

	if math.IsNaN(*score) || math.IsInf(*score, 0) || *score < 0 {
		fmt.Fprintf(os.Stderr, "gpclust-serve: -score must be finite and >= 0 (got %g)\n", *score)
		os.Exit(2)
	}

	f, err := os.Open(*in)
	fatal(err)
	corpus, err := seq.ReadFASTA(f)
	fatal(f.Close())
	fatal(err)

	pcfg := pgraph.DefaultConfig()
	pcfg.Filter = pgraph.FilterLSH
	pcfg.MinExactMatch = *minMatch
	pcfg.MinScorePerResidue = *score
	pcfg.LSHBands = *bands
	pcfg.LSHRows = *rows
	pcfg.GPU = *gpu
	s, err := serve.New(serve.Config{Pgraph: pcfg, QueueCap: *queue, MaxCoalesce: *coalesce})
	fatal(err)

	res, err := s.Cluster(corpus)
	fatal(err)
	ln, err := net.Listen("tcp", *addr)
	fatal(err)
	fmt.Fprintf(os.Stderr, "gpclust-serve: %d sequences resident in %d families; serving on http://%s\n",
		len(res.Indices), res.Families, ln.Addr())
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		fatal(err) // Serve returns only on failure until Shutdown is called
	case <-ctx.Done():
	}
	stop() // a second signal terminates at once
	fmt.Fprintln(os.Stderr, "gpclust-serve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(sctx)
	s.Close() // answers every request still queued
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if shutdownErr != nil {
		fatal(fmt.Errorf("shutdown: %w", shutdownErr))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpclust-serve:", err)
		os.Exit(1)
	}
}
