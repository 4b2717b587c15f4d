// Command dolos-serve runs the Dolos simulator as a long-lived service:
// a bounded job queue and worker pool over the experiment executor, one
// result table (a normalized request's single flight, then its cached
// records and result document, least recently used evicted first past
// -cache), and a small HTTP API (see internal/service and DESIGN.md §10).
//
// Usage:
//
//	dolos-serve                          # :8080, GOMAXPROCS workers
//	dolos-serve -addr :9090 -workers 8 -queue 128 -cache 512
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v2/jobs -d '{"workloads":["Hashmap"],"schemes":["dolos-partial"]}'
//	curl -s localhost:8080/v2/jobs/j5f0c2a9e41b7-00000001/result
//	curl -s localhost:8080/metrics
//
// A job id is the id the submission answered with; its middle part is
// drawn once per process, so a restarted server never reuses an id.
//
// SIGINT/SIGTERM shut the server down gracefully: intake stops (503),
// queued and in-flight jobs drain, and the final Prometheus metrics
// snapshot is written to stderr before exit. Jobs live in memory only,
// and the server remembers at most 4096 settled jobs, forgetting the
// oldest first (service_jobs_retained on /metrics counts those it
// holds). A forgotten job answers 404, like every old id after a
// restart, and the client resubmits it (see README "Streaming and
// restarts").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dolos/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "max queued jobs before submissions get 429")
	cacheEntries := flag.Int("cache", 256, "settled rows the result table keeps, least recently used evicted first")
	maxBody := flag.Int64("max-body", 1<<20, "max request body bytes")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-job deadline (queue wait + execution)")
	txnsCap := flag.Int("txns-cap", 20000, "max transactions one request may ask for")
	cellsCap := flag.Int("cells-cap", 64, "max workloads×schemes cells per request")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute, "how long shutdown waits for in-flight jobs")
	flag.Parse()

	svc := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
		Limits: service.Limits{
			MaxTransactions: *txnsCap,
			MaxCells:        *cellsCap,
		},
	})

	httpServer := &http.Server{Addr: *addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dolos-serve: listening on %s\n", *addr)

	select {
	case <-ctx.Done():
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "dolos-serve: %v\n", err)
		os.Exit(1)
	}

	// Drain order: first stop job intake and wait for in-flight work
	// (the HTTP listener stays up so clients can poll their jobs to
	// completion), then close the listener.
	fmt.Fprintln(os.Stderr, "dolos-serve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "dolos-serve: drain: %v\n", err)
	}
	if err := httpServer.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "dolos-serve: http shutdown: %v\n", err)
	}
	if final := svc.FinalMetrics(); final != nil {
		fmt.Fprintln(os.Stderr, "dolos-serve: final metrics snapshot:")
		os.Stderr.Write(final)
	}
}
