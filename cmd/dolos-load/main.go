// Command dolos-load is a closed-loop load generator for dolos-serve,
// built on the official client package: a pool of concurrent clients
// submits jobs through client.Run — which retries 429/503 rejections
// with backoff, honors Retry-After, and resubmits failed jobs — and
// reports throughput, latency percentiles, the cache hit rate, and the
// client's retry/resubmission counts.
//
// Usage:
//
//	dolos-load -addr http://127.0.0.1:8080 -duration 5s -concurrency 4
//	dolos-load -schemes dolos-partial,baseline -workloads Hashmap,Btree -rps 50
//	dolos-load -duration 5s -min-hits 1 -max-errors 0   # smoke-check mode (make load-smoke)
//
// With -rps 0 (default) each client issues its next request as soon as
// the previous one completes; with -rps > 0 a shared pacer caps the
// aggregate submission rate. -min-hits/-max-errors turn the run into a
// pass/fail check. The closing "resilience" line reports how often the
// client retried a 429/503 rejection or resubmitted a failed job.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dolos/client"
)

type result struct {
	latency time.Duration
	ttfc    time.Duration // streaming: time to first cell
	cells   int           // streaming: cells delivered
	cached  bool
	err     error
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of dolos-serve")
	duration := flag.Duration("duration", 5*time.Second, "how long to generate load")
	concurrency := flag.Int("concurrency", 4, "concurrent closed-loop clients")
	rps := flag.Float64("rps", 0, "target aggregate requests/second (0 = unpaced closed loop)")
	workloads := flag.String("workloads", "Hashmap", "comma-separated workloads to rotate through")
	schemes := flag.String("schemes", "dolos-partial,baseline", "comma-separated schemes to rotate through")
	txns := flag.Int("txns", 100, "transactions per job")
	txSize := flag.Int("txsize", 1024, "transaction payload bytes")
	seed := flag.Int64("seed", 1, "workload seed")
	wait := flag.Duration("wait", 10*time.Second, "how long to wait for the server's /healthz before starting")
	minHits := flag.Int("min-hits", -1, "fail unless at least this many responses were cache hits (-1 = no check)")
	maxErrors := flag.Int("max-errors", -1, "fail if more than this many requests errored (-1 = no check)")
	stream := flag.Bool("stream", false,
		"submit full grids via POST /v2/jobs and consume per-cell SSE streams; reports time-to-first-cell percentiles")
	flag.Parse()

	if err := waitHealthy(*addr, *wait); err != nil {
		fmt.Fprintf(os.Stderr, "dolos-load: %v\n", err)
		os.Exit(1)
	}

	// One single-cell request per workload×scheme combination; clients
	// rotate through them, so every combination after its first
	// submission should be served from the result cache. Streaming mode
	// instead submits the whole grid in one request — that is what
	// exercises per-cell delivery.
	var reqs []client.Request
	if *stream {
		req := client.Request{Transactions: *txns, TxSize: *txSize, Seed: *seed}
		for _, wl := range strings.Split(*workloads, ",") {
			req.Workloads = append(req.Workloads, strings.TrimSpace(wl))
		}
		for _, sch := range strings.Split(*schemes, ",") {
			req.Schemes = append(req.Schemes, strings.TrimSpace(sch))
		}
		reqs = []client.Request{req}
	} else {
		for _, wl := range strings.Split(*workloads, ",") {
			for _, sch := range strings.Split(*schemes, ",") {
				reqs = append(reqs, client.Request{
					Workloads:    []string{strings.TrimSpace(wl)},
					Schemes:      []string{strings.TrimSpace(sch)},
					Transactions: *txns,
					TxSize:       *txSize,
					Seed:         *seed,
				})
			}
		}
	}

	var pace <-chan time.Time
	if *rps > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / *rps))
		defer t.Stop()
		pace = t.C
	}

	// One shared client: its retry/resubmission counters aggregate
	// across the pool.
	cl := client.New(*addr, client.WithSeed(*seed),
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 8}))
	deadline := time.Now().Add(*duration)
	resultCh := make(chan result, 1024)
	var wg sync.WaitGroup
	var rotor int64
	var rotorMu sync.Mutex
	nextReq := func() client.Request {
		rotorMu.Lock()
		defer rotorMu.Unlock()
		r := reqs[rotor%int64(len(reqs))]
		rotor++
		return r
	}

	start := time.Now()
	wg.Add(*concurrency)
	for c := 0; c < *concurrency; c++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if pace != nil {
					select {
					case <-pace:
					case <-time.After(time.Until(deadline)):
						return
					}
				}
				if *stream {
					resultCh <- runOneStream(cl, nextReq(), deadline)
				} else {
					resultCh <- runOne(cl, nextReq(), deadline)
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(resultCh)
	}()

	var latencies, ttfcs []time.Duration
	var errorsSeen, hits, cellsDelivered int
	for r := range resultCh {
		if r.err != nil {
			errorsSeen++
			if errorsSeen <= 5 {
				fmt.Fprintf(os.Stderr, "dolos-load: request failed: %v\n", r.err)
			}
			continue
		}
		latencies = append(latencies, r.latency)
		if *stream {
			ttfcs = append(ttfcs, r.ttfc)
			cellsDelivered += r.cells
		}
		if r.cached {
			hits++
		}
	}
	elapsed := time.Since(start)

	total := len(latencies) + errorsSeen
	fmt.Printf("dolos-load: %d requests in %.1fs (%.1f req/s), %d errors\n",
		total, elapsed.Seconds(), float64(total)/elapsed.Seconds(), errorsSeen)
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		fmt.Printf("latency  p50 %s  p90 %s  p99 %s  max %s\n",
			percentile(latencies, 50), percentile(latencies, 90),
			percentile(latencies, 99), latencies[len(latencies)-1].Round(time.Microsecond))
		fmt.Printf("cache    %d hits / %d ok (%.1f%%)\n",
			hits, len(latencies), 100*float64(hits)/float64(len(latencies)))
	}
	if *stream && len(ttfcs) > 0 {
		sort.Slice(ttfcs, func(i, j int) bool { return ttfcs[i] < ttfcs[j] })
		fmt.Printf("stream   first-cell p50 %s  p90 %s  p99 %s; %d cells over %d streams\n",
			percentile(ttfcs, 50), percentile(ttfcs, 90), percentile(ttfcs, 99),
			cellsDelivered, len(ttfcs))
	}
	retries, resubmits := cl.Retries(), cl.Resubmits()
	fmt.Printf("resilience  %d retries, %d resubmissions\n", retries, resubmits)

	failed := false
	if *maxErrors >= 0 && errorsSeen > *maxErrors {
		fmt.Fprintf(os.Stderr, "dolos-load: FAIL: %d errors > allowed %d\n", errorsSeen, *maxErrors)
		failed = true
	}
	if *minHits >= 0 && hits < *minHits {
		fmt.Fprintf(os.Stderr, "dolos-load: FAIL: %d cache hits < required %d\n", hits, *minHits)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// runOne drives one request to a settled result through the client's
// retry machinery, returning the end-to-end latency and whether the
// result was served from the cache or a deduplicated flight.
func runOne(cl *client.Client, req client.Request, deadline time.Time) result {
	// The request budget extends past the load deadline so jobs
	// submitted near the end still settle.
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(30*time.Second))
	defer cancel()
	start := time.Now()
	res, err := cl.Run(ctx, req)
	if err != nil {
		return result{err: err}
	}
	return result{latency: time.Since(start), cached: res.Job.Cached}
}

// runOneStream drives one grid job through the /v2 streaming surface:
// submit, open the SSE stream, and consume every per-cell event. The
// assertions ride along: the stream must deliver exactly the job's
// cell count, in order, exactly once — the Stream iterator already
// refuses duplicates and reconnects with Last-Event-ID on drops.
func runOneStream(cl *client.Client, req client.Request, deadline time.Time) result {
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(30*time.Second))
	defer cancel()
	start := time.Now()
	job, err := cl.SubmitGrid(ctx, req)
	if err != nil {
		return result{err: err}
	}
	st, err := cl.Stream(ctx, job.ID)
	if err != nil {
		return result{err: err}
	}
	defer st.Close()
	var ttfc time.Duration
	next := 0
	for {
		ev, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return result{err: err}
		}
		if ev.Index != next {
			return result{err: fmt.Errorf("stream out of order: cell %d, want %d", ev.Index, next)}
		}
		if next == 0 {
			ttfc = time.Since(start)
		}
		next++
	}
	if job.Cells > 0 && next != job.Cells {
		return result{err: fmt.Errorf("stream delivered %d/%d cells", next, job.Cells)}
	}
	return result{latency: time.Since(start), ttfc: ttfc, cells: next, cached: job.Cached}
}

func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)-1)*p + 50
	return sorted[idx/100].Round(time.Microsecond)
}

// waitHealthy polls GET /healthz until the server answers 200.
func waitHealthy(addr string, timeout time.Duration) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %s", addr, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
