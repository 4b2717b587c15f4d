package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dolos/client"
	"dolos/internal/fault"
)

// The chaos suite: every test arms the deterministic fault injector
// with a pinned seed, drives the real HTTP stack through the public
// client package, and asserts the resilience contract of DESIGN.md
// §11 — no injected fault may lose a job, double-execute a simulation,
// or let a corrupted cache entry reach a caller; graceful drain must
// complete; and the client's sentinel errors must round-trip from the
// HTTP status the server sent.

// mustInjector arms a fault spec or fails the test.
func mustInjector(t *testing.T, seed int64, spec string) *fault.Injector {
	t.Helper()
	in, err := fault.FromSpec(seed, spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// fastRetry is a client retry policy with millisecond delays so chaos
// tests spin through injected failures quickly. The injected 429s
// still impose the server's real Retry-After (1s), which is part of
// what the suite verifies.
func fastRetry(attempts int) client.Option {
	return client.WithRetryPolicy(client.RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	})
}

// counterVal reads one counter from the server's registry.
func counterVal(svc *Server, name string) uint64 {
	return svc.Registry().Counter(name).Value()
}

// TestChaosNoJobLostOrDoubled is the tentpole acceptance test: with
// job panics, queue-full rejections and artificial cell latency all
// armed, a swarm of retrying clients hammers four distinct requests.
// Every call must succeed, every key must map to one simulation, the
// results must be byte-identical (after zeroing host timing) to a
// fault-free server's, and the metrics must stay internally
// consistent.
func TestChaosNoJobLostOrDoubled(t *testing.T) {
	svc := New(Config{
		Workers: 4, QueueDepth: 16,
		Faults: mustInjector(t, 7, "job-panic:0.25,queue-full:0.15,cell-latency:0.3:1ms"),
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	reqs := []client.Request{
		{Workloads: []string{"Hashmap"}, Schemes: []string{"dolos-partial"}, Transactions: 60, Seed: 1},
		{Workloads: []string{"Hashmap"}, Schemes: []string{"baseline"}, Transactions: 60, Seed: 1},
		{Workloads: []string{"Btree"}, Schemes: []string{"dolos-partial"}, Transactions: 60, Seed: 1},
		{Workloads: []string{"Btree"}, Schemes: []string{"baseline"}, Transactions: 60, Seed: 1},
	}
	const callersPerReq = 3

	// Each caller gets its own client so the server-side single-flight
	// — not the client-side one — deduplicates concurrent submissions.
	var wg sync.WaitGroup
	results := make([][]byte, len(reqs)*callersPerReq)
	for i, req := range reqs {
		for c := 0; c < callersPerReq; c++ {
			wg.Add(1)
			go func(slot int, seed int64, req client.Request) {
				defer wg.Done()
				cl := client.New(ts.URL, fastRetry(8),
					client.WithSeed(seed), client.WithPollInterval(2*time.Millisecond))
				res, err := cl.Run(context.Background(), req)
				if err != nil {
					t.Errorf("caller %d: %v", slot, err)
					return
				}
				results[slot] = res.Bytes
			}(i*callersPerReq+c, int64(i*callersPerReq+c+1), req)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every caller of the same request received identical bytes.
	for i := range reqs {
		base := results[i*callersPerReq]
		for c := 1; c < callersPerReq; c++ {
			if !bytes.Equal(results[i*callersPerReq+c], base) {
				t.Errorf("request %d: caller %d received different bytes", i, c)
			}
		}
	}

	// Byte-identity with a fault-free server, after zeroing the two
	// host-timing fields: injected adversity may slow a result down but
	// must never change it.
	ref := New(Config{Workers: 2, QueueDepth: 16})
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	defer ref.Shutdown(context.Background())
	for i, req := range reqs {
		refCl := client.New(refTS.URL, client.WithPollInterval(2*time.Millisecond))
		res, err := refCl.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("fault-free reference run %d: %v", i, err)
		}
		got := normalizeHostFields(t, results[i*callersPerReq])
		want := normalizeHostFields(t, res.Bytes)
		if !bytes.Equal(got, want) {
			t.Errorf("request %d: chaos result differs from fault-free run:\n--- chaos ---\n%s--- clean ---\n%s",
				i, got, want)
		}
	}

	// No double execution: four distinct keys, exactly four simulations
	// — injected panics fire before the single-flight claim, so a
	// retried job either hits the cache or leads the one computation.
	if sims := counterVal(svc, "service_sims_executed_total"); sims != uint64(len(reqs)) {
		t.Errorf("sims executed = %d, want %d (one per distinct request)", sims, len(reqs))
	}

	// No job lost: every job the server accepted settled one way.
	submitted := counterVal(svc, "service_jobs_submitted_total")
	completed := counterVal(svc, "service_jobs_completed_total")
	failed := counterVal(svc, "service_jobs_failed_total")
	if completed+failed != submitted {
		t.Errorf("jobs: %d submitted but %d completed + %d failed", submitted, completed, failed)
	}
	// Cache accounting partitions completed jobs exactly.
	hits := counterVal(svc, "service_cache_hits_total") + counterVal(svc, "service_dedup_hits_total")
	misses := counterVal(svc, "service_cache_misses_total")
	if hits+misses != completed {
		t.Errorf("cache accounting: %d hits + %d misses != %d completed", hits, misses, completed)
	}

	// The injector's own counts agree with the bound telemetry: the sum
	// of every per-point fault_* counter equals fault_injections_total
	// equals the injector's internal tally.
	var fired uint64
	for _, n := range svc.cfg.Faults.Counts() {
		fired += n
	}
	var perPoint, total uint64
	svc.Registry().EachCounter(func(name string, v uint64) {
		switch {
		case name == "fault_injections_total":
			total = v
		case strings.HasPrefix(name, "fault_"):
			perPoint += v
		}
	})
	if total != fired || perPoint != fired {
		t.Errorf("fault accounting: injector %d, fault_injections_total %d, per-point sum %d",
			fired, total, perPoint)
	}

	// /metrics stays valid exposition format mid-chaos.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	validPrometheus(t, string(metrics))
	if !strings.Contains(string(metrics), "fault_injections_total") {
		t.Error("/metrics missing fault_injections_total")
	}
}

// TestChaosCacheCorruptionNeverServesWrongBytes: with every published
// cache entry corrupted (rate 1), each resubmission must detect the
// bad checksum, evict, recompute — and every caller must still receive
// the correct bytes. Wrong answers are the one unacceptable outcome.
func TestChaosCacheCorruptionNeverServesWrongBytes(t *testing.T) {
	svc := New(Config{
		Workers: 1, QueueDepth: 8,
		Faults: mustInjector(t, 3, "cache-corrupt:1"),
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	cl := client.New(ts.URL, client.WithPollInterval(2*time.Millisecond))
	req := client.Request{Workloads: []string{"Hashmap"}, Schemes: []string{"dolos-partial"},
		Transactions: 60, Seed: 1}

	const rounds = 4
	var first []byte
	for i := 0; i < rounds; i++ {
		res, err := cl.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		got := normalizeHostFields(t, res.Bytes)
		if i == 0 {
			first = got
			continue
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("round %d: recomputed result differs from round 0:\n%s\nvs\n%s", i, got, first)
		}
	}

	// Every round after the first found the previous round's entry
	// corrupted at submission time: rounds-1 detections, and every
	// round recomputed (no corrupted entry was ever trusted).
	if det := counterVal(svc, "service_cache_corruptions_detected_total"); det != rounds-1 {
		t.Errorf("corruption detections = %d, want %d", det, rounds-1)
	}
	if sims := counterVal(svc, "service_sims_executed_total"); sims != rounds {
		t.Errorf("sims executed = %d, want %d (each round recomputes)", sims, rounds)
	}
	if inj := counterVal(svc, "fault_cache_corrupt_injections_total"); inj != rounds {
		t.Errorf("cache-corrupt injections = %d, want %d (one per publish)", inj, rounds)
	}
}

// TestChaosDrainStallCompletes: graceful shutdown must run to
// completion even when every in-flight job stalls mid-drain, and the
// final metrics snapshot must record the injected stalls.
func TestChaosDrainStallCompletes(t *testing.T) {
	svc := New(Config{
		Workers: 2, QueueDepth: 8,
		Faults: mustInjector(t, 5, "drain-stall:1:10ms"),
	})
	entered := make(chan string, 8)
	release := make(chan struct{})
	svc.hookExecute = func(j *Job) {
		entered <- j.id
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const jobs = 4
	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		sub, code := postJob(t, ts, fmt.Sprintf(`{"transactions":50,"seed":%d}`, i+1))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: submit HTTP %d", i, code)
		}
		ids[i] = sub.ID
	}
	<-entered
	<-entered // both workers now hold jobs; two more sit queued

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- svc.Shutdown(context.Background()) }()
	for !svc.isDraining() {
		time.Sleep(time.Millisecond)
	}
	close(release) // all four executions now pass the armed drain-stall point

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("Shutdown did not complete under drain-stall injection")
	}

	for i, id := range ids {
		if st := awaitJob(t, ts, id); st.Status != StatusDone {
			t.Errorf("job %d ended %s: %s", i, st.Status, st.Error)
		}
	}
	final := string(svc.FinalMetrics())
	validPrometheus(t, final)
	if !strings.Contains(final, fmt.Sprintf("service_jobs_completed_total %d", jobs)) {
		t.Errorf("final metrics missing %d completed jobs:\n%s", jobs, final)
	}
	if !strings.Contains(final, fmt.Sprintf("fault_drain_stall_injections_total %d", jobs)) {
		t.Errorf("final metrics missing %d drain stalls:\n%s", jobs, final)
	}
}

// TestChaosPanicResubmissionExact: single worker, sequential runs,
// only job-panic armed — the injector's draw sequence is then fully
// deterministic, so the accounting is exact: every injected panic
// fails exactly one job, every failed job triggers exactly one client
// resubmission, and every request still computes exactly once.
func TestChaosPanicResubmissionExact(t *testing.T) {
	svc := New(Config{
		Workers: 1, QueueDepth: 8,
		Faults: mustInjector(t, 11, "job-panic:0.6"),
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	cl := client.New(ts.URL, fastRetry(10), client.WithSeed(1),
		client.WithPollInterval(2*time.Millisecond))
	const runs = 5
	for i := 0; i < runs; i++ {
		req := client.Request{Workloads: []string{"Hashmap"}, Schemes: []string{"dolos-partial"},
			Transactions: 50, Seed: int64(i + 1)}
		if _, err := cl.Run(context.Background(), req); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}

	panics := svc.cfg.Faults.Counts()[fault.JobPanic]
	if panics == 0 {
		t.Fatal("seed 11 at rate 0.6 injected no panics — the chaos run exercised nothing")
	}
	if got := cl.Resubmits(); got != panics {
		t.Errorf("client resubmits = %d, want %d (one per injected panic)", got, panics)
	}
	if failed := counterVal(svc, "service_jobs_failed_total"); failed != panics {
		t.Errorf("failed jobs = %d, want %d", failed, panics)
	}
	if completed := counterVal(svc, "service_jobs_completed_total"); completed != runs {
		t.Errorf("completed jobs = %d, want %d", completed, runs)
	}
	if sims := counterVal(svc, "service_sims_executed_total"); sims != runs {
		t.Errorf("sims executed = %d, want %d (panics never double-execute)", sims, runs)
	}
	if v := counterVal(svc, "service_panics_total"); v != panics {
		t.Errorf("service_panics_total = %d, want %d", v, panics)
	}
}

// TestChaosClientSentinelRoundTrip: the client's sentinel errors match
// the statuses a faulty server actually sends — 429 under injected
// queue-full maps to ErrQueueFull with the server's Retry-After in the
// chain, a draining server maps to ErrUnavailable, an unknown id to
// ErrJobNotFound.
func TestChaosClientSentinelRoundTrip(t *testing.T) {
	svc := New(Config{
		Workers: 1, QueueDepth: 4,
		Faults: mustInjector(t, 1, "queue-full:1"),
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	cl := client.New(ts.URL, fastRetry(2))
	_, err := cl.V2().SubmitGrid(context.Background(), client.Request{Transactions: 50})
	if !errors.Is(err, client.ErrQueueFull) {
		t.Fatalf("submit against queue-full:1 err = %v, want ErrQueueFull", err)
	}
	var se *client.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a StatusError in the chain", err)
	}
	if se.Code != http.StatusTooManyRequests || se.RetryAfter != time.Second {
		t.Errorf("StatusError = code %d RetryAfter %v, want 429 with the server's 1s hint",
			se.Code, se.RetryAfter)
	}
	if got := cl.Retries(); got != 1 {
		t.Errorf("Retries() = %d, want 1 (two attempts, both rejected)", got)
	}
	if rejected := counterVal(svc, "service_jobs_rejected_total"); rejected != 2 {
		t.Errorf("server rejections = %d, want 2", rejected)
	}

	if _, err := cl.V2().Status(context.Background(), "j99999999"); !errors.Is(err, client.ErrJobNotFound) {
		t.Errorf("unknown id err = %v, want ErrJobNotFound", err)
	}

	// A drained server rejects with 503 → ErrUnavailable.
	drained := New(Config{Workers: 1, QueueDepth: 2})
	drainedTS := httptest.NewServer(drained.Handler())
	defer drainedTS.Close()
	if err := drained.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	one := client.New(drainedTS.URL, client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
	if _, err := one.V2().SubmitGrid(context.Background(), client.Request{}); !errors.Is(err, client.ErrUnavailable) {
		t.Errorf("draining submit err = %v, want ErrUnavailable", err)
	}
}
