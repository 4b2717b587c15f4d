package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dolos/client"
	"dolos/internal/cliutil"
	"dolos/internal/core"
	"dolos/internal/telemetry"
)

// postJob submits a request body and decodes the response envelope.
func postJob(t *testing.T, ts *httptest.Server, body string) (JobV2, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub JobV2
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return sub, resp.StatusCode
}

// awaitJob polls a job until it settles.
func awaitJob(t *testing.T, ts *httptest.Server, id string) JobV2 {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v2/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var sub JobV2
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sub.Status == StatusDone || sub.Status == StatusFailed {
			return sub
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in status %s", id, sub.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getResult(t *testing.T, ts *httptest.Server, id string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v2/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

// normalizeHostFields zeroes the two host-timing RunRecord fields
// (wall_seconds and the derived sim_events_per_sec vary run to run; all
// other fields, including events_processed, are deterministic) and
// re-encodes, so byte comparison checks every deterministic field.
func normalizeHostFields(t *testing.T, recordJSON []byte) []byte {
	t.Helper()
	var rec telemetry.RunRecord
	if err := json.Unmarshal(recordJSON, &rec); err != nil {
		t.Fatalf("result is not a RunRecord: %v\n%s", err, recordJSON)
	}
	rec.WallSeconds = 0
	rec.EventsPerSecond = 0
	var buf bytes.Buffer
	if err := telemetry.WriteJSON(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// counterVal reads one counter from the server's registry.
func counterVal(svc *Server, name string) uint64 {
	return svc.Registry().Counter(name).Value()
}

// fastRetry is a client retry policy with millisecond backoff, so tests
// spin through rejected submissions and failed jobs quickly. A 429
// still waits out the server's real Retry-After (1s).
func fastRetry(attempts int) client.Option {
	return client.WithRetryPolicy(client.RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	})
}

// panicOnFirstRun returns a hookExecute that panics the first time each
// request key executes and lets every later execution of it through.
// The hook runs before the single-flight claim, so a panicked job has
// neither led a flight nor entered the cache.
func panicOnFirstRun() func(*Job) {
	var mu sync.Mutex
	seen := make(map[string]bool)
	return func(j *Job) {
		mu.Lock()
		first := !seen[j.key]
		seen[j.key] = true
		mu.Unlock()
		if first {
			panic("first run of " + j.key)
		}
	}
}

// TestServiceEndToEnd is the PR's acceptance test: 16 concurrent
// clients submit the identical single-cell job against an 8-worker
// pool. Exactly one simulation must execute (cache + single-flight);
// every client must receive bytes identical to each other and — after
// zeroing the host-timing fields — to a direct internal/core run of the
// same cell; /metrics must expose the job and cache counters in valid
// Prometheus text format.
func TestServiceEndToEnd(t *testing.T) {
	svc := New(Config{Workers: 8, QueueDepth: 64})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	const body = `{"workloads":["Hashmap"],"schemes":["dolos-partial"],"transactions":120,"seed":1}`
	const clients = 16

	var wg sync.WaitGroup
	results := make([][]byte, clients)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			sub, code := postJob(t, ts, body)
			if code != http.StatusOK && code != http.StatusAccepted {
				t.Errorf("client %d: submit HTTP %d", c, code)
				return
			}
			if st := awaitJob(t, ts, sub.ID); st.Status != StatusDone {
				t.Errorf("client %d: job %s ended %s: %s", c, sub.ID, st.Status, st.Error)
				return
			}
			b, code := getResult(t, ts, sub.ID)
			if code != http.StatusOK {
				t.Errorf("client %d: result HTTP %d", c, code)
				return
			}
			results[c] = b
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for c := 1; c < clients; c++ {
		if !bytes.Equal(results[c], results[0]) {
			t.Fatalf("client %d received different bytes than client 0:\n%s\nvs\n%s",
				c, results[c], results[0])
		}
	}

	if sims := svc.Registry().Counter("service_sims_executed_total").Value(); sims != 1 {
		t.Errorf("16 identical submissions executed %d simulations, want exactly 1", sims)
	}

	// Byte-identity with a direct core run of the same cell, using the
	// very same normalization the server applied.
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	n, err := normalize(req, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	cells := n.cells()
	runner := core.NewRunner(core.Options{Transactions: n.Transactions, Seed: n.Seed, Parallelism: 1})
	rr, err := runner.RunCell(context.Background(), cells[0].Workload, cells[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	direct := cliutil.BuildRunRecord(rr.Result, cells[0].Spec.Tree, cells[0].Spec.TxSize,
		n.Seed, rr.Events, rr.Wall, rr.Stats, nil)
	var directBuf bytes.Buffer
	if err := telemetry.WriteJSON(&directBuf, direct); err != nil {
		t.Fatal(err)
	}
	got := normalizeHostFields(t, results[0])
	want := normalizeHostFields(t, directBuf.Bytes())
	if !bytes.Equal(got, want) {
		t.Errorf("service result differs from direct core run:\n--- service ---\n%s--- direct ---\n%s", got, want)
	}

	// /metrics: job and cache counters in valid exposition format.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	text := string(metrics)
	for _, want := range []string{
		"service_jobs_submitted_total", "service_jobs_completed_total",
		"service_cache_hits_total", "service_cache_misses_total",
		"service_sims_executed_total", "service_queue_depth",
		"service_job_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	validPrometheus(t, text)

	// The 16 clients produced exactly one miss; every other response
	// was a cache or dedup hit.
	reg := svc.Registry()
	if misses := reg.Counter("service_cache_misses_total").Value(); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
	hits := reg.Counter("service_cache_hits_total").Value() +
		reg.Counter("service_dedup_hits_total").Value()
	if hits != clients-1 {
		t.Errorf("cache+dedup hits = %d, want %d", hits, clients-1)
	}
}

// promLine mirrors the exposition line grammar pinned in
// internal/telemetry's golden test.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	` (NaN|[+-]Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)

func validPrometheus(t *testing.T, text string) {
	t.Helper()
	if strings.TrimSpace(text) == "" {
		t.Error("empty exposition output")
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line %q", line)
		}
	}
}

// TestShutdownDrainsInFlight pins the drain contract: Shutdown with an
// in-flight job returns only after the job completes, flushes the final
// metrics snapshot, and rejects new submissions with 503.
func TestShutdownDrainsInFlight(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 8})
	entered := make(chan string, 8)
	release := make(chan struct{})
	svc.hookExecute = func(j *Job) {
		entered <- j.id
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	sub, code := postJob(t, ts, `{"transactions":50}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit HTTP %d", code)
	}
	<-entered // a worker now holds the job in-flight

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- svc.Shutdown(context.Background()) }()

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a job was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// While draining: health reports 503 and submissions are rejected
	// with Retry-After.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Code != CodeUnavailable {
		t.Errorf("draining healthz body %+v (%v), want a %q envelope", env, err, CodeUnavailable)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "5" {
		t.Errorf("draining healthz Retry-After %q, want 5", resp.Header.Get("Retry-After"))
	}
	resp, err = http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := awaitJob(t, ts, sub.ID); st.Status != StatusDone {
		t.Errorf("drained job ended %s, want done", st.Status)
	}
	final := string(svc.FinalMetrics())
	if !strings.Contains(final, "service_jobs_completed_total 1") {
		t.Errorf("final metrics snapshot missing completed counter:\n%s", final)
	}
	validPrometheus(t, final)
}

// TestQueueFullRejects pins the backpressure contract: with one worker
// held and the depth-1 queue occupied, the next submission is rejected
// with 429 and a Retry-After header.
func TestQueueFullRejects(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1})
	entered := make(chan string, 4)
	release := make(chan struct{})
	svc.hookExecute = func(j *Job) {
		entered <- j.id
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Distinct seeds keep the three jobs from deduplicating.
	if _, code := postJob(t, ts, `{"transactions":50,"seed":11}`); code != http.StatusAccepted {
		t.Fatalf("job A HTTP %d", code)
	}
	<-entered // worker busy with A
	subB, code := postJob(t, ts, `{"transactions":50,"seed":12}`)
	if code != http.StatusAccepted {
		t.Fatalf("job B HTTP %d", code)
	}
	if subB.QueuePosition != 1 {
		t.Errorf("job B queue position = %d, want 1", subB.QueuePosition)
	}

	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json",
		strings.NewReader(`{"transactions":50,"seed":13}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full-queue submit HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if rejected := counterVal(svc, "service_jobs_rejected_total"); rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", rejected)
	}

	close(release)
	svc.Shutdown(context.Background())
}

// TestJobDeadline: a job whose deadline expires before a worker can run
// it fails with context.DeadlineExceeded instead of running anyway.
func TestJobDeadline(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8})
	svc.hookExecute = func(*Job) { time.Sleep(80 * time.Millisecond) }
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	sub, code := postJob(t, ts, `{"transactions":50,"timeout_ms":20}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit HTTP %d", code)
	}
	st := awaitJob(t, ts, sub.ID)
	if st.Status != StatusFailed {
		t.Fatalf("job ended %s, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("failure cause %q does not mention the deadline", st.Error)
	}
	if _, code := getResult(t, ts, sub.ID); code != http.StatusInternalServerError {
		t.Errorf("failed job result HTTP %d, want 500", code)
	}
	svc.Shutdown(context.Background())
}

// TestResultBeforeCompletion: polling the result URL of an unfinished
// job reports its status with 202 instead of an error.
func TestResultBeforeCompletion(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	entered := make(chan string, 1)
	svc.hookExecute = func(j *Job) {
		entered <- j.id
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	sub, _ := postJob(t, ts, `{"transactions":50}`)
	<-entered
	if _, code := getResult(t, ts, sub.ID); code != http.StatusAccepted {
		t.Errorf("pending result HTTP %d, want 202", code)
	}
	close(release)
	awaitJob(t, ts, sub.ID)
	svc.Shutdown(context.Background())
}

// TestHeapOverflowRejected pins that a grid within the transaction and
// size bounds whose trace would overflow the persistent heap is a 400
// naming both, not a job that panics in generation.
func TestHeapOverflowRejected(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json",
		strings.NewReader(`{"workloads":["NStore:YCSB","Redis"],"transactions":20000,"tx_size":4096}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(env.Message, "txns 20000 with txsize 4096") {
		t.Errorf("HTTP %d, envelope %+v; want 400 naming txns and txsize", resp.StatusCode, env)
	}
}

// TestBadRequests sweeps the rejection surface of the submit endpoint.
func TestBadRequests(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, MaxBodyBytes: 256,
		Limits: Limits{MaxCells: 4, MaxTransactions: 1000}})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	cases := []struct {
		name, body string
		want       int
	}{
		{"unknown workload", `{"workloads":["NoSuchThing"]}`, http.StatusBadRequest},
		{"unknown scheme", `{"schemes":["turbo"]}`, http.StatusBadRequest},
		{"unknown tree", `{"tree":"bushy"}`, http.StatusBadRequest},
		{"grid too large", `{"workloads":["Hashmap","Btree","Ctree"],"schemes":["baseline","ideal"]}`, http.StatusBadRequest},
		{"transactions over cap", `{"transactions":5000}`, http.StatusBadRequest},
		{"tx size out of range", `{"tx_size":9999}`, http.StatusBadRequest},
		{"malformed json", `{"workloads":`, http.StatusBadRequest},
		{"unknown field", `{"workload":"Hashmap"}`, http.StatusBadRequest},
		{"oversized body", fmt.Sprintf(`{"workloads":[%q]}`, strings.Repeat("x", 512)), http.StatusRequestEntityTooLarge},
		{"negative timeout", `{"timeout_ms":-1}`, http.StatusBadRequest},
		// Scaled to nanoseconds unchecked, these wrap: the first to a
		// negative deadline (silently the default), the second to 448µs.
		{"timeout wraps negative", `{"timeout_ms":9223372036855}`, http.StatusBadRequest},
		{"timeout wraps to microseconds", `{"timeout_ms":18446744073710}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if derr != nil || env.Code != codeForStatus(tc.want) {
			t.Errorf("%s: envelope %+v (decode err %v), want code %q", tc.name, env, derr, codeForStatus(tc.want))
		}
	}
	// The largest timeout_ms whose nanoseconds fit a Duration is valid.
	if _, code := postJob(t, ts, fmt.Sprintf(`{"transactions":50,"timeout_ms":%d}`, maxTimeoutMS)); code != http.StatusAccepted {
		t.Errorf("timeout_ms %d: HTTP %d, want 202", maxTimeoutMS, code)
	}

	if resp, err := http.Get(ts.URL + "/v2/jobs/j99999999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job HTTP %d, want 404", resp.StatusCode)
		}
	}
	// Requests no route serves — a retired route, the collection
	// without an id, a method a route does not take — get a 404
	// not_found envelope, not the mux's plain-text 404 or 405.
	for _, rq := range []struct{ method, path string }{
		{http.MethodPost, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs/j1"},
		{http.MethodGet, "/v2/cluster"},
		{http.MethodPost, "/v2/cells"},
		{http.MethodGet, "/v2/audit"},
		{http.MethodGet, "/v2/jobs"},
		{http.MethodDelete, "/v2/jobs/j1"},
	} {
		req, err := http.NewRequest(rq.method, ts.URL+rq.path, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Errorf("%s %s: body is not an error envelope: %v", rq.method, rq.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s HTTP %d, want 404", rq.method, rq.path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s Content-Type %q, want application/json", rq.method, rq.path, ct)
		}
		if env.Code != CodeNotFound || env.Message == "" {
			t.Errorf("%s %s envelope %+v, want code %q with a message", rq.method, rq.path, env, CodeNotFound)
		}
	}
}

// TestGridJob: a workloads×schemes grid returns an array of RunRecords
// in enumeration order (workloads outer, schemes inner).
func TestGridJob(t *testing.T) {
	svc := New(Config{Workers: 4, QueueDepth: 8})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	sub, code := postJob(t, ts,
		`{"workloads":["Hashmap"],"schemes":["baseline","dolos-partial"],"transactions":60}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit HTTP %d", code)
	}
	if st := awaitJob(t, ts, sub.ID); st.Status != StatusDone {
		t.Fatalf("grid job ended %s: %s", st.Status, st.Error)
	}
	b, code := getResult(t, ts, sub.ID)
	if code != http.StatusOK {
		t.Fatalf("result HTTP %d", code)
	}
	var recs []telemetry.RunRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		t.Fatalf("grid result is not a RunRecord array: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("grid returned %d records, want 2", len(recs))
	}
	if recs[0].Scheme != "Pre-WPQ-Secure" || recs[1].Scheme != "Dolos-Partial-WPQ" {
		t.Errorf("grid order: got schemes %q, %q", recs[0].Scheme, recs[1].Scheme)
	}
	for i, rec := range recs {
		if rec.Workload != "Hashmap" || rec.Cycles == 0 || rec.EventsProcessed == 0 {
			t.Errorf("record %d incomplete: %+v", i, rec)
		}
	}
}

// TestPanicContainment: a panicking computation fails its job (and any
// deduplicated followers) without killing the worker, which keeps
// serving later jobs.
func TestPanicContainment(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8})
	svc.hookExecute = func(j *Job) {
		if j.req.Seed == 666 {
			panic("injected failure")
		}
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	sub, _ := postJob(t, ts, `{"transactions":50,"seed":666}`)
	if st := awaitJob(t, ts, sub.ID); st.Status != StatusFailed || !strings.Contains(st.Error, "panic") {
		t.Fatalf("panicked job: status %s, error %q", st.Status, st.Error)
	}
	if v := counterVal(svc, "service_panics_total"); v != 1 {
		t.Errorf("panic counter = %d, want 1", v)
	}

	// The worker survived: a healthy job still completes.
	sub, _ = postJob(t, ts, `{"transactions":50,"seed":2}`)
	if st := awaitJob(t, ts, sub.ID); st.Status != StatusDone {
		t.Fatalf("job after panic ended %s: %s", st.Status, st.Error)
	}
}

// TestNoJobLostOrDoubled: retrying client.Run callers hammer four
// distinct requests concurrently, three callers each, while the first
// execution of every request key panics. Every call succeeds, every
// accepted job settles exactly once, every key is simulated exactly
// once, and the bytes equal a clean server's.
func TestNoJobLostOrDoubled(t *testing.T) {
	svc := New(Config{Workers: 4, QueueDepth: 16})
	svc.hookExecute = panicOnFirstRun()
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
	keys := uint64(len(reqs))
	callers := len(reqs) * callersPerReq

	// Each caller gets its own client so the server-side single-flight
	// — not the client-side one — deduplicates concurrent submissions.
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	clients := make([]*client.Client, callers)
	for slot := range clients {
		clients[slot] = client.New(ts.URL, fastRetry(8),
			client.WithSeed(int64(slot+1)), client.WithPollInterval(2*time.Millisecond))
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			res, err := clients[slot].Run(context.Background(), reqs[slot/callersPerReq])
			if err != nil {
				t.Errorf("caller %d: %v", slot, err)
				return
			}
			results[slot] = res.Bytes
		}(slot)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every caller of the same request received identical bytes, equal
	// after zeroing host timing to what a server without panics returns.
	ref := New(Config{Workers: 2, QueueDepth: 16})
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	defer ref.Shutdown(context.Background())
	refCl := client.New(refTS.URL, client.WithPollInterval(2*time.Millisecond))
	for i, req := range reqs {
		base := results[i*callersPerReq]
		for c := 1; c < callersPerReq; c++ {
			if !bytes.Equal(results[i*callersPerReq+c], base) {
				t.Errorf("request %d: caller %d received different bytes", i, c)
			}
		}
		res, err := refCl.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
		if got, want := normalizeHostFields(t, base), normalizeHostFields(t, res.Bytes); !bytes.Equal(got, want) {
			t.Errorf("request %d differs from the reference run:\n--- panicking server ---\n%s--- reference ---\n%s",
				i, got, want)
		}
	}

	// One panic, one failed job and one resubmission per key; every
	// caller's last job completed; nothing was simulated twice.
	var resubmits uint64
	for _, cl := range clients {
		resubmits += cl.Resubmits()
	}
	if resubmits != keys {
		t.Errorf("client resubmits = %d, want %d (one per key)", resubmits, keys)
	}
	for name, want := range map[string]uint64{
		"service_jobs_submitted_total": uint64(callers) + keys,
		"service_jobs_completed_total": uint64(callers),
		"service_jobs_failed_total":    keys,
		"service_panics_total":         keys,
		"service_sims_executed_total":  keys,
	} {
		if got := counterVal(svc, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Cache accounting partitions completed jobs exactly.
	hits := counterVal(svc, "service_cache_hits_total") + counterVal(svc, "service_dedup_hits_total")
	misses := counterVal(svc, "service_cache_misses_total")
	if completed := counterVal(svc, "service_jobs_completed_total"); hits+misses != completed {
		t.Errorf("cache accounting: %d hits + %d misses != %d completed", hits, misses, completed)
	}
}

// TestCorruptedCacheEntryNeverServed: a byte flipped in one cached cell
// record is caught by the entry's checksum on the next lookup.
// Each later round counts one detection, recomputes and returns the
// same bytes; an intact entry is then served without recomputing.
func TestCorruptedCacheEntryNeverServed(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	cl := client.New(ts.URL, client.WithPollInterval(2*time.Millisecond))
	req := client.Request{Workloads: []string{"Hashmap"}, Schemes: []string{"dolos-partial"},
		Transactions: 60, Seed: 1}
	n, err := normalize(Request{Workloads: req.Workloads, Schemes: req.Schemes,
		Transactions: req.Transactions, Seed: req.Seed}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		t.Helper()
		res, err := cl.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return normalizeHostFields(t, res.Bytes)
	}

	first := run()
	const rounds = 3
	for i := uint64(1); i <= rounds; i++ {
		corruptCacheEntry(t, svc, n.Key())
		if got := run(); !bytes.Equal(got, first) {
			t.Fatalf("round %d: result differs from round 0:\n%s\nvs\n%s", i, got, first)
		}
		if det := counterVal(svc, "service_cache_corruptions_detected_total"); det != i {
			t.Errorf("round %d: corruption detections = %d, want %d", i, det, i)
		}
		if sims := counterVal(svc, "service_sims_executed_total"); sims != i+1 {
			t.Errorf("round %d: sims executed = %d, want %d (a corrupted entry is recomputed)", i, sims, i+1)
		}
	}
	if got := run(); !bytes.Equal(got, first) {
		t.Fatal("intact cache entry differs from round 0")
	}
	if sims := counterVal(svc, "service_sims_executed_total"); sims != rounds+1 {
		t.Errorf("sims executed = %d after a clean cache hit, want %d", sims, rounds+1)
	}
}

// corruptCacheEntry flips one byte of a settled row's cell record
// without updating the row's checksum. The flip goes into copies, so
// records already handed to jobs stay intact and only the table's row
// goes bad.
func corruptCacheEntry(t *testing.T, svc *Server, key string) {
	t.Helper()
	svc.mu.Lock()
	defer svc.mu.Unlock()
	e, ok := svc.results.rows[key]
	if !ok || !e.settled() {
		t.Fatalf("no settled row for key %s", key)
	}
	recs := append([][]byte(nil), e.recs...)
	r := append([]byte(nil), recs[0]...)
	r[len(r)/2] ^= 0xff
	recs[0] = r
	e.recs = recs
}

// TestSettledJobsBounded: a server remembers at most maxSettledJobs
// settled jobs. Cache-hit submissions past the bound forget the oldest
// settled job first: the job map and the service_jobs_retained gauge
// never exceed the bound plus the live jobs, the oldest id answers 404
// like an id from before a restart, and client.Run for its request
// returns the same bytes without simulating again.
func TestSettledJobsBounded(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	ctx := context.Background()
	cl := client.New(ts.URL, client.WithPollInterval(2*time.Millisecond))
	req := client.Request{Workloads: []string{"Hashmap"}, Schemes: []string{"dolos-partial"},
		Transactions: 30, Seed: 1}
	first, err := cl.SubmitGrid(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := awaitJob(t, ts, first.ID); st.Status != StatusDone {
		t.Fatalf("first job ended %s: %s", st.Status, st.Error)
	}
	want, code := getResult(t, ts, first.ID)
	if code != http.StatusOK {
		t.Fatalf("first result HTTP %d", code)
	}

	n, err := normalize(Request{Workloads: req.Workloads, Schemes: req.Schemes,
		Transactions: req.Transactions, Seed: req.Seed}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	gauge := svc.Registry().Gauge("service_jobs_retained")
	for i := 0; i < maxSettledJobs+16; i++ {
		job, err := svc.submit(n, 0)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		svc.mu.Lock()
		status, retained, live := job.status, len(svc.jobs), 0
		for _, j := range svc.jobs {
			if j.status == StatusQueued || j.status == StatusRunning {
				live++
			}
		}
		svc.mu.Unlock()
		if status != StatusDone {
			t.Fatalf("submission %d: status %s, want a done cache hit", i, status)
		}
		if retained > maxSettledJobs+live || int(gauge.Value()) > maxSettledJobs+live {
			t.Fatalf("submission %d: %d jobs retained, gauge %v, want at most %d + %d live",
				i, retained, gauge.Value(), maxSettledJobs, live)
		}
	}
	if int(gauge.Value()) != maxSettledJobs {
		t.Errorf("service_jobs_retained = %v, want %d", gauge.Value(), maxSettledJobs)
	}

	if _, err := cl.Status(ctx, first.ID); !errors.Is(err, client.ErrJobNotFound) {
		t.Errorf("oldest id %s: err = %v, want ErrJobNotFound", first.ID, err)
	}
	if _, code := getResult(t, ts, first.ID); code != http.StatusNotFound {
		t.Errorf("oldest id %s result HTTP %d, want 404", first.ID, code)
	}
	sims := counterVal(svc, "service_sims_executed_total")
	res, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := normalizeHostFields(t, res.Bytes); !bytes.Equal(got, normalizeHostFields(t, want)) {
		t.Errorf("rerun of a forgotten job's request differs:\n%s\nvs\n%s", got, want)
	}
	if after := counterVal(svc, "service_sims_executed_total"); after != sims {
		t.Errorf("sims executed %d -> %d, want no new simulation", sims, after)
	}
}

// awaitDraining blocks until Shutdown has begun closing intake.
func awaitDraining(t *testing.T, svc *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !svc.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosDrainStallCompletes: graceful shutdown runs to completion
// with two jobs stalled in flight and two more queued behind them.
// Shutdown does not return while the workers are held, and once they
// are released every job completes and the final metrics snapshot
// counts all four.
func TestChaosDrainStallCompletes(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 8})
	entered := make(chan string, 8)
	release := make(chan struct{})
	svc.hookExecute = func(j *Job) {
		entered <- j.id
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Distinct seeds keep the four jobs from deduplicating.
	const jobs = 4
	ids := make([]string, jobs)
	for i := range ids {
		sub, code := postJob(t, ts, fmt.Sprintf(`{"transactions":50,"seed":%d}`, i+1))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: submit HTTP %d", i, code)
		}
		ids[i] = sub.ID
	}
	<-entered
	<-entered // both workers now hold a job; two more sit queued

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- svc.Shutdown(context.Background()) }()
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while jobs were in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not complete after the held jobs were released")
	}
	for i, id := range ids {
		if st := awaitJob(t, ts, id); st.Status != StatusDone {
			t.Errorf("drained job %d ended %s: %s", i, st.Status, st.Error)
		}
	}
	final := string(svc.FinalMetrics())
	if !strings.Contains(final, fmt.Sprintf("service_jobs_completed_total %d", jobs)) {
		t.Errorf("final metrics snapshot missing %d completed jobs:\n%s", jobs, final)
	}
	validPrometheus(t, final)
}

// TestChaosPanicResubmissionExact: single worker, sequential runs, and
// the first execution of every request panics. The accounting is
// exact: each panic fails one job, each failed job triggers one client
// resubmission, and each request still computes exactly once.
func TestChaosPanicResubmissionExact(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8})
	svc.hookExecute = panicOnFirstRun()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	cl := client.New(ts.URL, fastRetry(10), client.WithPollInterval(2*time.Millisecond))
	const runs = 5
	for i := 0; i < runs; i++ {
		req := client.Request{Workloads: []string{"Hashmap"}, Schemes: []string{"dolos-partial"},
			Transactions: 50, Seed: int64(i + 1)}
		if _, err := cl.Run(context.Background(), req); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := cl.Resubmits(); got != runs {
		t.Errorf("client resubmits = %d, want %d (one per panicked job)", got, runs)
	}
	for _, name := range []string{"service_jobs_failed_total", "service_panics_total",
		"service_jobs_completed_total", "service_sims_executed_total"} {
		if got := counterVal(svc, name); got != runs {
			t.Errorf("%s = %d, want %d", name, got, runs)
		}
	}
}

// TestChaosClientSentinelRoundTrip: the client's sentinel errors match
// the statuses the server actually sends. A real full queue answers
// 429, which maps to ErrQueueFull with the server's 1s Retry-After once
// the retry budget is spent; an unknown id maps to ErrJobNotFound; a
// draining server maps to ErrUnavailable with its 5s Retry-After.
func TestChaosClientSentinelRoundTrip(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1})
	entered := make(chan string, 4)
	release := make(chan struct{})
	svc.hookExecute = func(j *Job) {
		entered <- j.id
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Distinct seeds keep the jobs from deduplicating.
	if _, code := postJob(t, ts, `{"transactions":50,"seed":11}`); code != http.StatusAccepted {
		t.Fatalf("job A HTTP %d", code)
	}
	<-entered // worker busy with A
	if _, code := postJob(t, ts, `{"transactions":50,"seed":12}`); code != http.StatusAccepted {
		t.Fatalf("job B HTTP %d", code)
	}

	// Two client attempts, both rejected by the real full queue.
	cl := client.New(ts.URL, fastRetry(2))
	_, err := cl.SubmitGrid(context.Background(), client.Request{Transactions: 50, Seed: 13})
	var se *client.StatusError
	if !errors.Is(err, client.ErrQueueFull) || !errors.As(err, &se) {
		t.Fatalf("full-queue client submit err = %v, want ErrQueueFull from a StatusError", err)
	}
	if se.Code != http.StatusTooManyRequests || se.RetryAfter != time.Second {
		t.Errorf("StatusError = HTTP %d Retry-After %v, want 429 with the server's 1s hint",
			se.Code, se.RetryAfter)
	}
	if got := cl.Retries(); got != 1 {
		t.Errorf("Retries() = %d, want 1 (two attempts, both rejected)", got)
	}
	if rejected := counterVal(svc, "service_jobs_rejected_total"); rejected != 2 {
		t.Errorf("rejected counter = %d, want 2", rejected)
	}
	if _, err := cl.Status(context.Background(), "j99999999"); !errors.Is(err, client.ErrJobNotFound) {
		t.Errorf("unknown id err = %v, want ErrJobNotFound", err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- svc.Shutdown(context.Background()) }()
	awaitDraining(t, svc)
	one := client.New(ts.URL, client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
	_, err = one.SubmitGrid(context.Background(), client.Request{})
	if !errors.Is(err, client.ErrUnavailable) || !errors.As(err, &se) {
		t.Fatalf("draining submit err = %v, want ErrUnavailable from a StatusError", err)
	}
	if se.Code != http.StatusServiceUnavailable || se.RetryAfter != 5*time.Second {
		t.Errorf("draining submit: HTTP %d Retry-After %v, want 503 with 5s", se.Code, se.RetryAfter)
	}

	close(release)
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not complete after the held job was released")
	}
}
