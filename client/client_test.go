package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestClient wires a Client to handler with the backoff sleep
// replaced by a recorder, so tests observe the exact delay sequence
// without waiting it out.
func newTestClient(t *testing.T, handler http.Handler, opts ...Option) (*Client, *[]time.Duration) {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	c := New(srv.URL, opts...)
	var mu sync.Mutex
	slept := &[]time.Duration{}
	c.sleepFn = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*slept = append(*slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	return c, slept
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// envelope is the server's error body.
func envelope(code, msg string) map[string]string {
	return map[string]string{"code": code, "message": msg}
}

// TestSubmitRetriesQueueFull: 429s with Retry-After are retried, the
// server's hint overrides the computed backoff, and the eventual 202
// succeeds.
func TestSubmitRetriesQueueFull(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			writeJSON(w, http.StatusTooManyRequests, envelope("queue_full", "job queue is full"))
			return
		}
		writeJSON(w, http.StatusAccepted, Job{ID: "j1", Status: StatusQueued})
	})
	c, slept := newTestClient(t, mux)

	job, err := c.SubmitGrid(context.Background(), Request{Workloads: []string{"Hashmap"}})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "j1" || job.Status != StatusQueued {
		t.Fatalf("job = %+v", job)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d submits, want 3", got)
	}
	if c.Retries() != 2 {
		t.Fatalf("Retries() = %d, want 2", c.Retries())
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %v, want 2 delays", *slept)
	}
	for i, d := range *slept {
		if d != 3*time.Second {
			t.Errorf("delay %d = %v, want the Retry-After 3s", i, d)
		}
	}
}

// TestSubmitGivesUp: a server that always says 503 exhausts the retry
// budget and surfaces ErrUnavailable (and ErrQueueFull for 429).
func TestSubmitGivesUp(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, envelope("unavailable", "draining"))
	})
	c, _ := newTestClient(t, mux, WithRetryPolicy(RetryPolicy{MaxAttempts: 3}))

	_, err := c.SubmitGrid(context.Background(), Request{})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want a 503 StatusError in the chain", err)
	}
	if se.APICode != "unavailable" || se.Message != "draining" {
		t.Fatalf("StatusError = %+v, want the envelope's code and message", se)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d submits, want MaxAttempts=3", got)
	}
}

// TestBackoffDeterminism: two clients with the same seed compute the
// same jittered delay sequence; the sequence grows exponentially and
// caps at MaxDelay.
func TestBackoffDeterminism(t *testing.T) {
	policy := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond,
		Multiplier: 2, Jitter: 0.2, MaxAttempts: 6}
	a := New("127.0.0.1:0", WithSeed(42), WithRetryPolicy(policy))
	b := New("127.0.0.1:0", WithSeed(42), WithRetryPolicy(policy))
	for i := 0; i < 6; i++ {
		da, db := a.backoff(i), b.backoff(i)
		if da != db {
			t.Fatalf("attempt %d: %v vs %v — same seed must give same delays", i, da, db)
		}
		lo := time.Duration(float64(policy.BaseDelay) * 0.8 * pow2(i))
		hi := time.Duration(float64(policy.MaxDelay) * 1.2)
		if da < lo/1 && float64(da) < float64(policy.MaxDelay)*0.8 {
			t.Errorf("attempt %d: delay %v below jitter floor %v", i, da, lo)
		}
		if da > hi {
			t.Errorf("attempt %d: delay %v above MaxDelay+jitter %v", i, da, hi)
		}
	}
}

func pow2(n int) float64 {
	f := 1.0
	for i := 0; i < n; i++ {
		f *= 2
	}
	return f
}

// TestRunPollsToDone: Run submits, polls through queued → running →
// done, fetches the result bytes.
func TestRunPollsToDone(t *testing.T) {
	statuses := []Status{StatusQueued, StatusRunning, StatusDone}
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, Job{ID: "j7", Status: StatusQueued, QueuePosition: 1})
	})
	mux.HandleFunc("GET /v2/jobs/j7", func(w http.ResponseWriter, r *http.Request) {
		i := polls.Add(1) - 1
		if i >= int64(len(statuses)) {
			i = int64(len(statuses)) - 1
		}
		writeJSON(w, http.StatusOK, Job{ID: "j7", Status: statuses[i]})
	})
	mux.HandleFunc("GET /v2/jobs/j7/result", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`[{"workload":"Hashmap"}]`))
	})
	c, _ := newTestClient(t, mux)

	res, err := c.Run(context.Background(), Request{Workloads: []string{"Hashmap"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Bytes) != `[{"workload":"Hashmap"}]` {
		t.Fatalf("bytes = %q", res.Bytes)
	}
	if res.Job.Status != StatusDone {
		t.Fatalf("job = %+v", res.Job)
	}
}

// TestRunResubmitsFailedJob: a job that settles "failed" is
// resubmitted; the second submission succeeds and Run returns its
// result, counting one resubmit.
func TestRunResubmitsFailedJob(t *testing.T) {
	var submits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("j%d", submits.Add(1))
		writeJSON(w, http.StatusAccepted, Job{ID: id, Status: StatusQueued})
	})
	mux.HandleFunc("GET /v2/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Job{ID: "j1", Status: StatusFailed, Err: "injected panic"})
	})
	mux.HandleFunc("GET /v2/jobs/j2", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Job{ID: "j2", Status: StatusDone})
	})
	mux.HandleFunc("GET /v2/jobs/j2/result", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`[{"ok":true}]`))
	})
	c, _ := newTestClient(t, mux)

	res, err := c.Run(context.Background(), Request{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Bytes) != `[{"ok":true}]` {
		t.Fatalf("bytes = %q", res.Bytes)
	}
	if c.Resubmits() != 1 {
		t.Fatalf("Resubmits() = %d, want 1", c.Resubmits())
	}
}

// TestRunGivesUpOnPersistentFailure: jobs that always fail exhaust the
// resubmission budget and surface ErrJobFailed with the server cause.
func TestRunGivesUpOnPersistentFailure(t *testing.T) {
	var submits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, Job{ID: fmt.Sprintf("j%d", submits.Add(1)), Status: StatusQueued})
	})
	mux.HandleFunc("GET /v2/jobs/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Job{ID: "j", Status: StatusFailed, Err: "boom"})
	})
	c, _ := newTestClient(t, mux, WithRetryPolicy(RetryPolicy{MaxAttempts: 2}))

	_, err := c.Run(context.Background(), Request{})
	if !errors.Is(err, ErrJobFailed) {
		t.Fatalf("err = %v, want ErrJobFailed", err)
	}
	if got := submits.Load(); got != 2 {
		t.Fatalf("server saw %d submits, want MaxAttempts=2", got)
	}
	if c.Resubmits() != 1 {
		t.Fatalf("Resubmits() = %d, want 1", c.Resubmits())
	}
}

// TestStatusNotFound: an unknown job id matches ErrJobNotFound.
func TestStatusNotFound(t *testing.T) {
	notFound := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, envelope("not_found", "unknown job id"))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/jobs/nope", notFound)
	mux.HandleFunc("GET /v2/jobs/nope/result", notFound)
	c, _ := newTestClient(t, mux)

	if _, err := c.Status(context.Background(), "nope"); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("Status err = %v, want ErrJobNotFound", err)
	}
	if _, err := c.Result(context.Background(), "nope"); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("Result err = %v, want ErrJobNotFound", err)
	}
}

// TestStatusErrorRawBody: a non-envelope error body, such as a
// proxy's 502 page, surfaces verbatim as the message with no APICode.
func TestStatusErrorRawBody(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "<html>502 Bad Gateway</html>", http.StatusBadGateway)
	})
	c, _ := newTestClient(t, mux, WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))

	_, err := c.Status(context.Background(), "j1")
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a StatusError", err)
	}
	if se.Code != http.StatusBadGateway || se.Message != "<html>502 Bad Gateway</html>" || se.APICode != "" {
		t.Fatalf("StatusError = %+v, want the raw 502 body and no APICode", se)
	}
}

// TestResultNotDone: Result on an unsettled job matches ErrJobNotDone.
func TestResultNotDone(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/jobs/j1/result", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, Job{ID: "j1", Status: StatusRunning})
	})
	c, _ := newTestClient(t, mux)
	if _, err := c.Result(context.Background(), "j1"); !errors.Is(err, ErrJobNotDone) {
		t.Fatalf("err = %v, want ErrJobNotDone", err)
	}
}

// TestContextCancelPropagates: a cancelled context stops the retry
// loop immediately with the context's error, not a retry exhaustion.
func TestContextCancelPropagates(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusTooManyRequests, envelope("queue_full", "full"))
	})
	c, _ := newTestClient(t, mux)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.SubmitGrid(ctx, Request{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParseRetryAfter covers the seconds and HTTP-date forms.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("2"); d != 2*time.Second {
		t.Errorf("seconds form = %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("empty = %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Errorf("garbage = %v", d)
	}
	future := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 0 || d > 5*time.Second {
		t.Errorf("http-date form = %v", d)
	}
}
