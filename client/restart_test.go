package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dolos/internal/service"
)

// swappable serves every request through the handler stored last, so a
// test can restart the server behind a live client.
type swappable struct{ h atomic.Pointer[http.Handler] }

func (s *swappable) set(h http.Handler) { s.h.Store(&h) }

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// newService starts a real dolos-serve service and shuts it down with
// the test.
func newService(t *testing.T) *service.Server {
	t.Helper()
	svc := service.New(service.Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	return svc
}

// deterministic drops the two host-timing fields (wall_seconds and the
// derived sim_events_per_sec) from a result document, one record or an
// array of them, and re-encodes it; every other field is a pure
// function of the request.
func deterministic(t *testing.T, doc []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("result is not JSON: %v\n%s", err, doc)
	}
	recs, ok := v.([]any)
	if !ok {
		recs = []any{v}
	}
	for _, r := range recs {
		m, ok := r.(map[string]any)
		if !ok {
			t.Fatalf("record is not an object: %s", doc)
		}
		delete(m, "wall_seconds")
		delete(m, "sim_events_per_sec")
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunResubmitsForgottenJob: the server restarts while Run polls its
// job, so the poll answers 404. Run resubmits to the new server within
// its attempt budget and returns the same records the old server
// computed for the request.
func TestRunResubmitsForgottenJob(t *testing.T) {
	ctx := context.Background()
	req := Request{Workloads: []string{"Hashmap"}, Schemes: []string{"baseline", "dolos-partial"}, Transactions: 30}
	oldSvc, newSvc := newService(t), newService(t)
	oldH, newH := oldSvc.Handler(), newSvc.Handler()

	var sw swappable
	var restarted atomic.Bool
	sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && restarted.CompareAndSwap(false, true) {
			// Run's first status poll: the server restarted since the
			// submission, and the new one never saw the job.
			sw.set(newH)
			newH.ServeHTTP(w, r)
			return
		}
		oldH.ServeHTTP(w, r)
	}))
	ts := httptest.NewServer(&sw)
	defer ts.Close()

	c := New(ts.URL, WithPollInterval(time.Millisecond),
		WithRetryPolicy(RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}))
	res, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("Run across a restart: %v", err)
	}
	if !restarted.Load() {
		t.Fatal("Run never polled, so the restart was not exercised")
	}
	if got := c.Resubmits(); got < 1 {
		t.Errorf("Resubmits() = %d, want >= 1", got)
	}

	// The old server still finishes the forgotten job; its records are
	// the new server's, host timings aside.
	tsOld := httptest.NewServer(oldH)
	defer tsOld.Close()
	want, err := New(tsOld.URL, WithPollInterval(time.Millisecond)).Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(deterministic(t, res.Bytes), deterministic(t, want.Bytes)) {
		t.Errorf("resubmitted result differs from the forgotten job's\n got: %s\nwant: %s", res.Bytes, want.Bytes)
	}
}

// firstEvent passes a response through up to the end of its first SSE
// event and drops the rest, so the client sees the connection end
// after one cell.
type firstEvent struct {
	http.ResponseWriter
	cut bool
}

func (w *firstEvent) Write(p []byte) (int, error) {
	if w.cut {
		return len(p), nil
	}
	if i := bytes.Index(p, []byte("\n\n")); i >= 0 {
		w.cut = true
		_, err := w.ResponseWriter.Write(p[:i+2])
		return len(p), err
	}
	return w.ResponseWriter.Write(p)
}

func (w *firstEvent) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestStreamForgottenJobNotFound: a stream's connection drops after one
// cell and its reconnect reaches a restarted server, which does not
// know the job. Next returns ErrJobNotFound on that one reconnect and
// does not spend the rest of its retry budget on it.
func TestStreamForgottenJobNotFound(t *testing.T) {
	ctx := context.Background()
	oldH, newH := newService(t).Handler(), newService(t).Handler()
	var sw swappable
	sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			w = &firstEvent{ResponseWriter: w}
		}
		oldH.ServeHTTP(w, r)
	}))
	ts := httptest.NewServer(&sw)
	defer ts.Close()

	c := New(ts.URL, WithPollInterval(time.Millisecond),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}))
	req := Request{Workloads: []string{"Hashmap"}, Schemes: []string{"baseline", "dolos-partial"}, Transactions: 30}
	done, err := c.Run(ctx, req) // settle it, so the stream replays
	if err != nil {
		t.Fatal(err)
	}
	stm, err := c.Stream(ctx, done.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stm.Close()
	if ev, err := stm.Next(); err != nil || ev.Index != 0 {
		t.Fatalf("first Next = %+v, %v; want cell 0", ev, err)
	}

	sw.set(newH) // the restart
	before := c.Retries()
	_, err = stm.Next()
	if !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("Next after the restart: err = %v, want ErrJobNotFound", err)
	}
	if got := c.Retries() - before; got != 1 {
		t.Errorf("Next made %d reconnects, want 1 (404 is not retried)", got)
	}
	if stm.Delivered() != 1 {
		t.Errorf("Delivered() = %d, want 1", stm.Delivered())
	}
}
