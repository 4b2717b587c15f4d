package service

import (
	"bufio"
	"context"
	"encoding/json"
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
	"dolos/internal/telemetry"
)

// TestV2StreamDelivery: a grid submitted over /v2 streams every cell
// exactly once, in enumeration order, with parseable RunRecords, and
// terminates with a done event (io.EOF from the client iterator). The
// cells must start arriving while the job is still running — partial
// results, not a settled-job replay: the job is held after cell 0 is
// broadcast until the test has seen it running.
func TestV2StreamDelivery(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8})
	seenRunning := make(chan struct{})
	svc.hookCell = func(_ *Job, i int) {
		if i == 0 {
			<-seenRunning
		}
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(seenRunning) }) }
	defer release() // runs before Shutdown even when the test fails early

	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job, err := cl.SubmitGrid(ctx, client.Request{
		Workloads: []string{"Hashmap", "Btree"}, Schemes: []string{"baseline", "dolos-partial"},
		Transactions: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.Cells != 4 {
		t.Fatalf("job.Cells = %d, want 4", job.Cells)
	}
	st, err := cl.Stream(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for i := 0; ; i++ {
		ev, err := st.Next()
		if errors.Is(err, io.EOF) {
			if i != 4 {
				t.Fatalf("stream ended after %d cells, want 4", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Index != i || ev.Total != 4 {
			t.Fatalf("event %d: index %d total %d", i, ev.Index, ev.Total)
		}
		var rec telemetry.RunRecord
		if err := json.Unmarshal(ev.Record, &rec); err != nil {
			t.Fatalf("cell %d record does not parse: %v", i, err)
		}
		if rec.Workload == "" || rec.Scheme == "" {
			t.Fatalf("cell %d record missing identity: %+v", i, rec)
		}
		if i == 0 {
			if js, err := cl.Status(ctx, job.ID); err != nil || js.Status != client.StatusRunning {
				t.Errorf("status after cell 0 = %+v (err %v), want running — stream is not partial", js, err)
			}
			release()
		}
	}
	if js, err := cl.Status(ctx, job.ID); err != nil || js.Status != client.StatusDone || js.CellsDone != 4 {
		t.Fatalf("final status %+v, err %v", js, err)
	}
	if ev := counterVal(svc, "service_stream_events_total"); ev != 4 {
		t.Errorf("service_stream_events_total = %d, want 4", ev)
	}
}

// TestV2StreamResume: reconnecting with Last-Event-ID k replays only
// cells k..n-1 plus the terminal event — on the raw SSE wire, exactly
// the contract the client iterator's reconnect relies on.
func TestV2StreamResume(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	cl := client.New(ts.URL)
	ctx := context.Background()
	job, err := cl.SubmitGrid(ctx, client.Request{
		Workloads: []string{"Hashmap", "Btree"}, Schemes: []string{"baseline", "dolos-partial"},
		Transactions: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Result(waitDone(t, ctx, cl, job.ID), job.ID); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/jobs/"+job.ID+"/stream", nil)
	req.Header.Set("Last-Event-ID", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	var ids []string
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			ids = append(ids, strings.TrimPrefix(line, "id: "))
		}
		if strings.HasPrefix(line, "event: ") {
			kinds = append(kinds, strings.TrimPrefix(line, "event: "))
		}
	}
	if want := []string{"3", "4"}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("replayed ids %v, want %v (cells 2 and 3)", ids, want)
	}
	if want := []string{"cell", "cell", "done"}; fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("replayed events %v, want %v", kinds, want)
	}

	// A resume point that is not a non-negative integer is a 400, not a
	// silent replay from cell 0.
	for _, rc := range []struct{ header, query string }{
		{header: "abc"},
		{header: "-1"},
		{header: "2.5"},
		{query: "abc"},
		{query: "-3"},
	} {
		url := ts.URL + "/v2/jobs/" + job.ID + "/stream"
		if rc.query != "" {
			url += "?last_event_id=" + rc.query
		}
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if rc.header != "" {
			req.Header.Set("Last-Event-ID", rc.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || env.Code != CodeBadRequest {
			t.Errorf("resume %+v: HTTP %d envelope %+v (decode err %v), want 400 %q",
				rc, resp.StatusCode, env, derr, CodeBadRequest)
		}
	}
}

// TestV2StreamCacheHit: a job that settles from the result cache still
// streams every cell, in order, with records byte-identical to the
// ones the computing job streamed. It speaks the raw HTTP wire.
func TestV2StreamCacheHit(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	const body = `{"workloads":["Hashmap","Btree"],"schemes":["baseline","dolos-partial"],"transactions":30}`
	// records reads a job's SSE stream to its terminal event and returns
	// the cell records in arrival order.
	records := func(id string) []string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v2/jobs/" + id + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var recs []string
		kind := ""
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && kind == "cell":
				var ev struct {
					Index  int             `json:"index"`
					Total  int             `json:"total"`
					Record json.RawMessage `json:"record"`
				}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					t.Fatalf("job %s: malformed cell event: %v", id, err)
				}
				if ev.Index != len(recs) || ev.Total != 4 {
					t.Fatalf("job %s event %d: index %d total %d", id, len(recs), ev.Index, ev.Total)
				}
				recs = append(recs, string(ev.Record))
			case strings.HasPrefix(line, "data: ") && kind != "done":
				t.Fatalf("job %s: terminal %q event: %s", id, kind, line)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if kind != "done" {
			t.Fatalf("job %s: stream ended on %q, want done", id, kind)
		}
		return recs
	}

	first, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit HTTP %d", code)
	}
	want := records(first.ID)
	if len(want) != 4 {
		t.Fatalf("computing job streamed %d cells, want 4", len(want))
	}

	second, code := postJob(t, ts, body)
	if code != http.StatusOK || !second.Cached || second.Status != StatusDone {
		t.Fatalf("resubmitted grid: HTTP %d status %s cached %t, want a done cache hit",
			code, second.Status, second.Cached)
	}
	got := records(second.ID)
	if len(got) != len(want) {
		t.Fatalf("cache-hit job streamed %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: cache-hit record differs from the computed one:\n%s\nvs\n%s", i, got[i], want[i])
		}
	}
}

// waitDone polls a job to done and returns the ctx (helper for tests
// that only need settlement).
func waitDone(t *testing.T, ctx context.Context, cl *client.Client, id string) context.Context {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		js, err := cl.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if js.Status == client.StatusDone {
			return ctx
		}
		if js.Status == client.StatusFailed {
			t.Fatalf("job failed: %s", js.Err)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not settle in 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobIDsUniqueAcrossRestarts: a server keeps its jobs in memory
// only, so a restart forgets them. Two servers built one after the
// other must hand out different first ids, and the first server's id
// must answer 404 (client.ErrJobNotFound) on the second, never another
// request's job.
func TestJobIDsUniqueAcrossRestarts(t *testing.T) {
	ctx := context.Background()
	req := client.Request{Workloads: []string{"Hashmap"}, Transactions: 30}

	a := New(Config{Workers: 1, QueueDepth: 4})
	tsA := httptest.NewServer(a.Handler())
	jobA, err := client.New(tsA.URL).SubmitGrid(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	b := New(Config{Workers: 1, QueueDepth: 4})
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	defer b.Shutdown(ctx)
	clB := client.New(tsB.URL)
	jobB, err := clB.SubmitGrid(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if jobA.ID == jobB.ID {
		t.Fatalf("both incarnations gave first id %q", jobA.ID)
	}
	if _, err := clB.Status(ctx, jobA.ID); !errors.Is(err, client.ErrJobNotFound) {
		t.Errorf("old id %s on the new server: err = %v, want ErrJobNotFound", jobA.ID, err)
	}
	if _, err := clB.Result(ctx, jobA.ID); !errors.Is(err, client.ErrJobNotFound) {
		t.Errorf("old id %s result on the new server: err = %v, want ErrJobNotFound", jobA.ID, err)
	}
}
