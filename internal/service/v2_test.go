package service

import (
	"bufio"
	"bytes"
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
	"dolos/internal/store"
	"dolos/internal/telemetry"
)

// normalizeGridHostFields zeroes the host-timing fields of every
// record in a grid result and re-encodes, so byte comparison covers
// every deterministic field (see normalizeHostFields for one record).
func normalizeGridHostFields(t *testing.T, gridJSON []byte) []byte {
	t.Helper()
	var recs []telemetry.RunRecord
	if err := json.Unmarshal(gridJSON, &recs); err != nil {
		t.Fatalf("result is not a RunRecord array: %v\n%s", err, gridJSON)
	}
	for i := range recs {
		recs[i].WallSeconds = 0
		recs[i].EventsPerSecond = 0
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

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

	cl := client.New(ts.URL).V2()
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

	cl := client.New(ts.URL).V2()
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

// waitDone polls a job to done and returns the ctx (helper for tests
// that only need settlement).
func waitDone(t *testing.T, ctx context.Context, cl *client.V2Client, id string) context.Context {
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

// TestV2AuditAttributesTenants: submissions carrying X-Dolos-Tenant
// (or none, which is "default") are attributed to their tenant in the
// store-backed audit trail, one complete entry per submission.
func TestV2AuditAttributesTenants(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := New(Config{Workers: 2, QueueDepth: 8, Store: st})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	for i, tenant := range []string{"acme", "acme", "other"} {
		body := fmt.Sprintf(`{"transactions":30,"seed":%d}`, i+1)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/jobs", strings.NewReader(body))
		req.Header.Set("X-Dolos-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d (%s): HTTP %d: %s", i, tenant, resp.StatusCode, b)
		}
	}

	aresp, err := http.Get(ts.URL + "/v2/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	var audit AuditResponse
	if err := json.NewDecoder(aresp.Body).Decode(&audit); err != nil {
		t.Fatal(err)
	}
	if len(audit.Entries) != 3 {
		t.Fatalf("audit has %d entries, want 3: %+v", len(audit.Entries), audit.Entries)
	}
	tenants := map[string]int{}
	for _, e := range audit.Entries {
		tenants[e.Tenant]++
		if e.JobID == "" || e.Key == "" || e.At.IsZero() {
			t.Errorf("incomplete audit entry: %+v", e)
		}
	}
	if tenants["acme"] != 2 || tenants["other"] != 1 {
		t.Errorf("audit tenants %v, want acme:2 other:1", tenants)
	}
}

// TestStoreRecoverySettled: a restarted server answers for jobs the
// previous incarnation completed — status, result bytes, stream replay
// — without re-executing a single simulation, and a resubmission of
// the same request is a warm cache hit.
func TestStoreRecoverySettled(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 2, QueueDepth: 8, Store: st})
	ts := httptest.NewServer(svc.Handler())
	cl := client.New(ts.URL).V2()
	ctx := context.Background()

	req := client.Request{
		Workloads: []string{"Hashmap", "Btree"}, Schemes: []string{"baseline", "dolos-partial"},
		Transactions: 30,
	}
	job, err := cl.SubmitGrid(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ctx, cl, job.ID)
	result1, err := cl.Result(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2 := New(Config{Workers: 2, QueueDepth: 8, Store: st2})
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	defer svc2.Shutdown(ctx)
	cl2 := client.New(ts2.URL).V2()

	js, err := cl2.Status(ctx, job.ID)
	if err != nil || js.Status != client.StatusDone || js.CellsDone != 4 {
		t.Fatalf("recovered status %+v, err %v", js, err)
	}
	result2, err := cl2.Result(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result1, result2) {
		t.Error("recovered result bytes differ from the original — not even host timings may change on replay")
	}
	// Stream replay from the recovered store: all 4 cells + done.
	stm, err := cl2.Stream(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stm.Close()
	n := 0
	for {
		_, err := stm.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Fatalf("recovered stream replayed %d cells, want 4", n)
	}
	// Nothing was simulated; the resubmission is a cache hit.
	job2, err := cl2.SubmitGrid(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !job2.Cached || job2.Status != client.StatusDone {
		t.Errorf("resubmission after recovery not a cache hit: %+v", job2)
	}
	if sims := counterVal(svc2, "service_sims_executed_total"); sims != 0 {
		t.Errorf("recovered server executed %d simulations, want 0", sims)
	}
}

// TestStoreRecoveryMidGrid simulates the SIGKILL-mid-grid crash: a
// store holding a submit record and the first cell's completion but no
// terminal record — exactly what a kill between cell appends leaves
// behind. The restarted server must finish the job executing ONLY the
// missing cells (no lost job, no double execution) and produce a
// result whose deterministic fields are byte-identical to an
// uninterrupted run.
func TestStoreRecoveryMidGrid(t *testing.T) {
	// Reference run: the same grid on a plain server.
	ref := New(Config{Workers: 2, QueueDepth: 8})
	tsRef := httptest.NewServer(ref.Handler())
	defer tsRef.Close()
	defer ref.Shutdown(context.Background())
	ctx := context.Background()
	req := client.Request{
		Workloads: []string{"Hashmap"}, Schemes: []string{"baseline", "dolos-partial"},
		Transactions: 30,
	}
	clRef := client.New(tsRef.URL).V2()
	jobRef, err := clRef.SubmitGrid(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ctx, clRef, jobRef.ID)
	wantBytes, err := clRef.Result(ctx, jobRef.ID)
	if err != nil {
		t.Fatal(err)
	}
	refRecs, err := splitRecords(wantBytes, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Forge the crash wreckage: submit + cell 0 durable, cell 1 and the
	// terminal record lost with the process.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := normalize(Request{
		Workloads: req.Workloads, Schemes: req.Schemes, Transactions: req.Transactions,
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	reqJSON, _ := json.Marshal(n)
	if err := st.AppendSubmit(store.JobRecord{
		ID: "j00000001", Seq: 1, Key: n.Key(), Tenant: "crashed", Req: reqJSON, At: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCell("j00000001", 0, 2, refRecs[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc := New(Config{Workers: 2, QueueDepth: 8, Store: st2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(ctx)
	cl := client.New(ts.URL).V2()

	if v := counterVal(svc, "service_jobs_recovered_total"); v != 1 {
		t.Fatalf("service_jobs_recovered_total = %d, want 1", v)
	}
	waitDone(t, ctx, cl, "j00000001")
	got, err := cl.Result(ctx, "j00000001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizeGridHostFields(t, got), normalizeGridHostFields(t, wantBytes)) {
		t.Error("resumed grid differs from the uninterrupted run on deterministic fields")
	}
	if sims := counterVal(svc, "service_sims_executed_total"); sims != 1 {
		t.Errorf("resumed job executed %d simulations, want exactly the 1 missing cell", sims)
	}
}
