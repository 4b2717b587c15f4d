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
	"dolos/internal/cluster"
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
// results, not a settled-job replay.
func TestV2StreamDelivery(t *testing.T) {
	svc := New(Config{
		Workers: 1, QueueDepth: 8,
		Faults: mustInjector(t, 1, "cell-latency:1:80ms"),
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

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

	sawRunningAfterFirst := false
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
			if js, err := cl.Status(ctx, job.ID); err == nil && js.Status == client.StatusRunning {
				sawRunningAfterFirst = true
			}
		}
	}
	if !sawRunningAfterFirst {
		t.Error("first cell did not arrive while the job was still running — stream is not partial")
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

// TestV2QuotaEnforced: a tenant over its token bucket gets 429 with
// the quota_exceeded envelope code and a Retry-After; other tenants
// are unaffected; the audit trail attributes every accepted
// submission to its tenant.
func TestV2QuotaEnforced(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := New(Config{
		Workers: 2, QueueDepth: 8, Store: st,
		Quotas: map[string]Quota{"acme": {Rate: 0.001, Burst: 2}},
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	post := func(tenant string, seed int) (*http.Response, []byte) {
		body := fmt.Sprintf(`{"transactions":30,"seed":%d}`, seed)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/jobs", strings.NewReader(body))
		req.Header.Set("X-Dolos-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	for i := 0; i < 2; i++ {
		if resp, b := post("acme", i+1); resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d within burst: HTTP %d: %s", i, resp.StatusCode, b)
		}
	}
	resp, b := post("acme", 3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission: HTTP %d, want 429", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(b, &env); err != nil || env.Code != CodeQuotaExceeded || env.RetryAfter < 1 {
		t.Fatalf("over-quota envelope %s (err %v), want code %q with retry_after", b, err, CodeQuotaExceeded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("over-quota response missing Retry-After header")
	}
	if resp, _ := post("other", 4); resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("unquota'd tenant rejected: HTTP %d", resp.StatusCode)
	}
	if v := counterVal(svc, "service_quota_rejected_total"); v != 1 {
		t.Errorf("service_quota_rejected_total = %d, want 1", v)
	}

	// The audit trail holds the three accepted submissions with their
	// tenants (the rejected one never reached the store).
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

// swapHandler lets a cluster node's URL exist before its server does.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "not up", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// clusterNode is one in-process dolos-serve node for cluster tests.
type clusterNode struct {
	svc  *Server
	ring *cluster.Cluster
	ts   *httptest.Server
}

// startCluster wires n in-process nodes into one ring.
func startCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	nodes := make([]*clusterNode, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		nodes[i] = &clusterNode{ts: ts}
	}
	for i := range nodes {
		peers := map[string]string{}
		for j := range nodes {
			if j != i {
				peers[fmt.Sprintf("n%d", j+1)] = urls[j]
			}
		}
		reg := telemetry.NewRegistry()
		ring, err := cluster.New(cluster.Config{SelfID: fmt.Sprintf("n%d", i+1), Peers: peers, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Config{Workers: 2, QueueDepth: 16, Cluster: ring, Registry: reg})
		nodes[i].svc, nodes[i].ring = svc, ring
		swaps[i].set(svc.Handler())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
			ring.Close()
		})
	}
	return nodes
}

// TestClusterGridByteIdentical: a grid submitted to a 3-node cluster
// is sharded by cell key, deduplicated cluster-wide (total simulations
// == cells), forwarded exactly as the ring dictates, and produces
// deterministic fields byte-identical to a single-node run.
func TestClusterGridByteIdentical(t *testing.T) {
	nodes := startCluster(t, 3)
	ctx := context.Background()
	req := client.Request{
		Workloads: []string{"Hashmap", "Btree"}, Schemes: []string{"baseline", "dolos-partial"},
		Transactions: 30,
	}

	// Expected routing, computed from the same ring the coordinator uses.
	n, err := normalize(Request{
		Workloads: req.Workloads, Schemes: req.Schemes, Transactions: req.Transactions,
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	remote := 0
	for i := 0; i < 4; i++ {
		if nodes[0].ring.OwnerOf(n.cellRequest(i).Key()) != "n1" {
			remote++
		}
	}

	cl := client.New(nodes[0].ts.URL).V2()
	job, err := cl.SubmitGrid(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ctx, cl, job.ID)
	got, err := cl.Result(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}

	single := New(Config{Workers: 2, QueueDepth: 8})
	tsS := httptest.NewServer(single.Handler())
	defer tsS.Close()
	defer single.Shutdown(ctx)
	clS := client.New(tsS.URL).V2()
	jobS, err := clS.SubmitGrid(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ctx, clS, jobS.ID)
	want, err := clS.Result(ctx, jobS.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizeGridHostFields(t, got), normalizeGridHostFields(t, want)) {
		t.Error("cluster grid differs from single-node grid on deterministic fields")
	}

	var sims, forwarded uint64
	for _, nd := range nodes {
		sims += counterVal(nd.svc, "service_sims_executed_total")
		forwarded += nd.svc.Registry().Counter("cluster_cells_forwarded_total").Value()
	}
	if sims != 4 {
		t.Errorf("cluster executed %d simulations for a 4-cell grid, want exactly 4", sims)
	}
	if forwarded != uint64(remote) {
		t.Errorf("cluster forwarded %d cells, ring owns %d remotely", forwarded, remote)
	}
}

// TestClusterDeadOwnerFallsBackLocal: with a peer gone (its listener
// closed — the in-process stand-in for SIGKILL), the coordinator's
// forwards fail, the node is marked down, and the grid still completes
// locally with byte-identical deterministic fields and zero lost or
// doubled cells.
func TestClusterDeadOwnerFallsBackLocal(t *testing.T) {
	nodes := startCluster(t, 3)
	ctx := context.Background()
	// Kill n2 outright before the submission: every cell it owns now
	// fails its first forward and must fall back.
	nodes[1].ts.Close()

	req := client.Request{
		Workloads: []string{"Hashmap", "Btree"}, Schemes: []string{"baseline", "dolos-partial"},
		Transactions: 30, Seed: 7,
	}
	cl := client.New(nodes[0].ts.URL).V2()
	job, err := cl.SubmitGrid(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ctx, cl, job.ID)
	got, err := cl.Result(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}

	single := New(Config{Workers: 2, QueueDepth: 8})
	tsS := httptest.NewServer(single.Handler())
	defer tsS.Close()
	defer single.Shutdown(ctx)
	clS := client.New(tsS.URL).V2()
	jobS, err := clS.SubmitGrid(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ctx, clS, jobS.ID)
	want, err := clS.Result(ctx, jobS.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizeGridHostFields(t, got), normalizeGridHostFields(t, want)) {
		t.Error("grid under a dead peer differs from single-node run on deterministic fields")
	}
	// Cluster-wide exactly-once still holds among the survivors.
	sims := counterVal(nodes[0].svc, "service_sims_executed_total") +
		counterVal(nodes[2].svc, "service_sims_executed_total")
	if sims != 4 {
		t.Errorf("survivors executed %d simulations for a 4-cell grid, want 4", sims)
	}
	// The /v2/cluster view from n1 reflects the dead node iff a forward
	// actually targeted it; either way the endpoint answers.
	info, err := cl.ClusterInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Self != "n1" || len(info.Nodes) != 3 {
		t.Fatalf("cluster info %+v", info)
	}
}

// TestParseQuotas covers the -tenant-quotas flag syntax.
func TestParseQuotas(t *testing.T) {
	q, err := ParseQuotas("acme:5,*:100:200")
	if err != nil {
		t.Fatal(err)
	}
	if q["acme"] != (Quota{Rate: 5, Burst: 5}) || q["*"] != (Quota{Rate: 100, Burst: 200}) {
		t.Errorf("parsed %+v", q)
	}
	if q, err := ParseQuotas(""); err != nil || q != nil {
		t.Errorf("empty spec: %v %v", q, err)
	}
	for _, bad := range []string{"acme", "acme:0", "acme:-1", ":5", "acme:5:x", "a:b"} {
		if _, err := ParseQuotas(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
