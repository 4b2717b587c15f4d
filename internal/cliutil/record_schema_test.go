package cliutil

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/core"
	"dolos/internal/telemetry"
)

// TestRunRecordSchemaPinned pins the exact top-level field set of the
// JSON emitted by BuildRunRecord + telemetry.WriteJSON — the shared
// shape behind dolos-sim -json, the benchmark's reference records and
// the service's /v2/jobs/{id}/result endpoint. Adding, renaming or
// dropping a field must show up as a deliberate edit to this list.
func TestRunRecordSchemaPinned(t *testing.T) {
	r := core.NewRunner(core.Options{Transactions: 60, Seed: 1, Parallelism: 1})
	spec := core.Spec{Scheme: controller.DolosPartial}
	rr, err := r.RunCell(context.Background(), "Hashmap", spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := BuildRunRecord(rr.Result, spec.Tree, 1024, 1, rr.Events, rr.Wall, rr.Stats, nil)

	var buf bytes.Buffer
	if err := telemetry.WriteJSON(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not a JSON object: %v", err)
	}

	want := []string{
		"scheme", "workload", "tree", "transactions", "tx_size", "seed",
		"ops", "cycles", "cycles_per_tx", "cpi", "fence_stall_cycles",
		"write_requests", "retry_events", "retry_per_kwr", "wpq_read_hits",
		"mem_reads", "mean_interarrival_cycles", "wpq_mean_occupancy",
		"median_tx_cycles", "p99_tx_cycles",
		"wall_seconds", "events_processed", "sim_events_per_sec",
		"metrics",
	}
	got := make([]string, 0, len(decoded))
	for k := range decoded {
		got = append(got, k)
	}
	sort.Strings(got)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	if len(got) != len(sorted) {
		t.Fatalf("field set changed:\ngot  %v\nwant %v", got, sorted)
	}
	for i := range sorted {
		if got[i] != sorted[i] {
			t.Fatalf("field set changed:\ngot  %v\nwant %v", got, sorted)
		}
	}

	// The nested metrics snapshot always carries counters and histograms
	// (gauges is omitempty); downstream parsers rely on both being
	// present even when empty.
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(decoded["metrics"], &metrics); err != nil {
		t.Fatalf("metrics is not an object: %v", err)
	}
	for _, k := range []string{"counters", "histograms"} {
		if _, ok := metrics[k]; !ok {
			t.Errorf("metrics snapshot missing %q", k)
		}
	}

	// Identity fields survive the trip; a scheme label regression here
	// would silently corrupt every downstream consumer keyed on it.
	var head struct {
		Scheme       string `json:"scheme"`
		Workload     string `json:"workload"`
		Transactions int    `json:"transactions"`
	}
	if err := json.Unmarshal(buf.Bytes(), &head); err != nil {
		t.Fatal(err)
	}
	if head.Scheme != "Dolos-Partial-WPQ" || head.Workload != "Hashmap" || head.Transactions != rec.Transactions {
		t.Errorf("identity fields = %+v", head)
	}
}

// TestRunRecordSchemaRecoveryAxis: recovery_cycles is omitempty — absent
// from every legacy record (which is what keeps the schema pin above and
// the committed bench baseline unchanged) and present, non-zero and
// deterministic for a related-work scheme that models recovery.
func TestRunRecordSchemaRecoveryAxis(t *testing.T) {
	r := core.NewRunner(core.Options{Transactions: 60, Seed: 1, Parallelism: 1})
	spec := core.Spec{Scheme: controller.TriadNVM}
	rr, err := r.RunCell(context.Background(), "Hashmap", spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := BuildRunRecord(rr.Result, spec.Tree, 1024, 1, rr.Events, rr.Wall, rr.Stats, nil)

	var buf bytes.Buffer
	if err := telemetry.WriteJSON(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		RecoveryCycles uint64 `json:"recovery_cycles"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.RecoveryCycles == 0 {
		t.Fatalf("recovery_cycles missing or zero for %v", spec.Scheme)
	}
	if decoded.RecoveryCycles != rec.RecoveryCycles {
		t.Fatalf("recovery_cycles %d != record %d", decoded.RecoveryCycles, rec.RecoveryCycles)
	}
}

// TestRunRecordSchemaMultiCore pins the extended field set of a
// multi-core record: the single-core list above plus the mcore axes.
// All four are omitempty, which is what keeps the single-core pin (and
// the committed bench baseline) unchanged — this test is the proof the
// multi-core shape and the per-core sub-record stay deliberate too.
func TestRunRecordSchemaMultiCore(t *testing.T) {
	r := core.NewRunner(core.Options{Transactions: 30, Seed: 1, Parallelism: 1})
	spec := core.Spec{Scheme: controller.DolosPartial, Cores: 2, OoOWindow: 2}
	rr, err := r.RunCell(context.Background(), "Hashmap", spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := BuildRunRecord(rr.Result, spec.Tree, 1024, 1, rr.Events, rr.Wall, rr.Stats, nil)

	var buf bytes.Buffer
	if err := telemetry.WriteJSON(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not a JSON object: %v", err)
	}
	for _, k := range []string{"cores", "ooo_window", "per_core"} {
		if _, ok := decoded[k]; !ok {
			t.Errorf("multi-core record missing %q", k)
		}
	}
	// "prefetches" is omitempty and may legitimately be 0 for a trace
	// with no confirmed strides; presence is not pinned.

	var perCore []map[string]json.RawMessage
	if err := json.Unmarshal(decoded["per_core"], &perCore); err != nil {
		t.Fatalf("per_core is not an array of objects: %v", err)
	}
	if len(perCore) != 2 {
		t.Fatalf("per_core has %d entries, want 2", len(perCore))
	}
	for _, k := range []string{
		"core", "workload", "cycles", "transactions", "fence_stall_cycles",
		"accepted_persists", "arb_grants", "arb_wait_cycles",
	} {
		if _, ok := perCore[1][k]; !ok {
			t.Errorf("per_core entry missing %q", k)
		}
	}
}
