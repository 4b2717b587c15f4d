package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dolos/internal/cliutil"
	"dolos/internal/controller"
	"dolos/internal/core"
	"dolos/internal/cpu"
	"dolos/internal/telemetry"
	"dolos/internal/whisper"
)

// An out-of-range -txns is rejected by name instead of being silently
// misread (-txns 0 used to run the default 1024 transactions), and so is
// a -txsize, -wpq or -cores of 0 (-wpq 0 would run 16 entries). The
// model's bounds on those flags are core's TestCheckCell rows: run exits
// 2 on any CheckCell error, as TestCheckHeap shows for the heap.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		txns, txSize, wpq, cores int
		bad                      string // flag named in the error, "" = accepted
	}{
		{1000, 1024, 16, 1, ""},
		{1, 64, 1, 4, ""},
		{20000, 4096, 1024, 1, ""},
		{1000, 1024, 16, 64, ""},
		{0, 1024, 16, 1, "-txns"},
		{-5, 1024, 16, 1, "-txns"},
		{20001, 1024, 16, 1, "-txns"},
		{1000, 0, 16, 1, "-txsize"},
		{1000, 1024, 0, 1, "-wpq"},
		{1000, 1024, 16, 0, "-cores"},
	} {
		err := checkFlags(c.txns, c.txSize, c.wpq, c.cores)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), c.bad+" ")):
			t.Errorf("%+v: error %v, want one naming %s", c, err, c.bad)
		}
	}
}

// Runs whose trace could overflow the workload's persistent heap exit 2
// before generation: Hashmap, Btree and Redis at 20,000 transactions of
// 4 KB used to panic with heap exhausted. A second core's heap is
// checked as well.
func TestCheckHeap(t *testing.T) {
	for _, c := range []struct {
		workload     string
		txns, txSize int
		cores        int
		code         int
	}{
		{"Hashmap", 20000, 4096, 1, 2},
		{"Btree", 20000, 4096, 1, 2},
		{"Redis", 20000, 4096, 2, 2},
		{"Hashmap", 1, 4096, 1, 0},
	} {
		var out, errb strings.Builder
		code := run(config{
			workload: c.workload,
			opts:     core.Options{Transactions: c.txns, Seed: 1},
			spec:     core.Spec{Scheme: controller.DolosPartial, TxSize: c.txSize, Cores: c.cores},
			json:     true,
		}, &out, &errb)
		if code != c.code {
			t.Errorf("%+v: exit %d, want %d (stderr %q)", c, code, c.code, errb.String())
		}
		if c.code == 2 && !strings.Contains(errb.String(), fmt.Sprintf("txns %d with txsize %d", c.txns, c.txSize)) {
			t.Errorf("%+v: stderr %q, want the heap error naming txns and txsize", c, errb.String())
		}
	}
}

// simRecord runs c with -json and decodes its record.
func simRecord(t *testing.T, c config) telemetry.RunRecord {
	t.Helper()
	c.json = true
	var out, errb strings.Builder
	if code := run(c, &out, &errb); code != 0 {
		t.Fatalf("%+v: exit %d: %s", c, code, errb.String())
	}
	var rec telemetry.RunRecord
	if err := json.Unmarshal([]byte(out.String()), &rec); err != nil {
		t.Fatalf("%+v: decoding the record: %v", c, err)
	}
	return rec
}

// runCases are the cells the run-path tests drive: one core in order,
// and two contending cores at OoO window 2.
var runCases = []config{
	{workload: "Hashmap", opts: core.Options{Transactions: 50, Seed: 1},
		spec: core.Spec{Scheme: controller.DolosPartial, TxSize: 1024, HardwareWPQ: 16}},
	{workload: "Hashmap", opts: core.Options{Transactions: 50, Seed: 1},
		spec: core.Spec{Scheme: controller.PreWPQSecure, TxSize: 1024, HardwareWPQ: 16, Cores: 2, OoOWindow: 2}},
}

// A -json run reports the record core.Runner.RunCell gives for the same
// cell: dolos-sim builds its cell through the runner.
func TestRunMatchesRunner(t *testing.T) {
	for _, c := range runCases {
		got := simRecord(t, c)
		r := core.NewRunner(c.opts)
		rr, err := r.RunCell(context.Background(), c.workload, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		want := cliutil.BuildRunRecord(rr.Result, c.spec.EffectiveTree(), c.spec.TxSize, r.Options().Seed,
			rr.Events, rr.Wall, rr.Stats, nil)
		if d := cliutil.CompareBenchRecords([]telemetry.RunRecord{got}, []telemetry.RunRecord{want}); !d.Identical() {
			t.Errorf("%d cores: dolos-sim's record differs from the runner's:\n  %s",
				max(c.spec.Cores, 1), strings.Join(d.Diffs, "\n  "))
		}
	}
}

// -trace writes a Chrome trace that parses and leaves every field of
// the untraced record as it was; the probe only adds its own metrics.
func TestRunTraceKeepsRecord(t *testing.T) {
	for _, c := range runCases {
		plain := simRecord(t, c)
		c.trace = filepath.Join(t.TempDir(), "trace.json")
		traced := simRecord(t, c)
		for _, d := range cliutil.CompareBenchRecords([]telemetry.RunRecord{traced}, []telemetry.RunRecord{plain}).Diffs {
			if !strings.HasSuffix(d, "absent in baseline") {
				t.Errorf("%d cores: -trace changed %s", max(c.spec.Cores, 1), d)
			}
		}
		buf, err := os.ReadFile(c.trace)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%d cores: trace holds %d events (%v)", max(c.spec.Cores, 1), len(tr.TraceEvents), err)
		}
	}
}

// A -trace run keeps at most its event limit and reports the rest as
// dropped; a small run at the real limit keeps everything and reports
// nothing.
func TestTraceProbeLimit(t *testing.T) {
	tr := whisper.Hashmap{}.Generate(whisper.Params{Transactions: 20, Seed: 1})
	run := func(limit int) (*telemetry.Probe, string) {
		sys := cpu.NewSystem(controller.Config{Scheme: controller.DolosPartial, FastMode: true})
		sys.SetProbe(newTraceProbe(sys.Eng.Now, limit))
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		reportDropped(&b, sys.Probe())
		return sys.Probe(), b.String()
	}
	p, out := run(traceEventLimit)
	if p.Dropped() != 0 || out != "" {
		t.Fatalf("a %d-event run dropped %d events, reported %q", p.Len(), p.Dropped(), out)
	}
	whole := p.Len()
	p, out = run(100)
	if p.Len() != 100 || p.Dropped() != uint64(whole-100) {
		t.Errorf("limit 100: kept %d and dropped %d of %d events", p.Len(), p.Dropped(), whole)
	}
	if !strings.Contains(out, fmt.Sprintf("%d probe events", whole-100)) {
		t.Errorf("drop report %q", out)
	}
}
