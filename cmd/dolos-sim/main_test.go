package main

import (
	"fmt"
	"strings"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/telemetry"
	"dolos/internal/whisper"
)

// Out-of-range numeric flags are rejected by name instead of being
// silently misread (-txns 0 used to run the default 1024 transactions,
// -wpq 0 ran 16 entries, -txsize -1 and -cores 65 panicked).
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		txns, txSize, wpq, cores, window int
		bad                              string // flag named in the error, "" = accepted
	}{
		{1000, 1024, 16, 1, 0, ""},
		{1, 64, 1, 4, 2, ""},
		{20000, 4096, 1024, 1, 1, ""},
		{0, 1024, 16, 1, 0, "-txns"},
		{-5, 1024, 16, 1, 0, "-txns"},
		{20001, 1024, 16, 1, 0, "-txns"},
		{1000, -1, 16, 1, 0, "-txsize"},
		{1000, 63, 16, 1, 0, "-txsize"},
		{1000, 4097, 16, 1, 0, "-txsize"},
		{1000, 1024, 0, 1, 0, "-wpq"},
		{1000, 1024, -4, 2, 0, "-wpq"},
		{1000, 1024, 1025, 1, 0, "-wpq"},
		{1000, 1024, 16, 0, 0, "-cores"},
		{1000, 1024, 16, 64, 0, ""},
		{1000, 1024, 16, 65, 0, "-cores"},
		{1000, 1024, 16, 1, -3, "-ooo-window"},
	} {
		err := checkFlags(c.txns, c.txSize, c.wpq, c.cores, c.window)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), c.bad+" ")):
			t.Errorf("%+v: error %v, want one naming %s", c, err, c.bad)
		}
	}
}

// Runs whose trace could overflow the workload's persistent heap are
// rejected before generation: Hashmap, Btree and Redis at 20,000
// transactions of 4 KB used to panic with heap exhausted.
func TestCheckHeap(t *testing.T) {
	for _, c := range []struct {
		workload     string
		txns, txSize int
		reject       bool
	}{
		{"Hashmap", 20000, 4096, true},
		{"Btree", 20000, 4096, true},
		{"Redis", 20000, 4096, true},
		{"NStore:YCSB", 20000, 4096, false},
		{"Hashmap", 20000, 1024, false},
		{"Btree", 20000, 1024, false},
		{"Redis", 20000, 1024, false},
		{"Hashmap", 1, 4096, false},
	} {
		w, err := whisper.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		err = checkHeap(w, c.txns, c.txSize)
		switch {
		case !c.reject && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.reject && (err == nil || !strings.Contains(err.Error(), "txns 20000 with txsize 4096")):
			t.Errorf("%+v: error %v, want one naming txns and txsize", c, err)
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
		sys.Run(tr)
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
