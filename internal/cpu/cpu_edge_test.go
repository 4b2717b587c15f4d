package cpu

import (
	"errors"
	"strings"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/trace"
)

func TestComputeOnlyTrace(t *testing.T) {
	rec := trace.NewRecorder("compute", 0)
	rec.Compute(1000)
	rec.Compute(500) // coalesced
	s := NewSystem(testConfig(controller.DolosPartial))
	res := must(s.Run(rec.Finish()))
	if res.Cycles != 1500 {
		t.Fatalf("compute-only trace took %d cycles, want 1500", res.Cycles)
	}
	if res.WriteRequests != 0 {
		t.Fatal("phantom write requests")
	}
}

func TestEmptyTrace(t *testing.T) {
	rec := trace.NewRecorder("empty", 0)
	s := NewSystem(testConfig(controller.NonSecureADR))
	res := must(s.Run(rec.Finish()))
	if res.Cycles != 0 || res.Ops != 0 {
		t.Fatalf("empty trace result %+v", res)
	}
}

func TestEvictionHeavyTrace(t *testing.T) {
	// Write (without flushing) far more distinct lines than the cache
	// hierarchy holds in one set path; dirty LLC victims must reach the
	// controller as secured evictions.
	rec := trace.NewRecorder("evict", 0)
	var d [64]byte
	stride := uint64(8192 * 64) // same LLC set every time
	for i := uint64(0); i < 40; i++ {
		d[0] = byte(i)
		rec.Write(4096+i*stride, d)
	}
	s := NewSystem(testConfig(controller.DolosPartial))
	res := must(s.Run(rec.Finish()))
	evicts := s.Ctrl.Stats().Counter("wpq.evict_requests").Value()
	if evicts == 0 {
		t.Fatal("no evictions reached the controller")
	}
	if res.WriteRequests != 0 {
		t.Fatal("unflushed writes counted as persist requests")
	}
	// Evicted data is secured: MaSU processed them.
	if s.Ctrl.MaSU().Writes() == 0 {
		t.Fatal("evictions bypassed the MaSU")
	}
}

func TestDoubleStartPanics(t *testing.T) {
	rec := trace.NewRecorder("x", 0)
	rec.Compute(1)
	tr := rec.Finish()
	s := NewSystem(testConfig(controller.NonSecureADR))
	s.Start(tr)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	s.Start(tr)
}

// A trace that addresses a line outside the controller's data region
// is refused before anything is loaded: Start and Run return an error
// naming the address, and a Machine's Start panics with it (it used to
// panic in the Ma-SU with "write outside data region").
func TestStartRefusesTraceOutsideLayout(t *testing.T) {
	rec := trace.NewRecorder("far", 0)
	rec.Compute(1)
	rec.Write(100<<20, [64]byte{1})
	tr := rec.Finish()
	cfg := testConfig(controller.DolosPartial) // layout.Small(): 64 MB of data
	for name, run := range map[string]func() error{
		"Start": func() error { return NewSystem(cfg).Start(tr) },
		"Run":   func() error { _, err := NewSystem(cfg).Run(tr); return err },
	} {
		err := run()
		if !errors.Is(err, trace.ErrOutsideData) || !strings.Contains(err.Error(), "0x6400000") {
			t.Errorf("%s: error %v, want one wrapping trace.ErrOutsideData naming 0x6400000", name, err)
		}
	}
	m := NewMachine(MachineConfig{Ctrl: cfg}, []CoreSpec{{Workload: "far", Trace: tr}})
	if err := m.CheckTraces(); !errors.Is(err, trace.ErrOutsideData) {
		t.Fatalf("CheckTraces: %v, want trace.ErrOutsideData", err)
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, trace.ErrOutsideData) {
			t.Fatalf("Machine.Start panicked with %v, want trace.ErrOutsideData", err)
		}
	}()
	m.Start()
}

func TestTxLatencyHistogram(t *testing.T) {
	s := NewSystem(testConfig(controller.DolosPartial))
	must(s.Run(syntheticTrace()))
	h := s.TxLatency()
	if h.Count() != 5 || h.Mean() <= 0 {
		t.Fatalf("tx latency histogram: n=%d mean=%f", h.Count(), h.Mean())
	}
}

func TestMirrorTracksWrites(t *testing.T) {
	rec := trace.NewRecorder("m", 0)
	var d [64]byte
	d[7] = 0x77
	rec.Write(4096, d)
	s := NewSystem(testConfig(controller.NonSecureADR))
	must(s.Run(rec.Finish()))
	got, ok := s.Mirror(4096 + 8) // any offset within the line
	if !ok || got[7] != 0x77 {
		t.Fatal("mirror lost the written line")
	}
	if _, ok := s.Mirror(1 << 20); ok {
		t.Fatal("mirror invented a line")
	}
}
