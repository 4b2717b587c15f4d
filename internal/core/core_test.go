package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/sim"
)

// testOpts keeps runs quick; queueing steady-state is reached within a
// couple hundred transactions.
func testOpts() Options {
	return Options{Transactions: 150, Workloads: []string{"Hashmap", "Btree", "NStore:YCSB"}}
}

func TestRunProducesPairedTraces(t *testing.T) {
	r := NewRunner(testOpts())
	a, err := r.Run("Hashmap", Spec{Scheme: controller.PreWPQSecure})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("Hashmap", Spec{Scheme: controller.DolosPartial})
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.WriteRequests == 0 {
		t.Fatalf("unpaired replays: %d vs %d ops", a.Ops, b.Ops)
	}
	if a.Cycles <= b.Cycles {
		t.Fatalf("baseline (%d) not slower than Dolos (%d)", a.Cycles, b.Cycles)
	}
}

func TestUnknownWorkloadErrors(t *testing.T) {
	r := NewRunner(Options{})
	if _, err := r.Run("Nope", Spec{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestTraceCacheSharedAcrossAliases(t *testing.T) {
	r := NewRunner(Options{Transactions: 20})
	canon, err := r.Trace("Redis", 1024)
	if err != nil {
		t.Fatal(err)
	}
	alias, err := r.Trace("redis", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if canon != alias {
		t.Fatal("alias spelling generated a second trace instead of sharing the cached one")
	}
	if _, err := r.Trace("Nope", 1024); err == nil {
		t.Fatal("unknown workload accepted by Trace")
	}
}

// TestRunnerRefusesHeapOverflow: at the paper's 50,000 transactions a
// Hashmap trace could overflow the default 48 MB persistent heap. The
// runner returns whisper.CheckHeap's error, naming the workload, for
// the trace, a cell and a second core's trace, and generates nothing.
func TestRunnerRefusesHeapOverflow(t *testing.T) {
	r := NewRunner(Options{Transactions: 50000})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := r.Trace("Hashmap", 1024)
	runtime.ReadMemStats(&after)
	if err == nil || tr != nil {
		t.Fatalf("Trace at 50,000 txns = %v, %v; want a heap error and no trace", tr, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "Hashmap") || !strings.Contains(msg, "persistent heap") {
		t.Errorf("error %q does not name the workload and its heap", msg)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing the trace allocated %d bytes; it must not generate", grew)
	}
	if _, err := r.Run("Hashmap", Spec{Scheme: controller.DolosPartial}); err == nil || !strings.Contains(err.Error(), "Hashmap") {
		t.Errorf("Run at 50,000 txns: err = %v, want the heap error", err)
	}
	if _, err := r.coreTrace("Hashmap", 1024, 1); err == nil || !strings.Contains(err.Error(), "Hashmap") {
		t.Errorf("core 1 trace at 50,000 txns: err = %v, want the heap error", err)
	}
}

// TestRunnerRefusesTooManyCores: above cpu.MaxCores cores the last
// cores' heaps would lie past the data region (65 cores panicked reading
// there). The runner returns an error naming the count and generates no
// trace.
func TestRunnerRefusesTooManyCores(t *testing.T) {
	r := NewRunner(Options{Transactions: 1})
	_, err := r.Run("Hashmap", Spec{Scheme: controller.DolosPartial, Cores: cpu.MaxCores + 1})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cores %d", cpu.MaxCores+1)) {
		t.Fatalf("Run at %d cores: err = %v, want one naming the count", cpu.MaxCores+1, err)
	}
	if n := len(r.traces.m); n != 0 {
		t.Errorf("refusing the cell generated %d traces", n)
	}
}

func TestSpeedupMetric(t *testing.T) {
	if Speedup(resultWithCycles(200), resultWithCycles(100)) != 2 {
		t.Fatal("speedup arithmetic wrong")
	}
	if Speedup(resultWithCycles(100), resultWithCycles(0)) != 0 {
		t.Fatal("zero-cycle guard missing")
	}
}

func TestFig12Shape(t *testing.T) {
	r := NewRunner(testOpts())
	tab, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 3 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	// Every Dolos design must beat the baseline on every workload, in
	// the band the paper reports (roughly 1.2x - 2.8x).
	for row := 0; row < tab.Rows(); row++ {
		for col := 0; col < 3; col++ {
			v := tab.Cell(row, col)
			if v < 1.05 || v > 3.5 {
				t.Fatalf("speedup %s[%d] = %.2f outside plausible band", tab.RowLabel(row), col, v)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	r := NewRunner(testOpts())
	tab, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// The pre-WPQ slowdown should be near the paper's 2.1x: accept a
	// generous 1.5-4x band per workload.
	for row := 0; row < tab.Rows(); row++ {
		slow := tab.Cell(row, 2)
		if slow < 1.5 || slow > 4.5 {
			t.Fatalf("Fig6 slowdown %s = %.2f outside band", tab.RowLabel(row), slow)
		}
	}
}

func TestTable2Ordering(t *testing.T) {
	r := NewRunner(testOpts())
	tab, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Table 2's shape: Post-WPQ (smallest queue) retries most; Full
	// (largest queue) retries least, per workload on average.
	var fullSum, postSum float64
	for row := 0; row < tab.Rows(); row++ {
		fullSum += tab.Cell(row, 0)
		postSum += tab.Cell(row, 2)
	}
	if postSum <= fullSum {
		t.Fatalf("retry ordering violated: Full %.1f vs Post %.1f", fullSum, postSum)
	}
}

func TestFig15Saturation(t *testing.T) {
	r := NewRunner(Options{Transactions: 150, Workloads: []string{"Hashmap"}})
	speedup, retries, err := r.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	// Growing the WPQ must not hurt, and retries must fall monotonically
	// (the paper: 201 -> 29 -> 14 -> 11 per KWR).
	for row := 0; row < speedup.Rows(); row++ {
		if speedup.Cell(row, 3) < speedup.Cell(row, 0)*0.95 {
			t.Fatalf("bigger WPQ slower: %v", speedup)
		}
		for col := 1; col < 4; col++ {
			if retries.Cell(row, col) > retries.Cell(row, col-1)+1 {
				t.Fatalf("retries grew with WPQ size: %v", retries)
			}
		}
	}
}

func TestFig16LazySmallerGains(t *testing.T) {
	r := NewRunner(Options{Transactions: 150, Workloads: []string{"Hashmap"}})
	eager, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := r.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	// Under the lazy ToC the baseline's security latency is smaller, so
	// Dolos' gains shrink (1.66x -> ~1.08x in the paper).
	for col := 0; col < 3; col++ {
		if lazy.Cell(0, col) >= eager.Cell(0, col) {
			t.Fatalf("lazy gains (%v) not below eager (%v)", lazy.Cell(0, col), eager.Cell(0, col))
		}
	}
}

func TestFig13And14Trends(t *testing.T) {
	r := NewRunner(Options{Transactions: 120, Workloads: []string{"Redis"}})
	f13, err := r.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	f14, err := r.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	// Larger transactions fill the WPQ more: retries rise with tx size.
	if f13.Cell(0, len(TxSizes)-1) < f13.Cell(0, 0) {
		t.Fatalf("retries did not rise with tx size: %v", f13)
	}
	// And Dolos still wins at 2048B (paper Fig 14).
	if f14.Cell(0, len(TxSizes)-1) <= 1.0 {
		t.Fatalf("no speedup at 2048B: %v", f14)
	}
}

func TestTable3Static(t *testing.T) {
	tab := Table3()
	if tab.Rows() != 4 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	// Persistent counter: 8 bytes in every design.
	for col := 0; col < 3; col++ {
		if tab.Cell(0, col) != 8 {
			t.Fatalf("persistent counter bytes = %v", tab.Cell(0, col))
		}
	}
	// Pad storage shrinks with the usable queue (16 > 14 > 11 entries).
	if !(tab.Cell(2, 0) > tab.Cell(2, 1) && tab.Cell(2, 1) > tab.Cell(2, 2)) {
		t.Fatalf("pad storage not decreasing: %v", tab)
	}
}

func TestSec55Recovery(t *testing.T) {
	ests := Sec55Recovery()
	if len(ests) != 3 {
		t.Fatalf("estimates = %d", len(ests))
	}
	for _, e := range ests {
		if e.TotalCycles == 0 || e.Milliseconds <= 0 {
			t.Fatalf("degenerate estimate %+v", e)
		}
		// The paper's ballpark: tens of thousands of cycles, ~0.01 ms.
		if e.TotalCycles > 200000 {
			t.Fatalf("recovery estimate %d cycles implausibly large", e.TotalCycles)
		}
	}
}

func TestADRCompliance(t *testing.T) {
	tab := ADRCompliance()
	for row := 0; row < tab.Rows(); row++ {
		if tab.Cell(row, 0) > tab.Cell(row, 1) {
			t.Fatalf("%s exceeds ADR byte budget: %v > %v", tab.RowLabel(row), tab.Cell(row, 0), tab.Cell(row, 1))
		}
		if tab.Cell(row, 2) > tab.Cell(row, 3) {
			t.Fatalf("%s exceeds ADR MAC budget", tab.RowLabel(row))
		}
	}
}

func TestAblateCoalescing(t *testing.T) {
	r := NewRunner(Options{Transactions: 100, Workloads: []string{"NStore:YCSB"}})
	tab, err := r.AblateCoalescing()
	if err != nil {
		t.Fatal(err)
	}
	// Coalescing must not hurt, and for the zipfian-hot YCSB workload it
	// should help.
	if tab.Cell(0, 0) < tab.Cell(0, 1)*0.98 {
		t.Fatalf("coalescing hurt YCSB: on=%.3f off=%.3f", tab.Cell(0, 0), tab.Cell(0, 1))
	}
}

func resultWithCycles(c uint64) (r cpu.Result) {
	r.Cycles = sim.Cycle(c)
	return r
}
