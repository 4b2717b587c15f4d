package cpu

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/layout"
	"dolos/internal/telemetry"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

func machineTrace(t *testing.T, name string, txns int, seed int64, heapBase uint64) *trace.Trace {
	t.Helper()
	w, err := whisper.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Generate(whisper.Params{
		Transactions: txns,
		TxSize:       512,
		Seed:         seed,
		HeapBase:     heapBase,
	})
}

func machineConfig(scheme controller.Scheme) controller.Config {
	cfg := controller.Config{Scheme: scheme, HardwareWPQ: 16}
	copy(cfg.AESKey[:], "dolos-aes-key-16")
	copy(cfg.MACKey[:], "dolos-mac-key-16")
	return cfg
}

// snapshotJSON renders a system's full metrics snapshot for byte
// comparison.
func snapshotJSON(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteJSON(&buf, telemetry.Snapshot(sys.Ctrl.Stats(), nil)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOoOWindowOneMatchesInOrder pins the read window's in-order end:
// window 0 (Run) and window 1 (RunWindow) issue through the same loop,
// so cycles, event counts and every controller metric match
// bit-for-bit across schemes, and only the reported window differs.
func TestOoOWindowOneMatchesInOrder(t *testing.T) {
	for _, scheme := range []controller.Scheme{
		controller.DolosPartial, controller.PreWPQSecure, controller.DolosFull,
	} {
		tr := machineTrace(t, "Hashmap", 60, 1, 0)

		inOrder := NewSystem(machineConfig(scheme))
		resIn := must(inOrder.Run(tr))

		ooo := NewSystem(machineConfig(scheme))
		resOoO := must(ooo.RunWindow(tr, 1))

		if resIn.OoOWindow != 0 || resOoO.OoOWindow != 1 {
			t.Fatalf("%v: reported windows %d and %d, want 0 and 1", scheme, resIn.OoOWindow, resOoO.OoOWindow)
		}
		resOoO.OoOWindow = 0
		if !reflect.DeepEqual(resIn, resOoO) {
			t.Fatalf("%v: window-1 result diverges from window 0:\nwindow 0 %+v\nwindow 1 %+v",
				scheme, resIn, resOoO)
		}
		if inOrder.Eng.Processed() != ooo.Eng.Processed() {
			t.Fatalf("%v: event counts diverge: window 0 %d, window 1 %d",
				scheme, inOrder.Eng.Processed(), ooo.Eng.Processed())
		}
		if !bytes.Equal(snapshotJSON(t, inOrder), snapshotJSON(t, ooo)) {
			t.Fatalf("%v: metrics snapshots diverge at window 1", scheme)
		}
	}
}

// TestOoOWiderWindowDeterministicAndOverlaps checks that a wide window
// is (a) deterministic run-to-run and (b) actually overlaps read
// misses: the same trace must finish in no more cycles than in-order,
// and strictly fewer whenever any overlap or prefetch happened.
func TestOoOWiderWindowDeterministicAndOverlaps(t *testing.T) {
	tr := machineTrace(t, "Btree", 80, 1, 0)

	run := func() (Result, []byte) {
		sys := NewSystem(machineConfig(controller.DolosPartial))
		res := must(sys.RunWindow(tr, 8))
		return res, snapshotJSON(t, sys)
	}
	res1, snap1 := run()
	res2, snap2 := run()
	if !reflect.DeepEqual(res1, res2) || !bytes.Equal(snap1, snap2) {
		t.Fatal("window-8 OoO run is not deterministic")
	}
	if res1.OoOWindow != 8 {
		t.Fatalf("RunWindow(tr, 8) reports OoOWindow = %d, want 8", res1.OoOWindow)
	}

	inOrder := must(NewSystem(machineConfig(controller.DolosPartial)).Run(tr))
	if res1.Cycles > inOrder.Cycles {
		t.Fatalf("window-8 OoO slower than in-order: %d > %d cycles", res1.Cycles, inOrder.Cycles)
	}
	if res1.Cycles == inOrder.Cycles {
		t.Logf("window-8 matched in-order exactly (no overlappable misses in trace)")
	}
}

// TestMultiCoreDeterminism runs the same 2-core contention twice and
// demands byte-identical aggregate and per-core results.
func TestMultiCoreDeterminism(t *testing.T) {
	build := func() *Machine {
		cores := []CoreSpec{
			{Workload: "Hashmap", Seed: 1, Trace: machineTrace(t, "Hashmap", 40, 1, CoreHeapBase(0))},
			{Workload: "Btree", Seed: CoreSeed(1, 1), Trace: machineTrace(t, "Btree", 40, CoreSeed(1, 1), CoreHeapBase(1))},
		}
		return NewMachine(MachineConfig{Ctrl: machineConfig(controller.DolosPartial), Window: 2}, cores)
	}
	s1 := build()
	r1 := s1.Run()
	s2 := build()
	r2 := s2.Run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("multi-core run not deterministic:\n%+v\n%+v", r1, r2)
	}
	if s1.Eng.Processed() != s2.Eng.Processed() {
		t.Fatalf("event counts diverge: %d vs %d", s1.Eng.Processed(), s2.Eng.Processed())
	}

	if r1.Cores != 2 || len(r1.PerCore) != 2 {
		t.Fatalf("expected 2-core result, got Cores=%d PerCore=%d", r1.Cores, len(r1.PerCore))
	}
	if r1.Workload != "mixed" {
		t.Fatalf("mixed workloads should label the run \"mixed\", got %q", r1.Workload)
	}
	totalTx := 0
	for _, pc := range r1.PerCore {
		totalTx += pc.Transactions
		if want := s1.Cores[pc.Core].Spec().Trace.Transactions; pc.Transactions != want {
			t.Fatalf("core %d ran %d transactions, want %d", pc.Core, pc.Transactions, want)
		}
		if pc.ArbGrants == 0 {
			t.Fatalf("core %d recorded no arbiter grants", pc.Core)
		}
	}
	if totalTx != r1.Transactions {
		t.Fatalf("per-core transactions sum %d != aggregate %d", totalTx, r1.Transactions)
	}

	// The shared-WPQ occupancy histogram and per-core fairness counters
	// must be present in the stats set (they feed the Prometheus
	// exposition and the RunRecord metrics).
	st := s1.Ctrl.Stats()
	if st.Histogram("wpq.occupancy").Count() == 0 {
		t.Fatal("wpq.occupancy histogram recorded nothing")
	}
	for _, name := range []string{"arb.core0.grants", "arb.core1.grants", "mcore.core0.accepted"} {
		if st.Counter(name).Value() == 0 {
			t.Fatalf("counter %s is zero", name)
		}
	}
}

// TestContentionMetricsExposition proves the new shared-WPQ occupancy
// histogram and per-core fairness counters reach the existing
// Prometheus text exposition with zero service changes: they are
// interned into the controller's stats set, and the exposition renders
// whatever the snapshot holds.
func TestContentionMetricsExposition(t *testing.T) {
	cores := []CoreSpec{
		{Workload: "Hashmap", Seed: 1, Trace: machineTrace(t, "Hashmap", 30, 1, CoreHeapBase(0))},
		{Workload: "Hashmap", Seed: CoreSeed(1, 1), Trace: machineTrace(t, "Hashmap", 30, CoreSeed(1, 1), CoreHeapBase(1))},
	}
	sys := NewMachine(MachineConfig{Ctrl: machineConfig(controller.DolosPartial), Window: 2}, cores)
	sys.Run()

	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, telemetry.Snapshot(sys.Ctrl.Stats(), nil)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, name := range []string{
		"wpq_occupancy_count", "wpq_occupancy_sum",
		"arb_core0_grants", "arb_core1_grants",
		"arb_core0_wait_cycles", "mcore_core0_accepted",
	} {
		if !strings.Contains(text, "\n"+name+" ") {
			t.Errorf("exposition missing sample %q", name)
		}
	}
}

// TestMultiCoreGapShift pins the contention experiment's headline
// physics: Dolos Mi-SU's single-core advantage over the
// security-before-WPQ baseline is a *latency* win, so as contending
// cores push the shared WPQ toward saturation the advantage must
// shrink — the deferred Ma-SU work becomes the drain bottleneck while
// the baseline is pipeline-latency-bound rather than queue-bound. The
// WPQ telemetry must show it: Dolos's retry rate explodes with core
// count while the baseline's stays comparatively low.
func TestMultiCoreGapShift(t *testing.T) {
	if testing.Short() {
		t.Skip("contention comparison needs full traces")
	}
	run := func(scheme controller.Scheme, n int) Result {
		var cores []CoreSpec
		for i := 0; i < n; i++ {
			cores = append(cores, CoreSpec{
				Workload: "Hashmap",
				Seed:     CoreSeed(1, i),
				Trace:    machineTrace(t, "Hashmap", 50, CoreSeed(1, i), CoreHeapBase(i)),
			})
		}
		return NewMachine(MachineConfig{Ctrl: machineConfig(scheme)}, cores).Run()
	}
	base1, dolos1 := run(controller.PreWPQSecure, 1), run(controller.DolosPartial, 1)
	base4, dolos4 := run(controller.PreWPQSecure, 4), run(controller.DolosPartial, 4)

	adv1 := base1.CyclesPerTx / dolos1.CyclesPerTx
	adv4 := base4.CyclesPerTx / dolos4.CyclesPerTx
	if adv1 <= 1 {
		t.Fatalf("single-core Dolos advantage missing: %.2fx", adv1)
	}
	if adv4 >= adv1 {
		t.Fatalf("Dolos advantage should shrink under contention: 1-core %.2fx, 4-core %.2fx", adv1, adv4)
	}
	if dolos4.RetryPerKWR <= dolos1.RetryPerKWR || dolos4.RetryPerKWR <= base4.RetryPerKWR {
		t.Fatalf("expected WPQ-full retries to explain the shift: dolos 1-core %.1f, 4-core %.1f, base 4-core %.1f",
			dolos1.RetryPerKWR, dolos4.RetryPerKWR, base4.RetryPerKWR)
	}
}

// TestMaxCoresHeapsFitDataRegion pins MaxCores to the default layout:
// core MaxCores-1's default persistent heap ends inside the data region
// of layout.Default(), and core MaxCores's would not.
func TestMaxCoresHeapsFitDataRegion(t *testing.T) {
	m := layout.Default()
	end := m.DataBase + m.DataSpan
	heapEnd := func(core int) uint64 {
		p := whisper.Params{HeapBase: CoreHeapBase(core)}.WithDefaults()
		return p.HeapBase + p.HeapSize
	}
	if e := heapEnd(MaxCores - 1); e > end {
		t.Errorf("core %d's heap ends at %#x, past the data region's end %#x", MaxCores-1, e, end)
	}
	if e := heapEnd(MaxCores); e <= end {
		t.Errorf("core %d's heap ends at %#x, inside the data region (end %#x): MaxCores is too small", MaxCores, e, end)
	}
}
