package core

import (
	"fmt"
	"strings"
	"testing"

	"dolos/internal/cliutil"
	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/masu"
	"dolos/internal/sim"
	"dolos/internal/telemetry"
	"dolos/internal/whisper"
)

// allSchemes is every scheme in the registry — the Dolos family and the
// related-work competitors alike; the fast-mode contract has to hold
// for each one, and a new registry entry joins this suite automatically.
var allSchemes = cliutil.AllSchemes()

// runEngine simulates one cell as RunCell does, on the functional
// crypto engine or, when fast is set, on the latency-only one
// (controller.Config.FastMode), which no Spec or Option selects.
func runEngine(r *Runner, workload string, spec Spec, fast bool) (RunResult, error) {
	spec = spec.withDefaults()
	cfg := spec.config()
	cfg.FastMode = fast
	m, err := r.machine(workload, spec, cfg)
	if err != nil {
		return RunResult{}, err
	}
	if m.Ctrl.Functional() == fast {
		return RunResult{}, fmt.Errorf("fast %v built a controller with Functional() %v", fast, !fast)
	}
	return RunResult{Result: m.Run(), Events: m.Eng.Processed(), Stats: m.Ctrl.Stats()}, nil
}

// record runs one cell on the chosen engine and freezes it as a
// RunRecord with wall time zeroed, so the comparison below sees every
// deterministic field (cycles, counters, histograms, event counts) and
// nothing host-side.
func record(t *testing.T, r *Runner, workload string, spec Spec, fast bool) telemetry.RunRecord {
	t.Helper()
	rr, err := runEngine(r, workload, spec, fast)
	if err != nil {
		t.Fatalf("%s/%v: %v", workload, spec.Scheme, err)
	}
	return cliutil.BuildRunRecord(rr.Result, spec.Tree, spec.TxSize, r.Options().Seed,
		rr.Events, 0, rr.Stats, nil)
}

// diffRecords compares two records over every deterministic field and
// reports the divergences (host throughput excluded).
func diffRecords(fast, functional telemetry.RunRecord) []string {
	d := cliutil.CompareBenchRecords(
		[]telemetry.RunRecord{fast}, []telemetry.RunRecord{functional})
	return d.Diffs
}

// TestFastModeBitIdentical is the exhaustive differential proof behind
// the fast-mode seam: every scheme × workload cell, simulated once with
// the functional crypto engine and once with the latency-only provider,
// must produce a bit-identical RunRecord — cycles, retry counters,
// metadata-cache misses, event counts, histogram summaries, everything
// deterministic. This is what licenses using fast mode for perf work:
// the simulated model cannot tell the providers apart.
func TestFastModeBitIdentical(t *testing.T) {
	r := NewRunner(Options{Transactions: 100})
	for _, wl := range whisper.Names() {
		for _, sch := range allSchemes {
			spec := Spec{Scheme: sch, Tree: masu.BMTEager}
			functional := record(t, r, wl, spec, false)
			fast := record(t, r, wl, spec, true)
			if diffs := diffRecords(fast, functional); len(diffs) > 0 {
				t.Errorf("%s/%s: fast mode diverged:\n  %s",
					wl, sch, strings.Join(diffs, "\n  "))
			}
		}
	}
}

// TestFastModeBitIdenticalLazyTree covers the second integrity backend:
// the lazy ToC path exercises reencryptPage and the per-page ECC fold,
// which the eager grid never reaches.
func TestFastModeBitIdenticalLazyTree(t *testing.T) {
	r := NewRunner(Options{Transactions: 100})
	for _, sch := range allSchemes {
		spec := Spec{Scheme: sch, Tree: masu.ToCLazy}
		functional := record(t, r, "Hashmap", spec, false)
		fast := record(t, r, "Hashmap", spec, true)
		if diffs := diffRecords(fast, functional); len(diffs) > 0 {
			t.Errorf("Hashmap/%s (lazy): fast mode diverged:\n  %s",
				sch, strings.Join(diffs, "\n  "))
		}
	}
}

// TestFastModeMultiCore extends the proof across the multi-core arbiter: a
// 2-core contended cell must also be provider-blind.
func TestFastModeMultiCore(t *testing.T) {
	r := NewRunner(Options{Transactions: 60})
	spec := Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager, Cores: 2, OoOWindow: 2}
	functional := record(t, r, "Hashmap", spec, false)
	fast := record(t, r, "Hashmap", spec, true)
	if diffs := diffRecords(fast, functional); len(diffs) > 0 {
		t.Errorf("2-core fast mode diverged:\n  %s", strings.Join(diffs, "\n  "))
	}
}

// dispatchHash folds every dispatched event cycle into a rolling hash.
// Two runs with equal hashes dispatched the same number of events at
// the same cycles in the same order.
type dispatchHash struct{ h uint64 }

func (d *dispatchHash) observe(at sim.Cycle) {
	x := d.h ^ uint64(at)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	d.h = x
}

// runInstrumented executes one trace on a fresh system for cfg with the
// dispatch hook installed, returning the record and the dispatch-order
// hash.
func runInstrumented(t *testing.T, cfg controller.Config, workload string, txns int) (telemetry.RunRecord, uint64) {
	t.Helper()
	w, err := whisper.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Generate(whisper.Params{Transactions: txns, TxSize: 1024, Seed: 1})
	sys := cpu.NewSystem(cfg)
	var h dispatchHash
	sys.Eng.SetHook(h.observe)
	res := sys.Run(tr)
	return cliutil.BuildRunRecord(res, cfg.Tree, 1024, 1, sys.Eng.Processed(), 0, sys.Ctrl.Stats(), nil), h.h
}

// TestFastModeDispatchOrder goes below the record: for every scheme on
// the eager BMT, a fast-mode run must dispatch the same events at the
// same cycles in the same order as the functional run, not just end in
// the same totals.
func TestFastModeDispatchOrder(t *testing.T) {
	const txns = 80
	for _, sch := range allSchemes {
		for _, wl := range []string{"Hashmap", "Btree"} {
			cfg := controller.Config{Scheme: sch, Tree: masu.BMTEager, HardwareWPQ: 16}
			cfg.AESKey, cfg.MACKey = cliutil.DemoKeys("fast")
			functionalRec, functionalHash := runInstrumented(t, cfg, wl, txns)
			cfg.FastMode = true
			fastRec, fastHash := runInstrumented(t, cfg, wl, txns)

			label := wl + "/" + sch.String()
			if diffs := diffRecords(fastRec, functionalRec); len(diffs) > 0 {
				t.Errorf("%s: fast mode diverged:\n  %s", label, strings.Join(diffs, "\n  "))
			}
			if fastHash != functionalHash {
				t.Errorf("%s: dispatch-order hash %#x (fast) != %#x (functional)",
					label, fastHash, functionalHash)
			}
		}
	}
}
