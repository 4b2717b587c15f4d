package crash

// Recovery-axis coverage for the related-work schemes: crash each one
// mid-flush and mid-tree-update at pinned seeds, require the recovered
// visible state to match the scheme's reference (the driver's
// durability audit), and pin the recovery_cycles axis — deterministic,
// and ordered the way the papers predict (less tree persistence = faster
// runtime, slower recovery).

import (
	"testing"

	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/scheme"
	"dolos/internal/sim"
	"dolos/internal/whisper"
)

// relatedSchemes are the registry entries added for the related-work
// comparison (everything past the original six).
func relatedSchemes() []controller.Scheme {
	var out []controller.Scheme
	for _, e := range scheme.All() {
		if e.Pipeline.ReportsRecovery {
			out = append(out, e.ID)
		}
	}
	return out
}

func TestRelatedSchemesCrashRecovery(t *testing.T) {
	tr := whisper.Hashmap{}.Generate(whisper.Params{
		Transactions: 30, Warmup: 20, TxSize: 512, Seed: 11, HeapSize: 16 << 20,
	})
	// 25k cycles lands mid-flush (live WPQ entries, writes in flight);
	// 100k lands with a large dirty metadata footprint mid-tree-update.
	points := []sim.Cycle{25_000, 100_000}
	for _, s := range relatedSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			for _, at := range points {
				d := mustDriver(t, testConfig(s))
				out, err := d.RunAndCrash(tr, at, controller.AnubisRecovery)
				if err != nil {
					t.Fatalf("crash at %d: %v (outcome %+v)", at, err, out)
				}
				if out.AcceptedWrites > 0 && out.LinesAudited == 0 {
					t.Fatalf("crash at %d: nothing audited", at)
				}
				if out.AcceptedWrites > 0 && out.Recover.RecoveryCycles == 0 {
					t.Fatalf("crash at %d: recovery axis not reported", at)
				}

				// Determinism: an identical run reports identical
				// recovery cycles. Reconstruction schemes must also be
				// mode-independent, so ask for the other recovery mode.
				mode2 := controller.AnubisRecovery
				if scheme.PipelineOf(s).Recovery == scheme.RecoverReconstruct {
					mode2 = controller.OsirisRecovery
				}
				d2 := mustDriver(t, testConfig(s))
				out2, err := d2.RunAndCrash(tr, at, mode2)
				if err != nil {
					t.Fatalf("repeat crash at %d: %v", at, err)
				}
				if out2.Recover.RecoveryCycles != out.Recover.RecoveryCycles {
					t.Fatalf("crash at %d: recovery_cycles %d != %d on identical rerun",
						at, out2.Recover.RecoveryCycles, out.Recover.RecoveryCycles)
				}
			}
		})
	}
}

// TestRecoveryRuntimeTradeoffOrdering pins the Triad-NVM paper's central
// claim on the modeled axes: persisting fewer tree levels runs faster
// but recovers slower. SuperMem (N = 0) is the extreme point; full tree
// persistence (N >= height) recovers in O(1) but pays the longest
// critical path.
func TestRecoveryRuntimeTradeoffOrdering(t *testing.T) {
	tr := whisper.Hashmap{}.Generate(whisper.Params{
		Transactions: 40, Warmup: 20, TxSize: 512, Seed: 7, HeapSize: 16 << 20,
	})
	run := func(s controller.Scheme, triadLevels int) (runtime uint64, recovery uint64) {
		cfg := testConfig(s)
		cfg.TriadLevels = triadLevels
		sys := cpu.NewSystem(cfg)
		res, err := sys.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles), res.RecoveryCycles
	}

	triadRun, triadRec := run(controller.TriadNVM, 0) // scheme default N=1
	fullRun, fullRec := run(controller.TriadNVM, 64)  // clamped to tree height: full persistence
	superRun, superRec := run(controller.SuperMem, 0) // N=0 extreme
	if triadRec == 0 || fullRec == 0 || superRec == 0 {
		t.Fatalf("recovery axis missing: triad=%d full=%d supermem=%d", triadRec, fullRec, superRec)
	}

	// Runtime: less persistence is faster.
	if !(superRun < triadRun && triadRun < fullRun) {
		t.Fatalf("runtime ordering violated: supermem=%d triad(N=1)=%d full=%d",
			superRun, triadRun, fullRun)
	}
	// Recovery: less persistence is slower to boot.
	if !(superRec > triadRec && triadRec > fullRec) {
		t.Fatalf("recovery ordering violated: supermem=%d triad(N=1)=%d full=%d",
			superRec, triadRec, fullRec)
	}

	// Determinism of the estimate across identical runs.
	triadRun2, triadRec2 := run(controller.TriadNVM, 0)
	if triadRun2 != triadRun || triadRec2 != triadRec {
		t.Fatalf("estimate not deterministic: (%d,%d) vs (%d,%d)",
			triadRun, triadRec, triadRun2, triadRec2)
	}
}

// TestSchemeSmokeRegistry runs one short run, a mid-run crash, recovery
// and the durability audit for every scheme in the registry — a new
// registry entry is covered the moment it is added.
func TestSchemeSmokeRegistry(t *testing.T) {
	tr := whisper.Hashmap{}.Generate(whisper.Params{
		Transactions: 20, Warmup: 10, TxSize: 512, Seed: 5, HeapSize: 16 << 20,
	})
	for _, e := range scheme.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			d := mustDriver(t, testConfig(e.ID))
			out, err := d.RunAndCrash(tr, 60_000, controller.AnubisRecovery)
			if err != nil {
				t.Fatalf("%s: %v (outcome %+v)", e.Name, err, out)
			}
			if out.AcceptedWrites > 0 && out.LinesAudited == 0 {
				t.Fatalf("%s: nothing audited", e.Name)
			}
			if e.Pipeline.ReportsRecovery && out.AcceptedWrites > 0 && out.Recover.RecoveryCycles == 0 {
				t.Fatalf("%s: recovery axis not reported", e.Name)
			}
		})
	}
}
