package crash

import (
	"fmt"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/layout"
	"dolos/internal/sim"
	"dolos/internal/whisper"
	"dolos/internal/wpq"
)

func testConfig(s controller.Scheme) controller.Config {
	cfg := controller.Config{Scheme: s, Layout: layout.Small()}
	copy(cfg.AESKey[:], "crash-aes-key-16")
	copy(cfg.MACKey[:], "crash-mac-key-16")
	return cfg
}

// mustDriver builds a driver for a config the test knows is supported.
func mustDriver(t *testing.T, cfg controller.Config) *Driver {
	t.Helper()
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	return d
}

// coreSpecs builds n workload instances, core i running workloads[i mod
// len(workloads)], with compact disjoint heaps inside layout.Small's
// 64 MB data region (the default per-core 256 MB stride only fits the
// full-size layout).
func coreSpecs(t *testing.T, n int, workloads ...string) []cpu.CoreSpec {
	t.Helper()
	specs := make([]cpu.CoreSpec, n)
	for i := range specs {
		name := workloads[i%len(workloads)]
		w, err := whisper.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seed := cpu.CoreSeed(11, i)
		specs[i] = cpu.CoreSpec{
			Workload: name,
			Seed:     seed,
			Trace: w.Generate(whisper.Params{
				Transactions: 25, Warmup: 15, TxSize: 512, Seed: seed,
				HeapBase: 4096 + uint64(i)*(16<<20), HeapSize: 8 << 20,
			}),
		}
	}
	return specs
}

// crashMachine builds a machine driver for the cores, starts every
// core's trace and crashes at the given cycle with Anubis recovery. It
// fails the test unless the audit passes, something was audited when
// anything was accepted, and the per-core acceptance counts sum to the
// total.
func crashMachine(t *testing.T, cfg cpu.MachineConfig, cores []cpu.CoreSpec, at sim.Cycle) (*Driver, Outcome) {
	t.Helper()
	d, err := NewMachineDriver(cfg, cores)
	if err != nil {
		t.Fatalf("NewMachineDriver: %v", err)
	}
	d.Machine().Start()
	out, err := d.CrashAt(at, controller.AnubisRecovery)
	if err != nil {
		t.Fatalf("crash at %d: %v (outcome %+v)", at, err, out)
	}
	if out.AcceptedWrites > 0 && out.LinesAudited == 0 {
		t.Fatalf("crash at %d: nothing audited", at)
	}
	sum := 0
	for _, n := range out.PerCoreAccepted {
		sum += n
	}
	if len(out.PerCoreAccepted) != len(cores) || sum != out.AcceptedWrites {
		t.Fatalf("crash at %d: per-core accepted %v, want %d cores summing to %d",
			at, out.PerCoreAccepted, len(cores), out.AcceptedWrites)
	}
	return d, out
}

// coreCounts are the machines every multi-core crash table runs: the
// in-order single core, and 2 and 4 cores at read window 2 contending
// for one controller.
var coreCounts = []struct{ cores, window int }{{1, 0}, {2, 2}, {4, 2}}

// TestCrashAtManyPointsAllSchemes cuts power at several points, on one
// core and mid-contention on several, and demands every core's visible
// state recover: each accepted line reads back with verified integrity
// as its accepted (or same-core newer) value.
func TestCrashAtManyPointsAllSchemes(t *testing.T) {
	for _, s := range []controller.Scheme{
		controller.NonSecureADR, controller.PreWPQSecure,
		controller.DolosFull, controller.DolosPartial, controller.DolosPost,
	} {
		t.Run(s.String(), func(t *testing.T) {
			for _, cc := range coreCounts {
				t.Run(fmt.Sprintf("cores%d", cc.cores), func(t *testing.T) {
					cores := coreSpecs(t, cc.cores, "Hashmap", "Btree", "Ctree")
					cfg := cpu.MachineConfig{Ctrl: testConfig(s), Window: cc.window}
					for _, at := range []sim.Cycle{1000, 25000, 100000, 400000} {
						crashMachine(t, cfg, cores, at)
					}
				})
			}
		})
	}
}

func TestOsirisModeCrash(t *testing.T) {
	tr := whisper.Ctree{}.Generate(whisper.Params{
		Transactions: 20, Warmup: 10, TxSize: 256, Seed: 2, HeapSize: 16 << 20,
	})
	d := mustDriver(t, testConfig(controller.DolosPartial))
	out, err := d.RunAndCrash(tr, 80000, controller.OsirisRecovery)
	if err != nil {
		t.Fatalf("Osiris crash: %v", err)
	}
	if out.AcceptedWrites > 0 && out.Recover.MaSU.OsirisProbes == 0 {
		t.Fatal("Osiris recovery ran no probes")
	}
}

func TestUndoLogResolution(t *testing.T) {
	// Build a tiny bespoke trace with a transaction interrupted exactly
	// between its log fence and its commit: the recovery must roll back.
	tr := whisper.Hashmap{}.Generate(whisper.Params{
		Transactions: 10, Warmup: 5, TxSize: 512, Seed: 4, HeapSize: 16 << 20,
	})
	// Crash mid-run; whether a tx was mid-flight depends on the cycle,
	// so try several points and require the log to parse cleanly at all
	// of them (rolled back or not).
	for _, at := range []sim.Cycle{5000, 30000, 60000, 90000} {
		d := mustDriver(t, testConfig(controller.DolosPartial))
		if _, err := d.RunAndCrash(tr, at, controller.AnubisRecovery); err != nil {
			t.Fatalf("crash at %d: %v", at, err)
		}
		// The workload's log sits at the start of its heap allocations;
		// the session allocates the log first.
		logBase := uint64(4096)
		if _, err := d.ResolveLog(logBase, 512/64+64); err != nil {
			t.Fatalf("log resolution at %d: %v", at, err)
		}
	}
}

// TestCrashAfterCompletionIsClean runs every core to completion and
// crashes after quiesce: the WPQ must be empty and every core's full
// write set durable.
func TestCrashAfterCompletionIsClean(t *testing.T) {
	for _, s := range []controller.Scheme{controller.DolosFull, controller.DolosPartial} {
		for _, cc := range coreCounts {
			t.Run(fmt.Sprintf("%v/cores%d", s, cc.cores), func(t *testing.T) {
				d, out := crashMachine(t, cpu.MachineConfig{Ctrl: testConfig(s), Window: cc.window},
					coreSpecs(t, cc.cores, "Redis", "Btree"), 1<<40)
				for _, c := range d.Machine().Cores {
					if !c.Finished() {
						t.Fatalf("core %d did not finish", c.ID())
					}
				}
				if out.Crash.LiveEntries != 0 {
					t.Fatalf("WPQ had %d live entries after quiesce", out.Crash.LiveEntries)
				}
			})
		}
	}
}

// TestMultiCoreCrashWithinADRBudget pins the multi-core drain to the
// single-platform ADR reserve: the cores share one WPQ and one Mi-SU,
// so the entries and MAC blocks flushed at the crash — summed across
// whatever every core had in flight — must fit the budget provisioned
// for the hardware WPQ alone. (controller.Crash errors on violation;
// this re-checks the arithmetic explicitly from the report.)
func TestMultiCoreCrashWithinADRBudget(t *testing.T) {
	for _, s := range []controller.Scheme{controller.DolosPartial, controller.DolosPost} {
		d, out := crashMachine(t, cpu.MachineConfig{Ctrl: testConfig(s), Window: 2},
			coreSpecs(t, 3, "Hashmap", "Btree", "Ctree"), 120000)
		budget := controller.StandardADR(d.Machine().Ctrl.Config().HardwareWPQ)
		flushed := out.Crash.Drain.EntriesWritten*wpq.EntryDataSize +
			out.Crash.Drain.MACBlocksWritten*64
		if flushed != out.Crash.BytesFlushed {
			t.Fatalf("%v: drain accounting inconsistent: %d != %d", s, flushed, out.Crash.BytesFlushed)
		}
		if out.Crash.BytesFlushed > budget.FlushBytes {
			t.Fatalf("%v: drain flushed %d B over the %d B ADR budget",
				s, out.Crash.BytesFlushed, budget.FlushBytes)
		}
		if out.Crash.Drain.DeferredMACs > budget.MACOps {
			t.Fatalf("%v: drain used %d MAC ops, budget %d",
				s, out.Crash.Drain.DeferredMACs, budget.MACOps)
		}
	}
}
