package dolos

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	runner := NewRunner(Options{Transactions: 120})
	base, err := runner.Run("Hashmap", Spec{Scheme: PreWPQSecure, Tree: BMTEager})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := runner.Run("Hashmap", Spec{Scheme: DolosPartial, Tree: BMTEager})
	if err != nil {
		t.Fatal(err)
	}
	if s := Speedup(base, fast); s <= 1 {
		t.Fatalf("Dolos speedup = %.2f, want > 1", s)
	}
}

// TestParseWorkload pins the spelling rules of the typed workload API:
// canonical names, case folds, scheme-style separator folds, the YCSB
// short forms, the microbenchmarks — and the ErrUnknownWorkload
// sentinel on everything else.
func TestParseWorkload(t *testing.T) {
	accept := map[string]Workload{
		"Hashmap":     WorkloadHashmap,
		"hashmap":     WorkloadHashmap,
		"HASHMAP":     WorkloadHashmap,
		"NStore:YCSB": WorkloadYCSB,
		"nstore-ycsb": WorkloadYCSB,
		"nstore_ycsb": WorkloadYCSB,
		"ycsb":        WorkloadYCSB,
		"nstore":      WorkloadYCSB,
		"rbtree":      WorkloadRBtree,
		"RB-Tree":     WorkloadRBtree,
		"txstream":    WorkloadTxStream,
		"pqueue":      WorkloadPQueue,
	}
	for in, want := range accept {
		got, err := ParseWorkload(in)
		if err != nil {
			t.Errorf("ParseWorkload(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseWorkload(%q) = %q, want %q", in, got, want)
		}
	}
	for _, in := range []string{"", "NoSuchThing", "hash map x"} {
		if _, err := ParseWorkload(in); !errors.Is(err, ErrUnknownWorkload) {
			t.Errorf("ParseWorkload(%q) err = %v, want ErrUnknownWorkload", in, err)
		}
	}
	if all := AllWorkloads(); len(all) != 6 || all[0] != WorkloadHashmap {
		t.Errorf("AllWorkloads() = %v", all)
	}
}

// TestSentinelErrors pins the errors.Is surface of the façade: an
// unknown workload surfaces ErrUnknownWorkload through a run, and a
// pre-cancelled context surfaces ErrCanceled alongside the context's
// own cause.
func TestSentinelErrors(t *testing.T) {
	runner := NewRunner(Options{Transactions: 50})

	_, err := runner.RunContext(context.Background(), "NoSuchWorkload", Spec{Scheme: DolosPartial})
	if !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("unknown-workload run err = %v, want ErrUnknownWorkload", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = runner.RunContext(ctx, "Hashmap", Spec{Scheme: DolosPartial})
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("cancelled run err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run err = %v, want context.Canceled in chain", err)
	}
}

// TestRunContextMatchesRun: RunContext with a background context is
// Run — identical results through either entry point.
func TestRunContextMatchesRun(t *testing.T) {
	runner := NewRunner(Options{Transactions: 80})
	spec := Spec{Scheme: DolosPartial, Tree: BMTEager}
	viaRun, err := runner.Run(WorkloadHashmap.String(), spec)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := runner.RunContext(context.Background(), WorkloadHashmap.String(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaRun, viaCtx) {
		t.Errorf("RunContext result differs from Run:\n%+v\nvs\n%+v", viaCtx, viaRun)
	}
}

func TestFacadeStatics(t *testing.T) {
	if len(AllWorkloads()) != 6 {
		t.Fatalf("workloads = %v", AllWorkloads())
	}
	if len(MicroWorkloads()) != 2 {
		t.Fatalf("micro workloads = %v", MicroWorkloads())
	}
	if Table3().Rows() == 0 {
		t.Fatal("empty Table 3")
	}
	if ADRCompliance().Rows() != 3 {
		t.Fatal("ADR table wrong")
	}
	if len(Sec55Recovery()) != 3 {
		t.Fatal("recovery estimates wrong")
	}
}
