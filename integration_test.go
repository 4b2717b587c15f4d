package dolos_test

// System-level integration matrix: exercise the public experiment API
// across workloads x schemes x backends and check the paper's ordering
// invariants hold everywhere, at small scale. This is the test that
// fails first when a timing or functional regression sneaks into any
// layer of the stack.

import (
	"testing"

	"dolos"
)

func TestIntegrationSchemeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run")
	}
	runner := dolos.NewRunner(dolos.Options{Transactions: 120})
	for _, workload := range []string{"Ctree", "Redis"} {
		for _, tree := range []dolos.TreeKind{dolos.BMTEager, dolos.ToCLazy} {
			base, err := runner.Run(workload, dolos.Spec{Scheme: dolos.PreWPQSecure, Tree: tree})
			if err != nil {
				t.Fatal(err)
			}
			ideal, err := runner.Run(workload, dolos.Spec{Scheme: dolos.NonSecureADR, Tree: tree})
			if err != nil {
				t.Fatal(err)
			}
			eadr, err := runner.Run(workload, dolos.Spec{Scheme: dolos.EADRSecure, Tree: tree})
			if err != nil {
				t.Fatal(err)
			}
			if !(eadr.Cycles <= ideal.Cycles && ideal.Cycles < base.Cycles) {
				t.Fatalf("%s/%v bound ordering broken: eadr=%d ideal=%d base=%d",
					workload, tree, eadr.Cycles, ideal.Cycles, base.Cycles)
			}
			for _, s := range []dolos.Scheme{dolos.DolosFull, dolos.DolosPartial, dolos.DolosPost} {
				res, err := runner.Run(workload, dolos.Spec{Scheme: s, Tree: tree})
				if err != nil {
					t.Fatal(err)
				}
				if res.Cycles >= base.Cycles {
					t.Fatalf("%s/%v: %s (%d cycles) not faster than baseline (%d)",
						workload, tree, res.Scheme, res.Cycles, base.Cycles)
				}
				if res.Cycles < eadr.Cycles {
					t.Fatalf("%s/%v: %s beat the eADR bound", workload, tree, res.Scheme)
				}
				if res.Transactions != base.Transactions {
					t.Fatalf("paired replay broke: %d vs %d transactions",
						res.Transactions, base.Transactions)
				}
			}
		}
	}
}

func TestIntegrationTxSizeMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run")
	}
	// Figures 13-14 at matrix scale: for every workload, retries rise
	// and speedups shrink (weakly) from 128B to 2048B.
	runner := dolos.NewRunner(dolos.Options{Transactions: 100})
	for _, w := range dolos.AllWorkloads() {
		workload := string(w)
		small := speedupAt(t, runner, workload, 128)
		large := speedupAt(t, runner, workload, 2048)
		if large > small*1.15 {
			t.Fatalf("%s: speedup grew with tx size (%.2f -> %.2f)", workload, small, large)
		}
		if large < 1.0 {
			t.Fatalf("%s: Dolos lost at 2048B (%.2f)", workload, large)
		}
	}
}

func speedupAt(t *testing.T, r *dolos.Runner, workload string, size int) float64 {
	t.Helper()
	base, err := r.Run(workload, dolos.Spec{Scheme: dolos.PreWPQSecure, TxSize: size})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := r.Run(workload, dolos.Spec{Scheme: dolos.DolosPartial, TxSize: size})
	if err != nil {
		t.Fatal(err)
	}
	return dolos.Speedup(base, fast)
}

func TestIntegrationTailLatencyImproves(t *testing.T) {
	runner := dolos.NewRunner(dolos.Options{Transactions: 150})
	base, err := runner.Run("RBtree", dolos.Spec{Scheme: dolos.PreWPQSecure})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := runner.Run("RBtree", dolos.Spec{Scheme: dolos.DolosPartial})
	if err != nil {
		t.Fatal(err)
	}
	if base.P99TxCycles <= fast.P99TxCycles {
		t.Fatalf("p99 did not improve: base %.0f vs dolos %.0f", base.P99TxCycles, fast.P99TxCycles)
	}
	if base.MedianTxCycles <= fast.MedianTxCycles {
		t.Fatalf("median did not improve: %.0f vs %.0f", base.MedianTxCycles, fast.MedianTxCycles)
	}
}

func TestIntegrationMicroWorkloads(t *testing.T) {
	runner := dolos.NewRunner(dolos.Options{Transactions: 100, Workloads: []string{"TxStream"}})
	base, err := runner.Run("TxStream", dolos.Spec{Scheme: dolos.PreWPQSecure})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := runner.Run("PQueue", dolos.Spec{Scheme: dolos.DolosPartial})
	if err != nil {
		t.Fatal(err)
	}
	if base.Transactions == 0 || fast.Transactions == 0 {
		t.Fatal("micro workloads did not run")
	}
}
