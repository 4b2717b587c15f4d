package whisper

import (
	"strings"
	"testing"
)

// everyWorkload is every workload ByName knows.
func everyWorkload(t *testing.T) []Workload {
	t.Helper()
	var ws []Workload
	for _, n := range append(Names(), MicroNames()...) {
		w, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestHeapNeedBoundsGeneration generates every workload in a heap of
// exactly heapNeed bytes: a bound below the real use panics with heap
// exhausted.
func TestHeapNeedBoundsGeneration(t *testing.T) {
	for _, w := range everyWorkload(t) {
		for _, p := range []Params{
			{Transactions: 300, TxSize: 64, Seed: 3},
			{Transactions: 300, TxSize: 4096, Seed: 3},
			{Transactions: 2000, TxSize: 1024, Seed: 5},
		} {
			p.HeapSize = heapNeed(w, p)
			if p.HeapSize == 0 {
				t.Fatalf("%s: no heap bound", w.Name())
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s %+v: generation in a heap of heapNeed bytes: %v", w.Name(), p, r)
					}
				}()
				w.Generate(p)
			}()
		}
	}
}

// TestCheckHeapAtUpperBounds pins which runs at the CLIs' and the
// service's largest transaction count and size fit the default 48 MB
// heap: Hashmap, Btree and Redis at 20,000 transactions of 4 KB used to
// panic with heap exhausted part way through generation.
func TestCheckHeapAtUpperBounds(t *testing.T) {
	for _, c := range []struct {
		workload      string
		txns, txSize  int
		wantRejection bool
	}{
		{"Hashmap", 20000, 4096, true},
		{"Btree", 20000, 4096, true},
		{"Redis", 20000, 4096, true},
		{"Ctree", 20000, 4096, true},
		{"RBtree", 20000, 4096, true},
		{"PQueue", 20000, 4096, true},
		{"NStore:YCSB", 20000, 4096, false},
		{"TxStream", 20000, 4096, false},
		{"Hashmap", 20000, 1024, false},
		{"Btree", 20000, 1024, false},
		{"Redis", 20000, 1024, false},
		{"Ctree", 20000, 1024, false},
		{"RBtree", 20000, 1024, false},
		{"PQueue", 20000, 1024, false},
		{"Hashmap", 1, 4096, false},
	} {
		w, err := ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		err = Check(w, Params{Transactions: c.txns, TxSize: c.txSize})
		switch {
		case !c.wantRejection && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.wantRejection && err == nil:
			t.Errorf("%+v: accepted", c)
		case c.wantRejection && !strings.Contains(err.Error(), "txns 20000 with txsize 4096"):
			t.Errorf("%+v: error %q does not name txns and txsize", c, err)
		}
	}
}

// TestCheckTxSize pins Check's payload and count rules, the rows the
// dolos-sim, dolos-trace and /v2 front ends used to check themselves: a
// payload from MinTxSize to MaxTxSize (0 selects DefaultTxSize) and no
// negative transaction count.
func TestCheckTxSize(t *testing.T) {
	for _, c := range []struct {
		txns, txSize int
		ok           bool
	}{
		{200, 0, true},
		{200, MinTxSize, true},
		{200, MaxTxSize, true},
		{200, 1024, true},
		{200, 63, false},
		{200, 5, false},
		{200, 32, false},
		{200, -1, false},
		{200, 4097, false},
		{200, 8192, false},
		{-3, 1024, false},
		{-5, 1024, false},
	} {
		err := Check(Hashmap{}, Params{Transactions: c.txns, TxSize: c.txSize})
		switch {
		case c.ok && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case !c.ok && err == nil:
			t.Errorf("%+v: accepted", c)
		}
	}
}
