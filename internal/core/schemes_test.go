package core

import (
	"testing"

	"dolos/internal/scheme"
)

// The registry-driven grids must have exactly one row per registered
// scheme — no hand-listed subsets, no duplicates — and the multi-core
// grid must exercise the multi-core arbiter (Cores=2) for every entry.
func TestSchemeGridsCoverRegistry(t *testing.T) {
	r := NewRunner(Options{Transactions: 30, Workloads: []string{"Hashmap", "Ctree"}})
	n := len(scheme.All())

	cmp, err := r.SchemeComparison()
	if err != nil {
		t.Fatal(err)
	}
	if got := cmp.Rows(); got != n {
		t.Fatalf("SchemeComparison: %d rows, registry has %d schemes", got, n)
	}

	cont, err := r.SchemeContention("Hashmap", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := cont.Rows(); got != n {
		t.Fatalf("SchemeContention: %d rows, registry has %d schemes", got, n)
	}

	// Row labels line up with the registry order.
	for i, e := range scheme.All() {
		if cmp.RowLabel(i) != e.Label {
			t.Fatalf("comparison row %d: %q, want %q", i, cmp.RowLabel(i), e.Label)
		}
		if cont.RowLabel(i) != e.Label {
			t.Fatalf("contention row %d: %q, want %q", i, cont.RowLabel(i), e.Label)
		}
	}
}
