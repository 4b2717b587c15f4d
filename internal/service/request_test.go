package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/masu"
)

// TestKeyNormalization pins the cache-key contract: aliases, case and
// explicitly-spelled defaults all hash to the same canonical key.
func TestKeyNormalization(t *testing.T) {
	base, err := normalize(Request{}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	equivalent := []Request{
		{Workloads: []string{"Hashmap"}},
		{Workloads: []string{"hashmap"}, Schemes: []string{"dolos-partial"}},
		{Schemes: []string{"DolosPartial"}},
		{Schemes: []string{"Dolos-Partial-WPQ"}, Tree: "eager"},
		{Transactions: 200, TxSize: 1024, Seed: 1, WPQ: 16},
		{TimeoutMS: 9999}, // a deadline must not change the result key
	}
	for i, req := range equivalent {
		n, err := normalize(req, Limits{})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if n.Key() != base.Key() {
			t.Errorf("request %d normalized to a different key:\n%+v\nvs\n%+v", i, n, base)
		}
	}

	different := []Request{
		{Seed: 2},
		{Transactions: 201},
		{TxSize: 512},
		{WPQ: 32},
		{NoCoalesce: true},
		{Tree: "lazy"},
		{Workloads: []string{"Btree"}},
		{Schemes: []string{"baseline"}},
		{Schemes: []string{"dolos-partial", "baseline"}},
	}
	for i, req := range different {
		n, err := normalize(req, Limits{})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if n.Key() == base.Key() {
			t.Errorf("request %d (%+v) collides with the default key", i, req)
		}
	}

	// Same cells in a different order is a different (order-preserving)
	// key: result order is part of the contract.
	ab, _ := normalize(Request{Schemes: []string{"baseline", "ideal"}}, Limits{})
	ba, _ := normalize(Request{Schemes: []string{"ideal", "baseline"}}, Limits{})
	if ab.Key() == ba.Key() {
		t.Error("scheme order does not affect the key")
	}
}

// TestNormalizeValidation sweeps the rejection paths.
func TestNormalizeValidation(t *testing.T) {
	bad := []Request{
		{Workloads: []string{"NoSuch"}},
		{Schemes: []string{"turbo"}},
		{Tree: "bushy"},
		{Transactions: -1},
		{Transactions: 100001},
		{TxSize: 32},
		{TxSize: 8192},
		{WPQ: -4},
		{Workloads: []string{"Hashmap", "Btree", "Ctree"}, Schemes: []string{"baseline", "ideal", "eadr"}},
		// Within both bounds, but the trace overflows the 48 MB heap.
		{Workloads: []string{"Hashmap"}, Transactions: 20000, TxSize: 4096},
	}
	lim := Limits{MaxTransactions: 100000, MaxCells: 8}
	for i, req := range bad {
		if _, err := normalize(req, lim); err == nil {
			t.Errorf("request %d (%+v) accepted, want error", i, req)
		}
	}
}

// TestCellsEnumeration pins grid order (workloads outer, schemes inner)
// and the spec fields each cell carries.
func TestCellsEnumeration(t *testing.T) {
	n, err := normalize(Request{
		Workloads: []string{"Hashmap", "Btree"},
		Schemes:   []string{"baseline", "dolos-partial"},
		Tree:      "lazy",
		TxSize:    512,
		WPQ:       32,
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	cells := n.cells()
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	wantOrder := []struct {
		wl  string
		sch controller.Scheme
	}{
		{"Hashmap", controller.PreWPQSecure},
		{"Hashmap", controller.DolosPartial},
		{"Btree", controller.PreWPQSecure},
		{"Btree", controller.DolosPartial},
	}
	for i, want := range wantOrder {
		c := cells[i]
		if c.Workload != want.wl || c.Spec.Scheme != want.sch {
			t.Errorf("cell %d = (%s, %v), want (%s, %v)", i, c.Workload, c.Spec.Scheme, want.wl, want.sch)
		}
		if c.Spec.Tree != masu.ToCLazy || c.Spec.TxSize != 512 || c.Spec.HardwareWPQ != 32 {
			t.Errorf("cell %d spec = %+v", i, c.Spec)
		}
	}
}

// FuzzNormalize feeds arbitrary submit bodies, decoded exactly as the
// submit handler decodes them, to normalize. It must never panic, and
// its output must be a fixed point: the request rebuilt from an
// accepted normalization normalizes to the same value and cache key,
// and every canonical name in it resolves when the grid is enumerated.
// The seed corpus lives under testdata/fuzz/FuzzNormalize.
func FuzzNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		n, err := normalize(req, Limits{})
		if err != nil {
			return
		}
		again, err := normalize(Request{
			Workloads: n.Workloads, Schemes: n.Schemes, Tree: n.Tree,
			Transactions: n.Transactions, TxSize: n.TxSize, Seed: n.Seed,
			WPQ: n.WPQ, NoCoalesce: n.NoCoalesce,
		}, Limits{})
		if err != nil {
			t.Fatalf("%s normalized to %+v, which normalize rejects: %v", body, n, err)
		}
		if !reflect.DeepEqual(again, n) || again.Key() != n.Key() {
			t.Fatalf("%s: normalize is not idempotent:\n%+v\nvs\n%+v", body, n, again)
		}
		if got, want := len(n.cells()), len(n.Workloads)*len(n.Schemes); got != want {
			t.Fatalf("%s: %d cells, want %d", body, got, want)
		}
	})
}
