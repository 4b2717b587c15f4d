package main

import (
	"errors"
	"strings"
	"testing"

	"dolos/internal/whisper"
)

// Out-of-range numeric flags are rejected by name instead of generating
// a trace no simulation would accept, and an unknown workload with the
// whisper.ErrUnknown error dolos-sim gives for it.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		workload     string
		txns, txSize int
		bad          string // flag named in the error, "" = accepted
	}{
		{"Hashmap", 200, 1024, ""},
		{"Hashmap", 1, 64, ""},
		{"Hashmap", 20000, 4096, ""},
		{"nstore-ycsb", 200, 1024, ""},
		{"Hashmap", 0, 1024, "-txns"},
		{"Hashmap", -3, 1024, "-txns"},
		{"Hashmap", 20001, 1024, "-txns"},
		{"Hashmap", 200, 5, "-txsize"},
		{"Hashmap", 200, -1, "-txsize"},
		{"Hashmap", 200, 4097, "-txsize"},
		{"Bogus", 200, 1024, "-workload"},
	} {
		w, err := checkFlags(c.workload, c.txns, c.txSize)
		switch {
		case c.bad == "" && (err != nil || w == nil):
			t.Errorf("%+v: rejected: %v", c, err)
		case c.bad == "-workload" && !errors.Is(err, whisper.ErrUnknown):
			t.Errorf("%+v: error %v, want one wrapping whisper.ErrUnknown", c, err)
		case c.bad != "" && c.bad != "-workload" && (err == nil || !strings.HasPrefix(err.Error(), c.bad+" ")):
			t.Errorf("%+v: error %v, want one naming %s", c, err, c.bad)
		}
	}
}

// Runs whose trace could overflow the workload's persistent heap are
// rejected before generation: Hashmap, Btree and Redis at 20,000
// transactions of 4 KB used to panic with heap exhausted.
func TestCheckHeap(t *testing.T) {
	for _, c := range []struct {
		workload     string
		txns, txSize int
		reject       bool
	}{
		{"Hashmap", 20000, 4096, true},
		{"Btree", 20000, 4096, true},
		{"Redis", 20000, 4096, true},
		{"NStore:YCSB", 20000, 4096, false},
		{"Hashmap", 20000, 1024, false},
		{"Btree", 20000, 1024, false},
		{"Redis", 20000, 1024, false},
		{"Hashmap", 1, 4096, false},
	} {
		w, err := whisper.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		err = checkHeap(w, c.txns, c.txSize)
		switch {
		case !c.reject && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.reject && (err == nil || !strings.Contains(err.Error(), "txns 20000 with txsize 4096")):
			t.Errorf("%+v: error %v, want one naming txns and txsize", c, err)
		}
	}
}
