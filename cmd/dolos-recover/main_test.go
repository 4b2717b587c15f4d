package main

import (
	"errors"
	"strings"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/whisper"
)

// Out-of-range flags are rejected by name instead of being silently
// misread: -txns -3 reported a clean recovery of an empty run, and an
// unknown -recovery fell back to Anubis. An unknown workload gets the
// whisper.ErrUnknown error dolos-sim gives for it.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		workload string
		txns     int
		recovery string
		mode     controller.RecoveryMode
		bad      string // flag named in the error, "" = accepted
	}{
		{"Hashmap", 200, "anubis", controller.AnubisRecovery, ""},
		{"Hashmap", 1, "osiris", controller.OsirisRecovery, ""},
		{"Hashmap", 20000, "anubis", controller.AnubisRecovery, ""},
		{"btree", 200, "anubis", controller.AnubisRecovery, ""},
		{"Hashmap", 0, "anubis", 0, "-txns"},
		{"Hashmap", -3, "anubis", 0, "-txns"},
		{"Hashmap", 20001, "osiris", 0, "-txns"},
		{"Hashmap", 200, "Osiris", 0, "-recovery"},
		{"Hashmap", 200, "", 0, "-recovery"},
		{"Bogus", 200, "anubis", 0, "-workload"},
	} {
		w, mode, err := checkFlags(c.workload, c.txns, c.recovery)
		switch {
		case c.bad == "" && (err != nil || w == nil || mode != c.mode):
			t.Errorf("%+v: got workload %v, mode %v, err %v", c, w, mode, err)
		case c.bad == "-workload" && !errors.Is(err, whisper.ErrUnknown):
			t.Errorf("%+v: error %v, want one wrapping whisper.ErrUnknown", c, err)
		case c.bad != "" && c.bad != "-workload" && (err == nil || !strings.HasPrefix(err.Error(), c.bad+" ")):
			t.Errorf("%+v: error %v, want one naming %s", c, err, c.bad)
		}
	}
}
