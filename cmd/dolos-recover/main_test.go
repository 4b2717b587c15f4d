package main

import (
	"strings"
	"testing"

	"dolos/internal/controller"
)

// Out-of-range flags are rejected by name instead of being silently
// misread: -txns -3 reported a clean recovery of an empty run, and an
// unknown -recovery fell back to Anubis.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		txns     int
		recovery string
		mode     controller.RecoveryMode
		bad      string // flag named in the error, "" = accepted
	}{
		{200, "anubis", controller.AnubisRecovery, ""},
		{1, "osiris", controller.OsirisRecovery, ""},
		{20000, "anubis", controller.AnubisRecovery, ""},
		{0, "anubis", 0, "-txns"},
		{-3, "anubis", 0, "-txns"},
		{20001, "osiris", 0, "-txns"},
		{200, "Osiris", 0, "-recovery"},
		{200, "", 0, "-recovery"},
	} {
		mode, err := checkFlags(c.txns, c.recovery)
		switch {
		case c.bad == "" && (err != nil || mode != c.mode):
			t.Errorf("%+v: got mode %v, err %v", c, mode, err)
		case c.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), c.bad+" ")):
			t.Errorf("%+v: error %v, want one naming %s", c, err, c.bad)
		}
	}
}
