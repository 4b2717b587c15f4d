package main

import (
	"strings"
	"testing"
)

// Out-of-range numeric flags are rejected by name instead of generating
// a trace no simulation would accept.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		txns, txSize int
		bad          string // flag named in the error, "" = accepted
	}{
		{200, 1024, ""},
		{1, 64, ""},
		{20000, 4096, ""},
		{0, 1024, "-txns"},
		{-3, 1024, "-txns"},
		{20001, 1024, "-txns"},
		{200, 5, "-txsize"},
		{200, -1, "-txsize"},
		{200, 4097, "-txsize"},
	} {
		err := checkFlags(c.txns, c.txSize)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), c.bad+" ")):
			t.Errorf("%+v: error %v, want one naming %s", c, err, c.bad)
		}
	}
}
