package main

import (
	"strings"
	"testing"
)

// Out-of-range numeric flags are rejected by name instead of being
// silently misread (-txns 0 used to run the default 1024 transactions,
// -wpq 0 ran 16 entries, -txsize -1 panicked).
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		txns, txSize, wpq, cores, window int
		bad                              string // flag named in the error, "" = accepted
	}{
		{1000, 1024, 16, 1, 0, ""},
		{1, 64, 1, 4, 2, ""},
		{20000, 4096, 1024, 1, 1, ""},
		{0, 1024, 16, 1, 0, "-txns"},
		{-5, 1024, 16, 1, 0, "-txns"},
		{20001, 1024, 16, 1, 0, "-txns"},
		{1000, -1, 16, 1, 0, "-txsize"},
		{1000, 63, 16, 1, 0, "-txsize"},
		{1000, 4097, 16, 1, 0, "-txsize"},
		{1000, 1024, 0, 1, 0, "-wpq"},
		{1000, 1024, -4, 2, 0, "-wpq"},
		{1000, 1024, 1025, 1, 0, "-wpq"},
		{1000, 1024, 16, 0, 0, "-cores"},
		{1000, 1024, 16, 1, -3, "-ooo-window"},
	} {
		err := checkFlags(c.txns, c.txSize, c.wpq, c.cores, c.window)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), c.bad+" ")):
			t.Errorf("%+v: error %v, want one naming %s", c, err, c.bad)
		}
	}
}
