package main

import (
	"slices"
	"strings"
	"testing"
)

// Out-of-range flags are rejected by name instead of being silently
// misread (-txns 0 ran the 1000-transaction default, -parallel -1 ran
// GOMAXPROCS workers, -format xml printed tables, -cores 2x ran 2 cores)
// or panicking (-txns -5 exhausted the YCSB generator's heap).
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		txns, parallel int
		format, cores  string
		window         int
		want           []int  // the parsed -cores list when accepted
		bad            string // flag named in the error, "" = accepted
	}{
		{1000, 0, "table", "1,2,4,8", 0, []int{1, 2, 4, 8}, ""},
		{1, 1, "csv", " 2, 4", 2, []int{2, 4}, ""},
		{50000, 8, "table", "1", 0, []int{1}, ""},
		{0, 0, "table", "1", 0, nil, "-txns"},
		{-5, 0, "table", "1", 0, nil, "-txns"},
		{1000, -1, "table", "1", 0, nil, "-parallel"},
		{1000, 0, "xml", "1", 0, nil, "-format"},
		{1000, 0, "", "1", 0, nil, "-format"},
		{1000, 0, "CSV", "1", 0, nil, "-format"},
		{1000, 0, "csv", "1", -1, nil, "-ooo-window"},
		{1000, 0, "table", "2x,4", 0, nil, "-cores"},
		{1000, 0, "table", "0", 0, nil, "-cores"},
		{1000, 0, "table", "1,,2", 0, nil, "-cores"},
	} {
		cores, err := checkFlags(c.txns, c.parallel, c.format, c.cores, c.window)
		switch {
		case c.bad == "" && (err != nil || !slices.Equal(cores, c.want)):
			t.Errorf("%+v: got %v, %v", c, cores, err)
		case c.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), c.bad+" ")):
			t.Errorf("%+v: error %v, want one naming %s", c, err, c.bad)
		}
	}
}
