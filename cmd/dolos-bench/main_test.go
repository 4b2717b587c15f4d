package main

import (
	"slices"
	"strings"
	"testing"

	"dolos/internal/core"
)

// Out-of-range flags are rejected by name instead of being silently
// misread (-txns 0 ran the 1000-transaction default, -parallel -1 ran
// GOMAXPROCS workers, -format xml printed tables, -cores 2x ran 2 cores),
// panicking (-txns -5 exhausted the YCSB generator's heap, -cores 65 read
// outside the data region) or failing only after earlier experiments had
// run (-exp table3,bogus).
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		exp            string
		txns, parallel int
		format, cores  string
		window         int
		want           []int  // the parsed -cores list when accepted
		bad            string // flag named in the error, "" = accepted
	}{
		{"all", 1000, 0, "table", "1,2,4,8", 0, []int{1, 2, 4, 8}, ""},
		{"fig6", 1, 1, "csv", " 2, 4", 2, []int{2, 4}, ""},
		{"all", 50000, 8, "table", "1", 0, []int{1}, ""},
		{"table2, fig6", 1000, 0, "table", "64", 0, []int{64}, ""},
		{"all", 0, 0, "table", "1", 0, nil, "-txns"},
		{"all", -5, 0, "table", "1", 0, nil, "-txns"},
		{"all", 1000, -1, "table", "1", 0, nil, "-parallel"},
		{"all", 1000, 0, "xml", "1", 0, nil, "-format"},
		{"all", 1000, 0, "", "1", 0, nil, "-format"},
		{"all", 1000, 0, "CSV", "1", 0, nil, "-format"},
		{"all", 1000, 0, "csv", "1", -1, nil, "-ooo-window"},
		{"all", 1000, 0, "table", "2x,4", 0, nil, "-cores"},
		{"all", 1000, 0, "table", "0", 0, nil, "-cores"},
		{"all", 1000, 0, "table", "1,,2", 0, nil, "-cores"},
		{"contention", 1000, 0, "table", "1,65", 0, nil, "-cores"},
		{"table3,bogus", 1000, 0, "table", "1", 0, nil, "-exp"},
		{"", 1000, 0, "table", "1", 0, nil, "-exp"},
	} {
		exps, _, err := checkFlags(c.exp, "", c.txns, c.parallel, c.format, c.cores, c.window)
		cores, _ := parseCores(c.cores)
		switch {
		case c.bad == "" && (err != nil || !slices.Equal(cores, c.want)):
			t.Errorf("%+v: got %v, %v", c, cores, err)
		case c.bad == "" && !slices.Equal(selectedNames(exps), wantNames(c.exp)):
			t.Errorf("%+v: selected %v", c, selectedNames(exps))
		case c.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), c.bad+" ")):
			t.Errorf("%+v: error %v, want one naming %s", c, err, c.bad)
		}
	}
}

// TestCheckFlagsWorkloads: every -workloads entry resolves to its
// canonical name before any cell runs; one that names no workload is
// rejected by name.
func TestCheckFlagsWorkloads(t *testing.T) {
	for _, c := range []struct {
		workloads string
		want      []string // canonical names when accepted
		bad       string   // quoted entry named in the error, "" = accepted
	}{
		{"", nil, ""},
		{"Hashmap", []string{"Hashmap"}, ""},
		{"hashmap, ycsb,Redis", []string{"Hashmap", "NStore:YCSB", "Redis"}, ""},
		{"Hashmap,Bogus", nil, `"Bogus"`},
		{"Hashmap,,Btree", nil, `""`},
	} {
		_, wls, err := checkFlags("fig6", c.workloads, 10, 0, "table", "1", 0)
		switch {
		case c.bad == "" && (err != nil || !slices.Equal(wls, c.want)):
			t.Errorf("-workloads %q: got %v, %v; want %v", c.workloads, wls, err, c.want)
		case c.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), "-workloads entry "+c.bad+":")):
			t.Errorf("-workloads %q: error %v, want one naming the entry %s", c.workloads, err, c.bad)
		}
	}
}

func selectedNames(exps []core.Experiment) []string {
	var out []string
	for _, e := range exps {
		out = append(out, e.Name)
	}
	return out
}

// wantNames is the selection -exp asks for: every experiment for "all",
// else the listed names in order.
func wantNames(exp string) []string {
	if exp == "all" {
		return selectedNames(core.Experiments(nil, 0))
	}
	var out []string
	for _, n := range strings.Split(exp, ",") {
		out = append(out, strings.TrimSpace(n))
	}
	return out
}
