// Command dolos-bench regenerates the tables and figures of the Dolos
// paper's evaluation (Section 5). Each experiment prints the same rows
// and series the paper reports; EXPERIMENTS.md records a reference run.
//
// Usage:
//
//	dolos-bench -exp all -txns 1000
//	dolos-bench -exp fig12
//	dolos-bench -exp fig15 -workloads Hashmap,Redis
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dolos/internal/core"
	"dolos/internal/stats"
)

var experiments = []string{
	"fig6", "fig12", "table2", "fig13", "fig14", "fig15", "fig16",
	"table3", "recovery", "adr", "ablate-coalesce", "ablate-cc",
	"ablate-backend", "ablate-osiris", "eadr", "writes", "tail", "variance",
	"contention", "schemes", "validate",
}

// contention experiment knobs (set from flags in main).
var (
	contentionCores  []int
	contentionWindow int
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(experiments, ", ")+", or all")
	txns := flag.Int("txns", 1000, "measured transactions per run (paper: 50000)")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all six)")
	format := flag.String("format", "table", "output format: table or csv")
	seed := flag.Int64("seed", 1, "workload generator seed")
	parallel := flag.Int("parallel", 0, "concurrent simulations per sweep (0 = GOMAXPROCS, 1 = serial); tables are identical at any setting")
	coresFlag := flag.String("cores", "1,2,4,8", "comma-separated core counts for the contention experiment")
	oooWindow := flag.Int("ooo-window", 0, "OoO issue window for the contention experiment (0 = in-order)")
	fast := flag.Bool("fast", false, "latency-only crypto provider for every sweep cell (bit-identical tables, fraction of the wall-clock; crash/recovery experiments ignore it)")
	flag.Parse()

	var err error
	if contentionCores, err = checkFlags(*txns, *parallel, *format, *coresFlag, *oooWindow); err != nil {
		fmt.Fprintf(os.Stderr, "dolos-bench: %v\n", err)
		os.Exit(2)
	}
	contentionWindow = *oooWindow

	opts := core.Options{Transactions: *txns, Seed: *seed, Parallelism: *parallel, FastMode: *fast}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	r := core.NewRunner(opts)
	asCSV = *format == "csv"

	selected := experiments
	if *exp != "all" {
		selected = strings.Split(*exp, ",")
	}
	for _, e := range selected {
		start := time.Now()
		if err := run(r, strings.TrimSpace(e)); err != nil {
			fmt.Fprintf(os.Stderr, "dolos-bench: %s: %v\n", e, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e, time.Since(start).Seconds())
	}
}

// checkFlags rejects flag values a sweep would misread — -txns below 1
// (0 fell back to the 1000-transaction default, a negative count
// panicked in YCSB generation), a negative -parallel (which ran
// GOMAXPROCS workers), a -format other than table or csv, a -cores entry
// that is not a whole number of at least 1, and a negative -ooo-window —
// and returns the -cores list. -txns has no upper bound: the paper's
// scale is 50000.
func checkFlags(txns, parallel int, format, cores string, window int) ([]int, error) {
	if txns < 1 {
		return nil, fmt.Errorf("-txns %d: want at least 1", txns)
	}
	if parallel < 0 {
		return nil, fmt.Errorf("-parallel %d: want 0 or more", parallel)
	}
	if format != "table" && format != "csv" {
		return nil, fmt.Errorf("-format %q: want table or csv", format)
	}
	if window < 0 {
		return nil, fmt.Errorf("-ooo-window %d: want 0 or more", window)
	}
	var counts []int
	for _, s := range strings.Split(cores, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cores entry %q: want a whole number of at least 1", s)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// asCSV selects CSV output for tables.
var asCSV bool

// emit prints a table in the selected format.
func emit(t *stats.Table) {
	if asCSV {
		if t.Title != "" {
			fmt.Printf("# %s\n", t.Title)
		}
		fmt.Print(t.CSV())
		fmt.Println()
		return
	}
	fmt.Println(t)
}

func run(r *core.Runner, exp string) error {
	switch exp {
	case "fig6":
		t, err := r.Fig6()
		if err != nil {
			return err
		}
		emit(t)
	case "fig12":
		t, err := r.Fig12()
		if err != nil {
			return err
		}
		emit(t)
	case "table2":
		t, err := r.Table2()
		if err != nil {
			return err
		}
		emit(t)
	case "fig13":
		t, err := r.Fig13()
		if err != nil {
			return err
		}
		emit(t)
	case "fig14":
		t, err := r.Fig14()
		if err != nil {
			return err
		}
		emit(t)
	case "fig15":
		spd, rtr, err := r.Fig15()
		if err != nil {
			return err
		}
		emit(spd)
		emit(rtr)
	case "fig16":
		t, err := r.Fig16()
		if err != nil {
			return err
		}
		emit(t)
	case "table3":
		emit(core.Table3())
	case "recovery":
		fmt.Println("Section 5.5: Mi-SU recovery time estimates")
		for _, e := range core.Sec55Recovery() {
			fmt.Printf("%-18s entries=%-3d read=%-6d pads=%-5d drain=%-6d total=%d cycles (%.4f ms)\n",
				e.Design, e.Entries, e.ReadCycles, e.PadCycles, e.DrainCycles, e.TotalCycles, e.Milliseconds)
		}
		fmt.Println()
	case "adr":
		emit(core.ADRCompliance())
	case "ablate-coalesce":
		t, err := r.AblateCoalescing()
		if err != nil {
			return err
		}
		emit(t)
	case "ablate-cc":
		t, err := r.AblateCounterCache()
		if err != nil {
			return err
		}
		emit(t)
	case "ablate-backend":
		t, err := r.AblateBackend()
		if err != nil {
			return err
		}
		emit(t)
	case "ablate-osiris":
		t, err := r.AblateOsiris("Hashmap")
		if err != nil {
			return err
		}
		emit(t)
	case "eadr":
		t, err := r.EADRComparison()
		if err != nil {
			return err
		}
		emit(t)
	case "writes":
		t, err := r.WriteAmplification()
		if err != nil {
			return err
		}
		emit(t)
	case "tail":
		t, err := r.TailLatency()
		if err != nil {
			return err
		}
		emit(t)
	case "variance":
		t, err := r.SeedSweep(3)
		if err != nil {
			return err
		}
		emit(t)
	case "contention":
		t, err := r.Contention("Hashmap", contentionCores, contentionWindow)
		if err != nil {
			return err
		}
		emit(t)
	case "schemes":
		// Related-work comparison over the whole scheme registry:
		// single-core runtime + recovery axis, then the contended grid.
		t, err := r.SchemeComparison()
		if err != nil {
			return err
		}
		emit(t)
		t, err = r.SchemeContention("Hashmap", 2, contentionWindow)
		if err != nil {
			return err
		}
		emit(t)
	case "validate":
		claims, allPassed, err := r.Validate()
		if err != nil {
			return err
		}
		fmt.Print(core.FormatClaims(claims))
		if !allPassed {
			return fmt.Errorf("reproduction claims failed")
		}
		fmt.Println("\nall qualitative claims of the evaluation reproduce")
	default:
		return fmt.Errorf("unknown experiment %q (want one of %s)", exp, strings.Join(experiments, ", "))
	}
	return nil
}
