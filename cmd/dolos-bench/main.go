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
	"slices"
	"strconv"
	"strings"
	"time"

	"dolos/internal/core"
	"dolos/internal/whisper"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments to run: "+names(core.Experiments(nil, 0))+", or all")
	txns := flag.Int("txns", 1000, "measured transactions per run (paper: 50000)")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all six)")
	format := flag.String("format", "table", "output format: table or csv")
	seed := flag.Int64("seed", 1, "workload generator seed")
	parallel := flag.Int("parallel", 0, "concurrent simulations per sweep (0 = GOMAXPROCS, 1 = serial); tables are identical at any setting")
	coresFlag := flag.String("cores", "1,2,4,8", "comma-separated core counts for the contention experiment")
	oooWindow := flag.Int("ooo-window", 0, "OoO issue window for the contention experiment (0 = in-order)")
	flag.Parse()

	selected, wls, err := checkFlags(*exp, *workloads, *txns, *parallel, *format, *coresFlag, *oooWindow)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-bench: %v\n", err)
		os.Exit(2)
	}

	r := core.NewRunner(core.Options{Transactions: *txns, Seed: *seed, Parallelism: *parallel, Workloads: wls})
	for _, e := range selected {
		start := time.Now()
		if err := run(r, e, *format == "csv"); err != nil {
			fmt.Fprintf(os.Stderr, "dolos-bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e.Name, time.Since(start).Seconds())
	}
}

// checkFlags rejects flag values a sweep would misread — an -exp entry
// that names no experiment (which used to fail only after the entries
// before it had run), a -workloads entry that names no workload (which
// used to fail cell by cell after the valid workloads' cells had run),
// -txns below 1 (0 fell back to the 1000-transaction
// default, a negative count panicked in YCSB generation), a negative
// -parallel (which ran GOMAXPROCS workers), a -format other than table
// or csv, a -cores entry that is not a whole number or is 0, a -cores
// entry or -ooo-window core.CheckMachine refuses — and any cell of the
// selected experiments core.CheckExperiments refuses (a heap overflow
// used to fail once per cell after the sweep had started). It returns
// the selected experiments, in -exp order, and the canonical names of
// the -workloads subset (nil for all). -txns has no upper bound of its
// own: the paper's scale is 50000.
func checkFlags(exp, workloads string, txns, parallel int, format, cores string, window int) ([]core.Experiment, []string, error) {
	if txns < 1 {
		return nil, nil, fmt.Errorf("-txns %d: want at least 1", txns)
	}
	if parallel < 0 {
		return nil, nil, fmt.Errorf("-parallel %d: want 0 or more", parallel)
	}
	if format != "table" && format != "csv" {
		return nil, nil, fmt.Errorf("-format %q: want table or csv", format)
	}
	counts, err := parseCores(cores)
	if err != nil {
		return nil, nil, err
	}
	var wls []string
	if workloads != "" {
		for _, name := range strings.Split(workloads, ",") {
			canon, err := whisper.Resolve(strings.TrimSpace(name))
			if err != nil {
				return nil, nil, fmt.Errorf("-workloads entry %q: %w", name, err)
			}
			wls = append(wls, canon)
		}
	}
	for _, n := range counts {
		if err := core.CheckMachine(n, window); err != nil {
			return nil, nil, err
		}
	}
	selected := core.Experiments(counts, window)
	if exp != "all" {
		all := selected
		selected = nil
		for _, name := range strings.Split(exp, ",") {
			i := slices.IndexFunc(all, func(e core.Experiment) bool { return e.Name == strings.TrimSpace(name) })
			if i < 0 {
				return nil, nil, fmt.Errorf("-exp entry %q: want one of %s, or all", name, names(all))
			}
			selected = append(selected, all[i])
		}
	}
	if err := core.CheckExperiments(core.Options{Transactions: txns, Workloads: wls}, selected); err != nil {
		return nil, nil, err
	}
	return selected, wls, nil
}

// names lists the experiments' names for help and error text.
func names(exps []core.Experiment) string {
	s := make([]string, len(exps))
	for i, e := range exps {
		s[i] = e.Name
	}
	return strings.Join(s, ", ")
}

// parseCores parses the -cores list; checkFlags checks each count. A 0,
// which a Spec reads as one core, is refused as a slip.
func parseCores(cores string) ([]int, error) {
	var counts []int
	for _, s := range strings.Split(cores, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n == 0 {
			return nil, fmt.Errorf("-cores entry %q: want a whole number other than 0", s)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// run runs one experiment and prints its output: every table, in the
// selected format, or the experiment's own text.
func run(r *core.Runner, e core.Experiment, asCSV bool) error {
	if e.Text != nil {
		return e.Text(r, os.Stdout)
	}
	tables, err := e.Tables(r)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if asCSV {
			if t.Title != "" {
				fmt.Printf("# %s\n", t.Title)
			}
			fmt.Print(t.CSV())
			fmt.Println()
		} else {
			fmt.Println(t)
		}
	}
	return nil
}
