// Command dolos-sim runs one simulation: a workload under a controller
// scheme, printing the timing result and controller statistics. The
// cell is the one core.Runner builds for the same Spec, so its record
// matches the grid's.
//
// Usage:
//
//	dolos-sim -workload Hashmap -scheme dolos-partial -txns 1000
//	dolos-sim -workload Redis -scheme baseline -tree lazy -txsize 512
//	dolos-sim -workload Btree -scheme dolos-full -wpq 32 -stats
//	dolos-sim -workload Hashmap -json                      # machine-readable result
//	dolos-sim -workload Hashmap -trace run.json            # Perfetto/Chrome trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dolos/internal/cliutil"
	"dolos/internal/core"
	"dolos/internal/cpu"
	"dolos/internal/sim"
	"dolos/internal/telemetry"
)

func main() {
	workload := flag.String("workload", "Hashmap", "workload: Hashmap, Ctree, Btree, RBtree, NStore:YCSB, Redis")
	scheme := flag.String("scheme", "dolos-partial", "scheme: "+strings.Join(cliutil.SchemeNames(), ", "))
	tree := flag.String("tree", "eager", "integrity backend: eager (BMT) or lazy (ToC)")
	txns := flag.Int("txns", 1000, "measured transactions")
	txSize := flag.Int("txsize", 1024, fmt.Sprintf("transaction payload bytes (%d-%d)", cliutil.MinTxSize, cliutil.MaxTxSize))
	wpqSize := flag.Int("wpq", 16, fmt.Sprintf("hardware WPQ entries (%d-%d)", cliutil.MinWPQ, cliutil.MaxWPQ))
	seed := flag.Int64("seed", 1, "workload seed (0 means 1)")
	noCoalesce := flag.Bool("no-coalesce", false, "disable WPQ write coalescing")
	cores := flag.Int("cores", 1, "workload instances contending for one shared controller")
	oooWindow := flag.Int("ooo-window", 0, "out-of-order read window (0 or 1 = in-order core)")
	showStats := flag.Bool("stats", false, "dump controller counters")
	jsonOut := flag.Bool("json", false, "emit the run result as JSON on stdout instead of text")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this path")
	flag.Parse()

	if err := checkFlags(*txns, *txSize, *wpqSize, *cores, *oooWindow); err != nil {
		fmt.Fprintf(os.Stderr, "dolos-sim: %v\n", err)
		os.Exit(2)
	}
	sch, err := cliutil.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-sim: %v\n", err)
		os.Exit(2)
	}
	kind, err := cliutil.ParseTree(*tree)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-sim: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(config{
		workload: *workload,
		opts:     core.Options{Transactions: *txns, Seed: *seed},
		spec: core.Spec{Scheme: sch, Tree: kind, TxSize: *txSize, HardwareWPQ: *wpqSize,
			DisableCoalescing: *noCoalesce, Cores: *cores, OoOWindow: *oooWindow},
		stats: *showStats,
		json:  *jsonOut,
		trace: *traceOut,
	}, os.Stdout, os.Stderr))
}

// config is one dolos-sim run: the cell, as core.Runner builds it, and
// what to report about it.
type config struct {
	workload string
	opts     core.Options
	spec     core.Spec
	stats    bool   // -stats: controller counters and cache hit rates
	json     bool   // -json: a RunRecord instead of text
	trace    string // -trace: path of the Chrome trace, "" for none
}

// run simulates the cell c names and writes its report to stdout and
// any error to stderr. It returns the exit code: 2 for a cell the flags
// make impossible (an unknown workload, or a trace that could overflow
// its persistent heap), 1 when the report cannot be written.
func run(c config, stdout, stderr io.Writer) int {
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "dolos-sim: %v\n", err)
		return code
	}
	r := core.NewRunner(c.opts)
	m, err := r.Machine(c.workload, c.spec)
	if err != nil {
		return fail(2, err)
	}
	if c.trace != "" {
		// The probe is attached only on request: without -trace the run
		// takes the uninstrumented (nil-probe) fast path.
		m.SetProbe(newTraceProbe(m.Eng.Now, traceEventLimit))
	}
	start := time.Now()
	res := m.Run()
	wall := time.Since(start)

	if c.trace != "" {
		if err := writeTrace(c.trace, m.Probe()); err != nil {
			return fail(1, err)
		}
		reportDropped(stderr, m.Probe())
	}

	// Some schemes pin the integrity backend (Phoenix is the lazy ToC by
	// definition); report the one the controller actually simulates.
	kind := c.spec.EffectiveTree()
	if c.json {
		var reg *telemetry.Registry
		if p := m.Probe(); p != nil {
			reg = p.Registry()
		}
		rec := cliutil.BuildRunRecord(res, kind, c.spec.TxSize, r.Options().Seed, m.Eng.Processed(), wall, m.Ctrl.Stats(), reg)
		if err := telemetry.WriteJSON(stdout, rec); err != nil {
			return fail(1, err)
		}
		return 0
	}

	// A multi-core run's cycles are the slowest core's, and its
	// transactions and fence stalls are summed over cores.
	if res.Cores > 1 {
		fmt.Fprintf(stdout, "workload          %s × %d cores (OoO window %d)\n", res.Workload, res.Cores, res.OoOWindow)
	} else {
		fmt.Fprintf(stdout, "workload          %s\n", res.Workload)
	}
	fmt.Fprintf(stdout, "scheme            %s (%s, %d-entry hardware WPQ, %dB tx)\n",
		res.Scheme, kind, c.spec.HardwareWPQ, c.spec.TxSize)
	fmt.Fprintf(stdout, "cycles            %d\n", res.Cycles)
	fmt.Fprintf(stdout, "transactions      %d\n", res.Transactions)
	fmt.Fprintf(stdout, "cycles/tx         %.0f\n", res.CyclesPerTx)
	fmt.Fprintf(stdout, "CPI (per op)      %.2f\n", res.CPI)
	fmt.Fprintf(stdout, "fence stalls      %d cycles\n", res.FenceStalls)
	fmt.Fprintf(stdout, "write requests    %d\n", res.WriteRequests)
	fmt.Fprintf(stdout, "retry events      %d (%.2f per KWR)\n", res.RetryEvents, res.RetryPerKWR)
	fmt.Fprintf(stdout, "WPQ read hits     %d\n", res.WPQReadHits)
	fmt.Fprintf(stdout, "mem reads         %d\n", res.MemReads)
	fmt.Fprintf(stdout, "mean interarrival %.0f cycles\n", res.MeanInterarrival)
	fmt.Fprintf(stdout, "mean WPQ occupancy %.1f entries\n", res.WPQMeanOccupancy)
	if res.Prefetches > 0 {
		fmt.Fprintf(stdout, "prefetches        %d\n", res.Prefetches)
	}
	for _, pc := range res.PerCore {
		fmt.Fprintf(stdout, "core %d            %s seed %d: %d cycles, %d tx, %d grants, %d wait cycles\n",
			pc.Core, pc.Workload, pc.Seed, pc.Cycles, pc.Transactions, pc.ArbGrants, pc.ArbWaitCycles)
	}

	if c.stats {
		fmt.Fprintln(stdout, "\ncontroller counters:")
		fmt.Fprint(stdout, m.Ctrl.Stats())
		var l1h, l1m, l2h, l2m, llch, llcm uint64
		for _, mc := range m.Cores {
			h := mc.Hier()
			l1h, l1m = l1h+h.L1().Hits(), l1m+h.L1().Misses()
			l2h, l2m = l2h+h.L2().Hits(), l2m+h.L2().Misses()
			llch, llcm = llch+h.LLC().Hits(), llcm+h.LLC().Misses()
		}
		fmt.Fprintf(stdout, "\ncache hit rates: L1 %.1f%%  L2 %.1f%%  LLC %.1f%%\n",
			hitRate(l1h, l1m), hitRate(l2h, l2m), hitRate(llch, llcm))
		cc, mc := m.Ctrl.MetaCaches()
		fmt.Fprintf(stdout, "metadata caches: counter %.1f%%  MT %.1f%%\n",
			hitRate(cc.Hits(), cc.Misses()),
			hitRate(mc.Hits(), mc.Misses()))
	}
	return 0
}

// checkFlags rejects numeric flags outside the ranges a run accepts:
// the /v2 API's bounds for -txns, -txsize and -wpq, 1 to cpu.MaxCores
// cores (more cores' heaps do not fit the data region), and a
// non-negative OoO window.
func checkFlags(txns, txSize, wpq, cores, window int) error {
	for _, c := range []struct {
		name      string
		v, lo, hi int
	}{
		{"-txns", txns, 1, cliutil.MaxTransactions},
		{"-txsize", txSize, cliutil.MinTxSize, cliutil.MaxTxSize},
		{"-wpq", wpq, cliutil.MinWPQ, cliutil.MaxWPQ},
	} {
		if err := cliutil.CheckRange(c.name, c.v, c.lo, c.hi); err != nil {
			return err
		}
	}
	if cores < 1 || cores > cpu.MaxCores {
		return fmt.Errorf("-cores %d: want 1 to %d", cores, cpu.MaxCores)
	}
	if window < 0 {
		return fmt.Errorf("-ooo-window %d: want 0 or more", window)
	}
	return nil
}

// traceEventLimit caps the probe events a -trace run keeps. A
// 200-transaction Hashmap run records about 47,000, so runs some forty
// times that size are traced whole, while one at the 20,000-transaction
// bound would otherwise hold about a hundred times that in memory.
const traceEventLimit = 2_000_000

// newTraceProbe returns the probe of a -trace run, which keeps the
// first limit events and counts the rest as dropped.
func newTraceProbe(now func() sim.Cycle, limit int) *telemetry.Probe {
	p := telemetry.NewProbe(now)
	p.SetEventLimit(limit)
	return p
}

// reportDropped tells w how many events the probe's limit dropped from
// the trace, if any.
func reportDropped(w io.Writer, p *telemetry.Probe) {
	if n := p.Dropped(); n > 0 {
		fmt.Fprintf(w, "dolos-sim: trace truncated: %d probe events past the limit were dropped\n", n)
	}
}

func writeTrace(path string, p *telemetry.Probe) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
