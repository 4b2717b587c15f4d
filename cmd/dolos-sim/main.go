// Command dolos-sim runs one simulation: a workload under a controller
// scheme, printing the timing result and controller statistics.
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
	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/sim"
	"dolos/internal/telemetry"
	"dolos/internal/whisper"
)

func main() {
	workload := flag.String("workload", "Hashmap", "workload: Hashmap, Ctree, Btree, RBtree, NStore:YCSB, Redis")
	scheme := flag.String("scheme", "dolos-partial", "scheme: "+strings.Join(cliutil.SchemeNames(), ", "))
	tree := flag.String("tree", "eager", "integrity backend: eager (BMT) or lazy (ToC)")
	txns := flag.Int("txns", 1000, "measured transactions")
	txSize := flag.Int("txsize", 1024, fmt.Sprintf("transaction payload bytes (%d-%d)", cliutil.MinTxSize, cliutil.MaxTxSize))
	wpqSize := flag.Int("wpq", 16, fmt.Sprintf("hardware WPQ entries (%d-%d)", cliutil.MinWPQ, cliutil.MaxWPQ))
	seed := flag.Int64("seed", 1, "workload seed")
	noCoalesce := flag.Bool("no-coalesce", false, "disable WPQ write coalescing")
	cores := flag.Int("cores", 1, "workload instances contending for one shared controller")
	oooWindow := flag.Int("ooo-window", 0, "out-of-order read window (0 or 1 = in-order core)")
	showStats := flag.Bool("stats", false, "dump controller counters")
	jsonOut := flag.Bool("json", false, "emit the run result as JSON on stdout instead of text")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this path")
	fast := flag.Bool("fast", false, "latency-only crypto provider (bit-identical timing, no real AES/SHA-256)")
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

	w, err := whisper.ByName(*workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-sim: %v\n", err)
		os.Exit(1)
	}
	if err := checkHeap(w, *txns, *txSize); err != nil {
		fmt.Fprintf(os.Stderr, "dolos-sim: %v\n", err)
		os.Exit(2)
	}

	cfg := controller.Config{
		Scheme:            sch,
		Tree:              kind,
		HardwareWPQ:       *wpqSize,
		DisableCoalescing: *noCoalesce,
		FastMode:          *fast,
	}
	cfg.AESKey, cfg.MACKey = cliutil.DemoKeys("sim")
	// Some schemes pin the integrity backend (Phoenix is the lazy ToC by
	// definition); report the one the controller actually simulates.
	kind = cfg.EffectiveTree()

	// Core i runs its own instance of the workload (per-core seed,
	// disjoint heap); core 0's trace is the single-core trace.
	specs := make([]cpu.CoreSpec, *cores)
	for i := range specs {
		coreSeed := cpu.CoreSeed(*seed, i)
		specs[i] = cpu.CoreSpec{
			Workload: w.Name(),
			Seed:     coreSeed,
			Trace: w.Generate(whisper.Params{
				Transactions: *txns, TxSize: *txSize, Seed: coreSeed, HeapBase: cpu.CoreHeapBase(i),
			}),
		}
	}
	m := cpu.NewMachine(cpu.MachineConfig{Ctrl: cfg, Window: *oooWindow}, specs)
	if *traceOut != "" {
		// The probe is attached only on request: without -trace the run
		// takes the uninstrumented (nil-probe) fast path.
		m.SetProbe(newTraceProbe(m.Eng.Now, traceEventLimit))
	}
	start := time.Now()
	res := m.Run()
	wall := time.Since(start)

	if *traceOut != "" {
		if err := writeTrace(*traceOut, m.Probe()); err != nil {
			fmt.Fprintf(os.Stderr, "dolos-sim: %v\n", err)
			os.Exit(1)
		}
		reportDropped(os.Stderr, m.Probe())
	}

	if *jsonOut {
		var reg *telemetry.Registry
		if p := m.Probe(); p != nil {
			reg = p.Registry()
		}
		rec := cliutil.BuildRunRecord(res, kind, *txSize, *seed, m.Eng.Processed(), wall, m.Ctrl.Stats(), reg)
		rec.Mode = cliutil.ModeLabel(cfg.FastMode)
		if err := telemetry.WriteJSON(os.Stdout, rec); err != nil {
			fmt.Fprintf(os.Stderr, "dolos-sim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// A multi-core run's cycles are the slowest core's, and its
	// transactions and fence stalls are summed over cores.
	if res.Cores > 1 {
		fmt.Printf("workload          %s × %d cores (OoO window %d)\n", res.Workload, res.Cores, res.OoOWindow)
	} else {
		fmt.Printf("workload          %s\n", res.Workload)
	}
	fmt.Printf("scheme            %s (%s, %d-entry hardware WPQ, %dB tx)\n",
		res.Scheme, kind, *wpqSize, *txSize)
	fmt.Printf("cycles            %d\n", res.Cycles)
	fmt.Printf("transactions      %d\n", res.Transactions)
	fmt.Printf("cycles/tx         %.0f\n", res.CyclesPerTx)
	fmt.Printf("CPI (per op)      %.2f\n", res.CPI)
	fmt.Printf("fence stalls      %d cycles\n", res.FenceStalls)
	fmt.Printf("write requests    %d\n", res.WriteRequests)
	fmt.Printf("retry events      %d (%.2f per KWR)\n", res.RetryEvents, res.RetryPerKWR)
	fmt.Printf("WPQ read hits     %d\n", res.WPQReadHits)
	fmt.Printf("mem reads         %d\n", res.MemReads)
	fmt.Printf("mean interarrival %.0f cycles\n", res.MeanInterarrival)
	fmt.Printf("mean WPQ occupancy %.1f entries\n", res.WPQMeanOccupancy)
	if res.Prefetches > 0 {
		fmt.Printf("prefetches        %d\n", res.Prefetches)
	}
	for _, pc := range res.PerCore {
		fmt.Printf("core %d            %s seed %d: %d cycles, %d tx, %d grants, %d wait cycles\n",
			pc.Core, pc.Workload, pc.Seed, pc.Cycles, pc.Transactions, pc.ArbGrants, pc.ArbWaitCycles)
	}

	if *showStats {
		fmt.Println("\ncontroller counters:")
		fmt.Print(m.Ctrl.Stats())
		var l1h, l1m, l2h, l2m, llch, llcm uint64
		for _, c := range m.Cores {
			h := c.Hier()
			l1h, l1m = l1h+h.L1().Hits(), l1m+h.L1().Misses()
			l2h, l2m = l2h+h.L2().Hits(), l2m+h.L2().Misses()
			llch, llcm = llch+h.LLC().Hits(), llcm+h.LLC().Misses()
		}
		fmt.Printf("\ncache hit rates: L1 %.1f%%  L2 %.1f%%  LLC %.1f%%\n",
			hitRate(l1h, l1m), hitRate(l2h, l2m), hitRate(llch, llcm))
		cc, mc := m.Ctrl.MetaCaches()
		fmt.Printf("metadata caches: counter %.1f%%  MT %.1f%%\n",
			hitRate(cc.Hits(), cc.Misses()),
			hitRate(mc.Hits(), mc.Misses()))
	}
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

// checkHeap rejects a run whose trace could overflow the workload's
// persistent heap (every core's heap has the default size).
func checkHeap(w whisper.Workload, txns, txSize int) error {
	return whisper.CheckHeap(w, whisper.Params{Transactions: txns, TxSize: txSize})
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
