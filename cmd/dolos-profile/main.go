// Command dolos-profile runs one scheme×workload simulation with the
// telemetry probe enabled and exports the run's timeline as Chrome
// trace-event JSON (loadable in ui.perfetto.dev or chrome://tracing)
// plus a flat metrics JSON dump. It is the observability entry point for
// answering *why* a scheme wins: where a persist's critical path stalls,
// how WPQ occupancy evolves around commit bursts, and what occupies the
// Mi-SU/Ma-SU engines and the NVM banks.
//
// Usage:
//
//	dolos-profile -scheme DolosPartial -workload Hashmap
//	dolos-profile -scheme baseline -workload Redis -trace base.json -metrics base-metrics.json
//	dolos-profile -grid -o BENCH_baseline.json   # fixed-seed bench grid, no trace
//	dolos-profile -grid -o BENCH_pr5.json -compare BENCH_baseline.json  # bit-identity + perf delta
//	dolos-profile -workload Hashmap -prom -      # Prometheus text exposition on stdout
//	dolos-profile -grid -cpuprofile cpu.pprof    # host-side hot-path hunt (go tool pprof)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"dolos/internal/cliutil"
	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/masu"
	"dolos/internal/mcore"
	schemereg "dolos/internal/scheme"
	"dolos/internal/telemetry"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

func main() {
	// The actual work lives in run so pprof teardown (deferred) happens
	// before the process exits; os.Exit in main would skip it.
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "Hashmap", "workload: Hashmap, Ctree, Btree, RBtree, NStore:YCSB, Redis")
	scheme := flag.String("scheme", "DolosPartial", "controller scheme (any spelling: dolos-partial, DolosPartial, Dolos-Partial-WPQ)")
	tree := flag.String("tree", "eager", "integrity backend: eager (BMT) or lazy (ToC)")
	txns := flag.Int("txns", 200, "measured transactions")
	txSize := flag.Int("txsize", 1024, "transaction payload bytes (128-2048)")
	wpqSize := flag.Int("wpq", 16, "hardware WPQ entries")
	seed := flag.Int64("seed", 1, "workload seed")
	traceOut := flag.String("trace", "trace.json", "Chrome trace-event JSON output path")
	metricsOut := flag.String("metrics", "metrics.json", "metrics JSON output path")
	promOut := flag.String("prom", "", "also write the run's metrics in Prometheus text exposition format to this path (\"-\" = stdout)")
	eventLimit := flag.Int("event-limit", 2_000_000, "max retained trace events (0 = unlimited)")
	grid := flag.Bool("grid", false, "run the fixed-seed scheme×workload bench grid instead of one profiled run")
	gridOut := flag.String("o", "BENCH_baseline.json", "bench grid JSON output path")
	parallel := flag.Int("parallel", 0, "concurrent grid simulations (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
	compare := flag.String("compare", "", "grid mode: verify deterministic fields bit-identical against this trajectory file and report the throughput delta (exit 1 on divergence)")
	mcoreExt := flag.Bool("mcore", false, "grid mode: append multi-core contention records (shared-controller cells at 2 and 4 cores) after the legacy grid")
	relatedExt := flag.Bool("related", false, "grid mode: append related-work scheme records (Triad-NVM, SuperMem, Phoenix, STUM with recovery_cycles) after the legacy grid")
	fast := flag.Bool("fast", false, "single run: use the latency-only crypto provider; grid mode: append fast-mode re-runs of the legacy cells, checked bit-identical in-run")
	repeat := flag.Int("repeat", 1, "grid mode: run each cell this many times and keep the fastest wall time (deterministic fields are identical across runs, so only the throughput axis changes)")
	cpuProfile := flag.String("cpuprofile", "", "write a host-side CPU profile (go tool pprof) to this path")
	memProfile := flag.String("memprofile", "", "write a host-side heap profile (after GC) to this path on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dolos-profile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dolos-profile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "dolos-profile: %v\n", err)
			}
		}()
	}

	if *grid {
		if err := runGrid(*gridOut, *txns, *txSize, *parallel, *compare, *relatedExt, *mcoreExt, *fast, *repeat); err != nil {
			fmt.Fprintf(os.Stderr, "dolos-profile: %v\n", err)
			return 1
		}
		return 0
	}

	sch, err := cliutil.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-profile: %v\n", err)
		return 2
	}
	kind, err := cliutil.ParseTree(*tree)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-profile: %v\n", err)
		return 2
	}
	w, err := whisper.ByName(*workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-profile: %v\n", err)
		return 1
	}
	tr := w.Generate(whisper.Params{Transactions: *txns, TxSize: *txSize, Seed: *seed})

	cfg := controller.Config{Scheme: sch, Tree: kind, HardwareWPQ: *wpqSize, FastMode: *fast}
	cfg.AESKey, cfg.MACKey = cliutil.DemoKeys("profile")
	var sys *cpu.System
	var res cpu.Result
	var wall time.Duration
	var probe *telemetry.Probe
	// The profile labels let `go tool pprof -tagfocus` split host CPU by
	// crypto provider, so a -cpuprofile of a mixed session attributes
	// SHA-256 time to the runs that actually paid it.
	pprof.Do(context.Background(), runLabels(cfg), func(context.Context) {
		sys = cpu.NewSystem(cfg)
		probe = telemetry.NewProbe(sys.Eng.Now)
		probe.SetEventLimit(*eventLimit)
		sys.SetProbe(probe)
		start := time.Now()
		res = sys.Run(tr)
		wall = time.Since(start)
	})

	if err := writeTrace(*traceOut, probe); err != nil {
		fmt.Fprintf(os.Stderr, "dolos-profile: %v\n", err)
		return 1
	}
	rec := cliutil.BuildRunRecord(res, kind, *txSize, *seed, sys.Eng.Processed(), wall, sys.Ctrl.Stats(), probe.Registry())
	rec.Mode = cliutil.ModeLabel(cfg.FastMode)
	if err := writeMetrics(*metricsOut, rec); err != nil {
		fmt.Fprintf(os.Stderr, "dolos-profile: %v\n", err)
		return 1
	}
	if *promOut != "" {
		// The same exposition renderer the service's /metrics endpoint
		// uses, over the identical snapshot the JSON dump carries — so a
		// one-shot profile can feed the same dashboards as the daemon.
		if err := writeProm(*promOut, rec.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "dolos-profile: %v\n", err)
			return 1
		}
	}

	fmt.Printf("profiled %s under %s: %d cycles, %d transactions\n",
		res.Workload, res.Scheme, res.Cycles, res.Transactions)
	fmt.Printf("trace    %s (%d events on %d tracks", *traceOut, probe.Len(), len(probe.TrackNames()))
	if d := probe.Dropped(); d > 0 {
		fmt.Printf(", %d dropped by -event-limit", d)
	}
	fmt.Printf(")\nmetrics  %s\n", *metricsOut)
	fmt.Println("open the trace at https://ui.perfetto.dev or chrome://tracing")
	return 0
}

// writeHeapProfile forces a GC so the heap profile reflects live objects,
// then writes it — the standard -memprofile teardown.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

func writeProm(path string, snap telemetry.MetricsSnapshot) error {
	if path == "-" {
		return telemetry.WritePrometheus(os.Stdout, snap)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WritePrometheus(f, snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMetrics(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runGrid executes the fixed-seed scheme×workload grid whose records
// seed BENCH_baseline.json — the per-PR perf trajectory. No probe is
// attached: the grid measures the plain simulator, and its cycle counts
// must stay bit-identical whenever a PR claims zero timing impact.
// Cells run concurrently (one independent system each; the trace per
// workload is generated once up front and replayed read-only), but
// records and report lines are assembled in enumeration order, so the
// output is identical at every -parallel setting.
//
// When comparePath is non-empty the freshly produced records are checked
// field-by-field against that trajectory file: any deterministic-field
// divergence is an error (the timing model changed), while the host-side
// throughput fields are summarized as a speedup ratio.
//
// With fastExt the legacy cells are re-run with the latency-only provider
// (mode "fast") and each re-run is diffed in-run against its functional
// record: a single divergent deterministic field fails the grid. The
// extension records append after the mcore block.
func runGrid(path string, txns, txSize, parallel int, comparePath string, relatedExt, mcoreExt, fastExt bool, repeat int) error {
	schemes := []controller.Scheme{
		controller.PreWPQSecure,
		controller.DolosFull,
		controller.DolosPartial,
		controller.DolosPost,
	}
	workloads := []string{"Hashmap", "Btree"}
	const gridSeed = 1

	var cells []gridCell
	for _, wl := range workloads {
		w, err := whisper.ByName(wl)
		if err != nil {
			return err
		}
		tr := w.Generate(whisper.Params{Transactions: txns, TxSize: txSize, Seed: gridSeed})
		for _, sch := range schemes {
			cells = append(cells, gridCell{wl, tr, sch})
		}
	}

	// Trace generation just produced hundreds of MB of short-lived
	// recorder state; collect it now so the GC doesn't run inside the
	// timed windows below. Host-side only — simulated timing is
	// unaffected.
	runtime.GC()

	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	records := make([]telemetry.RunRecord, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				c := cells[i]
				cfg := controller.Config{Scheme: c.scheme, Tree: masu.BMTEager, HardwareWPQ: 16}
				cfg.AESKey, cfg.MACKey = cliutil.DemoKeys("profile")
				records[i] = runGridCellBest(cfg, c.tr, txSize, repeat)
			}
		}()
	}
	wg.Wait()

	for i, c := range cells {
		fmt.Printf("%-10s %-20s %12d cycles  %6.2f retry/KWR\n",
			c.workload, records[i].Scheme, records[i].Cycles, records[i].RetryPerKWR)
	}
	if relatedExt {
		records = append(records, relatedRecords(txns, txSize)...)
	}
	if mcoreExt {
		records = append(records, mcoreRecords(txns, txSize)...)
	}
	if fastExt {
		ext, err := fastRecords(cells, records[:len(cells)], txSize, repeat)
		if err != nil {
			return err
		}
		records = append(records, ext...)
	}
	if err := writeMetrics(path, records); err != nil {
		return err
	}
	if comparePath == "" {
		return nil
	}
	base, err := cliutil.LoadBenchRecords(comparePath)
	if err != nil {
		return err
	}
	delta := cliutil.CompareBenchRecords(records, base)
	fmt.Printf("compared %d records against %s\n", delta.Records, comparePath)
	if delta.EPSRatio > 0 {
		fmt.Printf("sim_events_per_sec: %.2fx the baseline (geomean); wall_seconds: %.2fx\n",
			delta.EPSRatio, delta.WallRatio)
	}
	if !delta.Identical() {
		const maxShown = 20
		diffs := delta.Diffs
		if len(diffs) > maxShown {
			diffs = diffs[:maxShown]
		}
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "  "+d)
		}
		if n := len(delta.Diffs) - maxShown; n > 0 {
			fmt.Fprintf(os.Stderr, "  ... and %d more\n", n)
		}
		return fmt.Errorf("deterministic fields diverged from %s (%d diffs): the timing model changed",
			comparePath, len(delta.Diffs))
	}
	fmt.Println("deterministic fields are bit-identical to the baseline")
	return nil
}

// gridCell is one scheme×workload cell of the bench grid, with the
// workload's pre-generated trace (shared read-only between runs).
type gridCell struct {
	workload string
	tr       *trace.Trace
	scheme   controller.Scheme
}

// runLabels builds the pprof label set describing how cfg executes:
// crypto=functional|fast (which provider computes pads and MACs).
func runLabels(cfg controller.Config) pprof.LabelSet {
	crypto := "functional"
	if cfg.FastMode {
		crypto = "fast"
	}
	return pprof.Labels("crypto", crypto)
}

// runGridCell runs one bench cell under its pprof labels and returns the
// record (Mode set from the config).
func runGridCell(cfg controller.Config, tr *trace.Trace, txSize int) telemetry.RunRecord {
	const gridSeed = 1
	var rec telemetry.RunRecord
	pprof.Do(context.Background(), runLabels(cfg), func(context.Context) {
		sys := cpu.NewSystem(cfg)
		start := time.Now()
		res := sys.Run(tr)
		rec = cliutil.BuildRunRecord(res, cfg.EffectiveTree(), txSize, gridSeed,
			sys.Eng.Processed(), time.Since(start), sys.Ctrl.Stats(), nil)
		rec.Mode = cliutil.ModeLabel(cfg.FastMode)
	})
	return rec
}

// runGridCellBest is runGridCell repeated, keeping the record with the
// smallest wall time. Every deterministic field is identical across the
// repeats (the simulation is a pure function of its config and trace),
// so only the host-throughput axis changes — min wall is the standard
// capability estimator, damping GC and scheduler noise that single runs
// pick up, especially on small hosts.
func runGridCellBest(cfg controller.Config, tr *trace.Trace, txSize, repeat int) telemetry.RunRecord {
	best := runGridCell(cfg, tr, txSize)
	for r := 1; r < repeat; r++ {
		if rec := runGridCell(cfg, tr, txSize); rec.WallSeconds < best.WallSeconds {
			best = rec
		}
	}
	return best
}

// relatedRecords is the -related grid extension: the related-work
// schemes (every registry entry that models a recovery procedure) over
// the legacy grid's workloads, one single-core record each, carrying
// the recovery_cycles axis. Appended after the legacy cells so a
// pre-extension baseline still compares clean; the tree label reports
// the backend the scheme actually forces (Phoenix pins the lazy ToC).
func relatedRecords(txns, txSize int) []telemetry.RunRecord {
	const gridSeed = 1
	var out []telemetry.RunRecord
	for _, wl := range []string{"Hashmap", "Btree"} {
		w, err := whisper.ByName(wl)
		if err != nil {
			panic(err)
		}
		tr := w.Generate(whisper.Params{Transactions: txns, TxSize: txSize, Seed: gridSeed})
		for _, e := range schemereg.All() {
			if !e.Pipeline.ReportsRecovery {
				continue
			}
			cfg := controller.Config{Scheme: e.ID, Tree: masu.BMTEager, HardwareWPQ: 16}
			cfg.AESKey, cfg.MACKey = cliutil.DemoKeys("profile")
			rec := runGridCell(cfg, tr, txSize)
			fmt.Printf("%-10s %-20s %12d cycles  %6.2f retry/KWR  (%d recovery cyc)\n",
				wl, rec.Scheme, rec.Cycles, rec.RetryPerKWR, rec.RecoveryCycles)
			out = append(out, rec)
		}
	}
	return out
}

// fastRecords is the -fast grid extension: every legacy cell re-run in
// fast mode, checked bit-identical to its functional record before the
// grid is allowed to land. The printed geomean is the headline fast-mode
// speedup (host throughput; the simulated model is unchanged by
// construction, and the diff proves it).
func fastRecords(cells []gridCell, funcRecs []telemetry.RunRecord, txSize, repeat int) ([]telemetry.RunRecord, error) {
	recs := make([]telemetry.RunRecord, len(cells))
	for i, c := range cells {
		cfg := controller.Config{Scheme: c.scheme, Tree: masu.BMTEager, HardwareWPQ: 16, FastMode: true}
		cfg.AESKey, cfg.MACKey = cliutil.DemoKeys("profile")
		recs[i] = runGridCellBest(cfg, c.tr, txSize, repeat)
		fmt.Printf("%-10s %-20s %12d cycles  %6.2f retry/KWR  (fast)\n",
			c.workload, recs[i].Scheme, recs[i].Cycles, recs[i].RetryPerKWR)
	}
	delta := cliutil.CompareBenchRecords(recs, funcRecs)
	if !delta.Identical() {
		for _, d := range delta.Diffs {
			fmt.Fprintln(os.Stderr, "  "+d)
		}
		return nil, fmt.Errorf("fast mode diverged from the functional grid (%d diffs)", len(delta.Diffs))
	}
	fmt.Printf("fast mode: bit-identical to functional, %.2fx sim_events_per_sec (geomean)\n",
		delta.EPSRatio)
	return recs, nil
}

// mcoreRecords runs the contention axis of the bench grid: the
// security-before-WPQ baseline and Dolos Partial-WPQ at 2 and 4
// Hashmap instances sharing one controller. Records are appended after
// the legacy grid (never compared against a pre-mcore baseline, whose
// record count would differ), extending the trajectory with the
// multi-core shape: cores, ooo_window, per_core and the shared-WPQ
// occupancy/fairness metrics.
func mcoreRecords(txns, txSize int) []telemetry.RunRecord {
	const gridSeed = 1
	w, err := whisper.ByName("Hashmap")
	if err != nil {
		panic(err)
	}
	var out []telemetry.RunRecord
	for _, n := range []int{2, 4} {
		specs := make([]mcore.CoreSpec, n)
		for i := range specs {
			coreSeed := mcore.CoreSeed(gridSeed, i)
			specs[i] = mcore.CoreSpec{
				Workload: "Hashmap",
				Seed:     coreSeed,
				Trace: w.Generate(whisper.Params{
					Transactions: txns, TxSize: txSize, Seed: coreSeed,
					HeapBase: mcore.CoreHeapBase(i),
				}),
			}
		}
		for _, sch := range []controller.Scheme{controller.PreWPQSecure, controller.DolosPartial} {
			cfg := controller.Config{Scheme: sch, Tree: masu.BMTEager, HardwareWPQ: 16}
			cfg.AESKey, cfg.MACKey = cliutil.DemoKeys("profile")
			sys := mcore.NewSystem(mcore.Config{Ctrl: cfg, Window: 2}, specs)
			start := time.Now()
			res := sys.Run()
			rec := cliutil.BuildRunRecord(res, masu.BMTEager, txSize, gridSeed,
				sys.Eng.Processed(), time.Since(start), sys.Ctrl.Stats(), nil)
			fmt.Printf("%-10s %-20s %12d cycles  %6.2f retry/KWR  (%d cores)\n",
				"Hashmap", rec.Scheme, rec.Cycles, rec.RetryPerKWR, n)
			out = append(out, rec)
		}
	}
	return out
}
