// Command benchmark measures the Dolos simulator end to end and layer by
// layer. A run takes one workload, a seeded list of complete simulations
// ("cells"), and runs its cells one after another in this process for
// about the given number of seconds, checking every cell's output. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 105, "failed": 0, "metrics": {"cell_s_p50": {"value": 0.21, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones; the traced run also writes a span timeline and a CPU
// profile to -trace-dir. Run it from the repository root:
//
//	bash benchmark/run.sh --workload hashmap-eager --seed 1 --seconds 25 --trace 0
//
// README.md describes the workloads and metrics.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"dolos/internal/stats"
	"dolos/internal/telemetry"
)

// refSeed is the seed whose cells are checked against the committed
// reference records, refRounds rounds of them.
const (
	refSeed   = 1
	refRounds = 2
)

//go:embed reference/*.json
var referenceFS embed.FS

// Every metric a run reports, with its unit; BENCHMARK.json lists the
// same names.
var endToEndUnits = map[string]string{
	"sim_ops_per_s":     "ops/s",
	"cell_s_p50":        "s",
	"cell_s_p90":        "s",
	"setup_s":           "s",
	"alloc_mb_per_cell": "MB",
	"sim_cycles_per_tx": "cycles",
}

var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"whisper.generate_ms":        "ms",
		"trace.ops_per_cell":         "count",
		"trace.init_lines_per_cell":  "count",
		"cpu.start_ms":               "ms",
		"cpu.fence_stall_share":      "ratio",
		"cache.l1_hit_ratio":         "ratio",
		"cache.l2_hit_ratio":         "ratio",
		"cache.llc_hit_ratio":        "ratio",
		"cache.mem_reads":            "count",
		"cache.access_ns":            "ns",
		"sim.run_ms":                 "ms",
		"sim.events_per_cell":        "count",
		"sim.ns_per_event":           "ns",
		"controller.drain_ms":        "ms",
		"wpq.write_requests":         "count",
		"wpq.retry_per_kwr":          "1/kwr",
		"wpq.mean_occupancy":         "entries",
		"wpq.coalesce_ratio":         "ratio",
		"wpq.read_hits":              "count",
		"wpq.cycle_ns":               "ns",
		"misu.mac_ops":               "count",
		"misu.drains":                "count",
		"masu.writes":                "count",
		"masu.reads":                 "count",
		"masu.counter_misses":        "count",
		"masu.tree_misses":           "count",
		"masu.serial_macs":           "count",
		"masu.nvm_writes":            "count",
		"masu.ctr_cache_hit_ratio":   "ratio",
		"masu.mt_cache_hit_ratio":    "ratio",
		"masu.process_write_ns":      "ns",
		"masu.read_line_ns":          "ns",
		"bmt.mac_ops_per_write":      "count",
		"toc.mac_ops_per_write":      "count",
		"crypt.node_mac_ns":          "ns",
		"crypt.line_mac_ns":          "ns",
		"crypt.pad_ns":               "ns",
		"nvm.reads":                  "count",
		"nvm.writes":                 "count",
		"nvm.pages":                  "count",
		"mcore.arb_wait_cycles":      "cycles",
		"mcore.prefetches":           "count",
		"mcore.core_skew":            "ratio",
		"runtime.peak_rss_mb":        "MB",
		"runtime.gc_cycles_per_cell": "count",
		"check.audit_ms":             "ms",
		"host.calib_ms":              "ms",
		"host.raw_cell_s_p50":        "s",
		"trace.overhead_pct":         "%",
	}
	for _, l := range shareLayers {
		m["host_share."+l] = "%"
	}
	return m
}()

func main() {
	name := flag.String("workload", "", "workload: hashmap-eager, btree-fast, ycsb-read-lazy or contention-4core")
	seed := flag.Int64("seed", 1, "input seed; cell i uses trace seed 1000*seed + i/schemes")
	seconds := flag.Int("seconds", 25, "how long to run cells")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, spans and a CPU profile")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes spans.json and cpu.pprof")
	writeRef := flag.String("write-reference", "", "write the reference records of the workload's first cells at -seed 1 into this directory, and exit")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil || *seconds < 0 || (*traced != 0 && *traced != 1) {
		if err == nil {
			err = fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *traced)
		}
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *writeRef != "" {
		if err := writeReference(w, *writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = runTraced(w, *seed, budget, *traceDir)
	} else {
		res, err = runEndToEnd(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// session runs one workload's cells and keeps what the metrics need.
type session struct {
	w      workload
	seed   int64
	ref    []telemetry.RunRecord // checked against the first cells; nil unless seed == refSeed
	cal    *calibrator
	calibs []float64 // calibrator pass times, ms
	spans  *spanLog  // non-nil while tracing
	errs   []error   // failed cells
}

func newSession(w workload, seed int64) (*session, error) {
	s := &session{w: w, seed: seed, cal: newCalibrator()}
	if seed == refSeed {
		ref, err := loadReference(w)
		if err != nil {
			return nil, err
		}
		s.ref = ref
	}
	return s, nil
}

// calibrateIdle runs n calibrator passes back to back and returns their
// median: run metadata that shows the host's speed before and after the
// cells, apart from the passes that scale them.
func (s *session) calibrateIdle(n int) float64 {
	var xs []float64
	for range n {
		xs = append(xs, s.cal.pass())
	}
	return median(xs)
}

// runCell runs cell i. Cells run back to back in one process, the way a
// dolos-bench sweep runs them, so the garbage collector's work lands in
// the cells that cause it.
func (s *session) runCell(i int) cell {
	var ref *telemetry.RunRecord
	if i < len(s.ref) {
		ref = &s.ref[i]
	}
	c := runCell(s.w, s.seed, i, ref, s.spans)
	if c.err != nil {
		s.errs = append(s.errs, c.err)
		fmt.Fprintln(os.Stderr, "benchmark:", c.err)
	}
	return c
}

// runRounds runs cells from index 0 in whole rounds, one cell per
// scheme, until the next round would end after budget; at least one
// round runs. A calibrator pass runs before every calibEvery-th cell,
// and each cell is scaled to the reference host by the median of the
// calibWindow passes around it: the window follows the host's drift over
// a second or two, and its median damps the noise of single passes.
func (s *session) runRounds(budget time.Duration) []cell {
	start := time.Now()
	var cells []cell
	for round := 1; ; round++ {
		for range s.w.schemes {
			if len(cells)%calibEvery == 0 {
				s.calibs = append(s.calibs, s.cal.pass())
			}
			cells = append(cells, s.runCell(len(cells)))
		}
		if spent := time.Since(start); spent+spent/time.Duration(round) > budget {
			break
		}
	}
	for i := range cells {
		j := i / calibEvery // the pass just before cell i
		lo, hi := max(j-calibWindow/2, 0), min(j+calibWindow/2+1, len(s.calibs))
		cells[i].scale = calibRefMS / median(s.calibs[lo:hi])
	}
	return cells
}

// result is the benchmark's output: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	meta map[string]any // run metadata, printed on the line before
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(s *session, attempted int, values map[string]float64, units map[string]string) result {
	r := result{
		Correct: len(s.errs) == 0, Attempted: attempted, Failed: len(s.errs),
		Metrics: make(map[string]metric, len(units)),
		meta: map[string]any{
			"workload": s.w.name, "seed": s.seed, "schemes": len(s.w.schemes),
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(), "commit": commit(),
			"calib_ref_ms": calibRefMS, "calib_now_ms": median(s.calibs),
		},
	}
	for name, unit := range units {
		r.Metrics[name] = metric{Value: values[name], Unit: unit}
	}
	return r
}

// print writes one "name value unit" line per metric, the metadata line
// and the result line.
func (r result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	meta, err := json.Marshal(map[string]any{"meta": r.meta})
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", meta, line)
	return err
}

// runEndToEnd is the untraced run: one warm-up cell, then whole rounds
// of cells for budget, with calibrator passes at the start, between
// cells and at the end.
func runEndToEnd(w workload, seed int64, budget time.Duration) (result, error) {
	s, err := newSession(w, seed)
	if err != nil {
		return result{}, err
	}
	s.runCell(0) // warm-up, untimed; a failure still counts
	before := s.calibrateIdle(3)
	cells := s.runRounds(budget)
	after := s.calibrateIdle(3)
	res := newResult(s, len(cells)+1, endToEndMetrics(cells), endToEndUnits)
	res.meta["cells"] = len(cells)
	res.meta["calib_before_ms"], res.meta["calib_after_ms"] = before, after
	return res, nil
}

// endToEndMetrics computes the end-to-end metrics of the timed cells,
// with host times scaled to the reference host.
func endToEndMetrics(cells []cell) map[string]float64 {
	var cellS, setupS, cyclesPerTx []float64
	var ops, loopS, alloc float64
	for i := range cells {
		c := &cells[i]
		cellS = append(cellS, c.total().Seconds()*c.scale)
		setupS = append(setupS, c.setup().Seconds()*c.scale)
		cyclesPerTx = append(cyclesPerTx, c.result.CyclesPerTx)
		ops += float64(c.ops)
		loopS += c.loop().Seconds() * c.scale
		alloc += float64(c.allocBytes)
	}
	return map[string]float64{
		"sim_ops_per_s":     ops / loopS,
		"cell_s_p50":        median(cellS),
		"cell_s_p90":        tailQuantile(cellS, 0.9, tailBeyond),
		"setup_s":           median(setupS),
		"alloc_mb_per_cell": alloc / 1e6 / float64(len(cells)),
		"sim_cycles_per_tx": stats.GeoMean(cyclesPerTx),
	}
}

// runTraced is the traced run. It runs rounds of cells untraced for two
// fifths of the budget, re-runs the same cells with spans and a CPU
// profile, then times direct layer calls on the first cell's trace for a
// tenth of it.
func runTraced(w workload, seed int64, budget time.Duration, dir string) (result, error) {
	s, err := newSession(w, seed)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	s.runCell(0) // warm-up
	plain := s.runRounds(budget * 2 / 5)
	calibNow := median(s.calibs)

	profPath := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return result{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	s.spans = newSpanLog()
	traced := make([]cell, len(plain))
	for i := range plain {
		traced[i] = s.runCell(i)
	}
	runtime.ReadMemStats(&ms1)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return result{}, err
	}
	if err := s.spans.writeChrome(filepath.Join(dir, "spans.json")); err != nil {
		return result{}, err
	}

	values := make(map[string]float64)
	pf, err := os.Open(profPath)
	if err != nil {
		return result{}, err
	}
	shares, samples, err := profileShares(pf)
	pf.Close()
	if err != nil {
		return result{}, err
	}
	for l, v := range shares {
		values["host_share."+l] = v
	}

	// Simulated counts: the mean over the first round, which every run
	// of a seed makes, so they repeat exactly.
	for _, c := range traced[:len(w.schemes)] {
		for k, v := range c.counts {
			values[k] += v
		}
	}
	for k := range traced[0].counts {
		values[k] /= float64(len(w.schemes))
	}

	self := s.spans.selfTimes()
	for span, metric := range map[string]string{
		"whisper.generate": "whisper.generate_ms", "cpu.start": "cpu.start_ms",
		"sim.run": "sim.run_ms", "controller.drain": "controller.drain_ms",
		"check": "check.audit_ms",
	} {
		var xs []float64
		for _, d := range self[span] {
			xs = append(xs, msOf(d))
		}
		values[metric] = median(xs)
	}
	var loopNS, events float64
	for i := range traced {
		loopNS += float64(traced[i].loop().Nanoseconds())
		events += float64(traced[i].events)
	}
	values["sim.ns_per_event"] = loopNS / events
	rawPlain, rawTraced := rawCellP50(plain), rawCellP50(traced)
	values["host.raw_cell_s_p50"] = rawPlain
	values["trace.overhead_pct"] = 100 * (rawTraced/rawPlain - 1)
	values["host.calib_ms"] = calibNow
	values["runtime.gc_cycles_per_cell"] = float64(ms1.NumGC-ms0.NumGC) / float64(len(traced))

	_, cseed := w.cell(seed, 0)
	timings, err := timeLayers(w, w.traces(cseed)[0], budget/10)
	if err != nil {
		s.errs = append(s.errs, err)
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	for k, v := range timings {
		values[k] = v
	}
	values["runtime.peak_rss_mb"] = peakRSSMB()

	res := newResult(s, 1+len(plain)+len(traced), values, perLayerUnits)
	res.meta["cells"] = len(plain)
	res.meta["profile_samples"] = samples
	return res, nil
}

func rawCellP50(cells []cell) float64 {
	xs := make([]float64, len(cells))
	for i := range cells {
		xs[i] = cells[i].total().Seconds()
	}
	return median(xs)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, st := range info.Settings {
		switch {
		case st.Key == "vcs.revision":
			rev = st.Value
		case st.Key == "vcs.modified" && st.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func loadReference(w workload) ([]telemetry.RunRecord, error) {
	buf, err := referenceFS.ReadFile("reference/" + w.name + ".json")
	if err != nil {
		return nil, fmt.Errorf("reference records: %w", err)
	}
	var recs []telemetry.RunRecord
	if err := json.Unmarshal(buf, &recs); err != nil {
		return nil, fmt.Errorf("reference records of %s: %w", w.name, err)
	}
	return recs, nil
}

// writeReference writes the records of the first refRounds rounds of
// cells at refSeed to dir/<workload>.json.
func writeReference(w workload, dir string) error {
	var recs []telemetry.RunRecord
	for i := 0; i < refRounds*len(w.schemes); i++ {
		c := runCell(w, refSeed, i, nil, nil)
		if c.err != nil {
			return c.err
		}
		rec := c.record
		rec.WallSeconds, rec.EventsPerSecond, rec.EventsProcessed = 0, 0, 0
		recs = append(recs, rec)
	}
	f, err := os.Create(filepath.Join(dir, w.name+".json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSON(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
