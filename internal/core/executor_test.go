package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"dolos/internal/controller"
)

// TestTraceCacheConcurrent hammers the single-flight trace cache from
// eight goroutines requesting the same key (run under -race in CI): all
// must receive the exact same *trace.Trace pointer, i.e. the workload
// was generated once and shared, never duplicated or torn.
func TestTraceCacheConcurrent(t *testing.T) {
	r := NewRunner(Options{Transactions: 50, Workloads: []string{"Hashmap"}})
	const goroutines = 8
	ptrs := make([]any, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			tr, err := r.Trace("Hashmap", 1024)
			if err != nil {
				t.Error(err)
				return
			}
			ptrs[g] = tr
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if ptrs[g] != ptrs[0] {
			t.Fatalf("goroutine %d received a different trace instance", g)
		}
	}
	// A second round after the cache is warm must return the same trace.
	tr, err := r.Trace("Hashmap", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if any(tr) != ptrs[0] {
		t.Fatal("warm cache returned a different trace instance")
	}
}

// TestTraceCacheConcurrentError checks the single-flight error path: an
// unknown workload fails for every concurrent requester, and the error
// is cached like a successful generation.
func TestTraceCacheConcurrentError(t *testing.T) {
	r := NewRunner(Options{Transactions: 50})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Trace("NoSuchWorkload", 1024); err == nil {
				t.Error("unknown workload accepted")
			}
		}()
	}
	wg.Wait()
}

// TestForEachAggregatesErrors pins the satellite contract: one failed
// cell must not abort the sweep — every index still runs, and every
// error surfaces in the joined result.
func TestForEachAggregatesErrors(t *testing.T) {
	r := NewRunner(Options{Parallelism: 4})
	const n = 10
	ran := make([]bool, n)
	err := r.forEach(n, func(i int) error {
		ran[i] = true
		if i == 2 || i == 7 {
			return fmt.Errorf("cell %d failed", i)
		}
		return nil
	})
	for i, ok := range ran {
		if !ok {
			t.Fatalf("cell %d skipped after earlier failure", i)
		}
	}
	for _, want := range []string{"cell 2 failed", "cell 7 failed"} {
		if err == nil || !contains(err, want) {
			t.Fatalf("aggregated error %v missing %q", err, want)
		}
	}

	// The serial path (Parallelism 1) must aggregate identically.
	serial := NewRunner(Options{Parallelism: 1})
	err = serial.forEach(n, func(i int) error {
		if i == 2 || i == 7 {
			return fmt.Errorf("cell %d failed", i)
		}
		return nil
	})
	for _, want := range []string{"cell 2 failed", "cell 7 failed"} {
		if err == nil || !contains(err, want) {
			t.Fatalf("serial aggregated error %v missing %q", err, want)
		}
	}
}

func contains(err error, sub string) bool {
	for _, e := range multiUnwrap(err) {
		if e.Error() == sub {
			return true
		}
	}
	return false
}

func multiUnwrap(err error) []error {
	if m, ok := err.(interface{ Unwrap() []error }); ok {
		return m.Unwrap()
	}
	return []error{err}
}

// TestRunGridFailedCellDoesNotAbortGrid runs a mixed grid where one
// cell has an unknown workload: the good cells' results must still be
// produced, with the bad cell identified in the error.
func TestRunGridFailedCellDoesNotAbortGrid(t *testing.T) {
	r := NewRunner(Options{Transactions: 50, Parallelism: 2})
	cells := []Cell{
		{"Hashmap", Spec{Scheme: controller.PreWPQSecure}},
		{"NoSuchWorkload", Spec{Scheme: controller.PreWPQSecure}},
		{"Hashmap", Spec{Scheme: controller.DolosPartial}},
	}
	res, err := r.RunGridNotify(context.Background(), cells, nil)
	if err == nil {
		t.Fatal("bad cell did not surface an error")
	}
	if n := len(multiUnwrap(err)); n != 1 {
		t.Fatalf("expected exactly one cell error, got %d: %v", n, err)
	}
	if !strings.Contains(err.Error(), "cell 1") || !strings.Contains(err.Error(), "NoSuchWorkload") {
		t.Fatalf("error does not identify the failing cell: %v", err)
	}
	if res[0].Result.Cycles == 0 || res[2].Result.Cycles == 0 {
		t.Fatal("good cells were aborted by the failing cell")
	}
	if res[1].Result.Cycles != 0 {
		t.Fatal("failed cell produced a result")
	}
}

// runExperiment runs one entry of the experiment table and returns its
// output as dolos-bench's CSV format prints it (tables) or as its text.
func runExperiment(r *Runner, e Experiment) (string, error) {
	var b strings.Builder
	if e.Text != nil {
		err := e.Text(r, &b)
		return b.String(), err
	}
	tables, err := e.Tables(r)
	if err != nil {
		return "", err
	}
	for _, t := range tables {
		b.WriteString(t.Title + "\n" + t.CSV())
	}
	return b.String(), nil
}

// TestSerialParallelEquivalence is the executor's core determinism
// guarantee: for every experiment of the table dolos-bench runs, the
// emitted CSV (or text) is byte-identical between a serial runner
// (Parallelism 1) and a wide parallel runner (Parallelism 8),
// regardless of core count or scheduling. Run under
// -race in CI, this doubles as the concurrency-safety check for the
// whole experiment layer.
func TestSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid equivalence sweep is not short")
	}
	opts := Options{Transactions: 60, Workloads: []string{"Hashmap", "Btree"}}
	serialOpts, parallelOpts := opts, opts
	serialOpts.Parallelism = 1
	parallelOpts.Parallelism = 8
	serial := NewRunner(serialOpts)
	parallel := NewRunner(parallelOpts)

	for _, e := range Experiments(nil, 0) {
		want, err := runExperiment(serial, e)
		if err != nil {
			t.Fatalf("%s serial: %v", e.Name, err)
		}
		got, err := runExperiment(parallel, e)
		if err != nil {
			t.Fatalf("%s parallel: %v", e.Name, err)
		}
		if got != want {
			t.Errorf("%s: parallel CSV differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				e.Name, want, got)
		}
	}
}

// TestParallelismResolution pins the worker-count rules: explicit values
// are honored, zero falls back to GOMAXPROCS (>= 1).
func TestParallelismResolution(t *testing.T) {
	if got := NewRunner(Options{Parallelism: 3}).parallelism(); got != 3 {
		t.Fatalf("explicit parallelism: got %d, want 3", got)
	}
	if got := NewRunner(Options{}).parallelism(); got < 1 {
		t.Fatalf("default parallelism %d < 1", got)
	}
}

// TestRunGridNotify pins the per-cell completion seam: notify fires
// exactly once per cell with the result that lands at the same index of
// the returned slice, and a nil notify returns the same results.
func TestRunGridNotify(t *testing.T) {
	r := NewRunner(Options{Transactions: 40, Parallelism: 2})
	cells := []Cell{
		{Workload: "Hashmap", Spec: Spec{Scheme: controller.PreWPQSecure}},
		{Workload: "Hashmap", Spec: Spec{Scheme: controller.DolosPartial}},
		{Workload: "Btree", Spec: Spec{Scheme: controller.PreWPQSecure}},
	}

	var mu sync.Mutex
	fired := make(map[int]RunResult)
	got, err := r.RunGridNotify(context.Background(), cells, func(i int, rr RunResult) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := fired[i]; dup {
			t.Errorf("notify fired twice for cell %d", i)
		}
		fired[i] = rr
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != len(cells) {
		t.Fatalf("notify fired for %d cells, want %d", len(fired), len(cells))
	}
	for i, rr := range fired {
		if rr.Result.Cycles != got[i].Result.Cycles || rr.Events != got[i].Events {
			t.Errorf("cell %d: notified result differs from returned slice", i)
		}
	}

	plain, err := r.RunGridNotify(context.Background(), cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Result.Cycles != got[i].Result.Cycles {
			t.Errorf("cell %d: nil and non-nil notify disagree on cycles", i)
		}
	}
}

// TestExperimentCellsCoverRuns pins that each experiment's cells list
// what it simulates, so CheckExperiments checks every cell a run would
// refuse: every trace an experiment generates (one per workload, payload
// and core) belongs to a listed cell. The static tables list none and
// generate none. It also pins that CheckExperiments follows the
// selection: a payload only Figure 13 runs is refused for fig13 alone.
func TestExperimentCellsCoverRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	opts := Options{Transactions: 20, Workloads: []string{"Hashmap", "Redis"}, Parallelism: 2}
	for _, e := range Experiments([]int{1, 3}, 2) {
		r := NewRunner(opts)
		if _, err := runExperiment(r, e); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		var cells []Cell
		if e.cells != nil {
			cells = e.cells(opts.Workloads)
		}
		for key := range r.traces.m {
			var w string
			var size, core int
			if n, _ := fmt.Sscanf(strings.Replace(key, "/", " ", -1), "%s %d core%d", &w, &size, &core); n < 2 {
				t.Fatalf("%s: trace key %q", e.Name, key)
			}
			if !slices.ContainsFunc(cells, func(c Cell) bool {
				s := c.Spec.withDefaults()
				return c.Workload == w && s.TxSize == size && core < max(s.Cores, 1)
			}) {
				t.Errorf("%s generated %s, which none of its cells %v runs", e.Name, key, cells)
			}
		}
	}

	// Hashmap fits its heap at 1024-byte payloads but not at 2048.
	at := Options{Transactions: 30000, Workloads: []string{"Hashmap"}}
	byName := func(names ...string) []Experiment {
		var out []Experiment
		for _, e := range Experiments(nil, 0) {
			if slices.Contains(names, e.Name) {
				out = append(out, e)
			}
		}
		return out
	}
	if err := CheckExperiments(at, byName("fig12", "table3", "adr", "recovery")); err != nil {
		t.Errorf("fig12 and the static tables at 30,000 txns: %v", err)
	}
	if err := CheckExperiments(at, byName("fig13")); err == nil || !strings.Contains(err.Error(), "fig13: txns 30000 with txsize 2048: Hashmap") {
		t.Errorf("fig13 at 30,000 txns: error %v, want the 2048-byte heap error", err)
	}
}
