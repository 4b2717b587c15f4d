package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dolos/internal/cliutil"
	"dolos/internal/controller"
	"dolos/internal/telemetry"
)

// TestRunGridCancelledBeforeStart: a context that is already done
// schedules nothing and surfaces ctx.Err() in the joined error.
func TestRunGridCancelledBeforeStart(t *testing.T) {
	r := NewRunner(Options{Transactions: 50, Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := []Cell{
		{"Hashmap", Spec{Scheme: controller.PreWPQSecure}},
		{"Hashmap", Spec{Scheme: controller.DolosPartial}},
	}
	out, err := r.RunGridNotify(ctx, cells, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, rr := range out {
		if rr.Result.Cycles != 0 {
			t.Errorf("cell %d ran despite pre-cancelled context", i)
		}
	}
}

// TestForEachStopsOnCancel pins the executor's mid-sweep cancellation
// contract deterministically: once the context is cancelled from inside
// cell 2, no further index is scheduled, and ctx.Err() is joined with —
// not substituted for — the cell errors collected before it.
func TestForEachStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(Options{Parallelism: 1}).WithContext(ctx)
	var ran []int
	err := r.forEach(10, func(i int) error {
		ran = append(ran, i)
		if i == 1 {
			return fmt.Errorf("cell 1 failed")
		}
		if i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled joined", err)
	}
	if !strings.Contains(err.Error(), "cell 1 failed") {
		t.Fatalf("cell error dropped from joined result: %v", err)
	}
	if len(ran) != 3 {
		t.Fatalf("ran cells %v, want exactly [0 1 2]", ran)
	}
}

// TestForEachStopsOnCancelParallel: the worker-pool path also stops
// claiming new indices after cancellation — in-flight cells complete,
// but a 100-cell sweep must not run to the end. Every cell but the
// cancelling one returns only once the context is done, so no worker
// can finish a cell and claim another before the cancel lands.
func TestForEachStopsOnCancelParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(Options{Parallelism: 4}).WithContext(ctx)
	var ran atomic.Int64
	err := r.forEach(100, func(i int) error {
		if ran.Add(1) == 1 {
			cancel()
			return nil
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled joined", err)
	}
	// Each of the 4 workers has at most one cell in flight when the
	// cancel lands and claims none afterwards.
	if n := ran.Load(); n > 4 {
		t.Errorf("%d cells ran after cancellation, want bounded by in-flight work", n)
	}
}

// TestWithContextSharesTraceCache: a context-scoped view generates into
// the same single-flight trace cache as its parent, so per-job contexts
// in the service never duplicate trace generation.
func TestWithContextSharesTraceCache(t *testing.T) {
	r := NewRunner(Options{Transactions: 50})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	view := r.WithContext(ctx)
	tr1, err := view.Trace("Hashmap", 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := r.Trace("Hashmap", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if tr1 != tr2 {
		t.Fatal("WithContext view generated a separate trace")
	}
	if len(r.traces.m) != 1 {
		t.Fatalf("trace cache holds %d entries, want 1", len(r.traces.m))
	}
}

// TestRunCellSingleFlightRecords extends the single-flight hammer to
// whole RunRecords: N goroutines running the identical cell through one
// Runner must trigger exactly one trace generation and produce
// byte-identical records once the host-timing fields (wall_seconds and
// the events/sec derived from it) are zeroed — events_processed and
// every simulated metric are deterministic. Run under -race in CI.
func TestRunCellSingleFlightRecords(t *testing.T) {
	r := NewRunner(Options{Transactions: 80, Seed: 1})
	const goroutines = 8
	spec := Spec{Scheme: controller.DolosPartial}

	encoded := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rr, err := r.RunCell(context.Background(), "Hashmap", spec)
			if err != nil {
				errs[g] = err
				return
			}
			rec := cliutil.BuildRunRecord(rr.Result, spec.Tree, 1024, r.Options().Seed,
				rr.Events, rr.Wall, rr.Stats, nil)
			rec.WallSeconds = 0
			rec.EventsPerSecond = 0
			var buf bytes.Buffer
			if err := telemetry.WriteJSON(&buf, rec); err != nil {
				errs[g] = err
				return
			}
			encoded[g] = buf.Bytes()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < goroutines; g++ {
		if !bytes.Equal(encoded[g], encoded[0]) {
			t.Errorf("goroutine %d produced a different RunRecord:\n%s\nvs\n%s",
				g, encoded[g], encoded[0])
		}
	}
	if n := len(r.traces.m); n != 1 {
		t.Errorf("trace cache holds %d entries after %d concurrent runs, want 1", n, goroutines)
	}
}
