package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dolos/internal/cpu"
	"dolos/internal/stats"
)

// parallelism resolves the worker count: Options.Parallelism, or
// GOMAXPROCS when unset.
func (r *Runner) parallelism() int {
	if r.opts.Parallelism > 0 {
		return r.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0..n-1) on a pool of workers and returns every error
// joined (never just the first: one failed cell must not abort the rest
// of a long sweep). Result ordering is the caller's concern — fn writes
// into index i of a pre-sized slice, so assembly order never depends on
// completion order. With parallelism 1 (or n == 1) it degenerates to the
// plain serial loop.
//
// The runner's context (see WithContext) bounds the sweep: once it is
// done no further index is scheduled — cells already in flight run to
// completion — and ctx.Err() is joined with the cell errors, so a
// cancelled or deadline-exceeded sweep is unmistakable in the result.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	ctx := r.context()
	workers := r.parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var errs []error
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			if err := fn(i); err != nil {
				errs = append(errs, err)
			}
		}
		if err := ctx.Err(); err != nil {
			errs = append(errs, canceled(err))
		}
		return errors.Join(errs...)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	all := errs
	if err := ctx.Err(); err != nil {
		all = append(all, canceled(err))
	}
	return errors.Join(all...)
}

// Cell is one point of a sweep: a workload replayed under one
// configuration. Every experiment grid (see sweep) and every job of the
// serving layer (internal/service) runs as a []Cell through
// RunGridNotify.
type Cell struct {
	Workload string
	Spec     Spec
}

// RunResult bundles one cell's simulated result with the host-side run
// accounting (engine events dispatched, wall-clock duration) and the
// controller's counter set — everything cliutil.BuildRunRecord needs to
// emit the canonical RunRecord, so CLI and service results share one
// schema. Wall (and anything derived from it) describes the host, not
// the model; Events and Stats are deterministic for a given cell.
type RunResult struct {
	Result cpu.Result
	Events uint64
	Wall   time.Duration
	Stats  *stats.Set
}

// RunCell simulates one cell. ctx is checked only on entry: a single
// simulation is indivisible, so a context that expires mid-run does not
// truncate it (truncated runs would break determinism guarantees).
func (r *Runner) RunCell(ctx context.Context, workload string, spec Spec) (RunResult, error) {
	if err := ctx.Err(); err != nil {
		return RunResult{}, canceled(err)
	}
	start := time.Now()
	m, err := r.Machine(workload, spec)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Result: m.Run(),
		Events: m.Eng.Processed(),
		Wall:   time.Since(start),
		Stats:  m.Ctrl.Stats(),
	}, nil
}

// RunGridNotify executes a grid under ctx, concurrently up to
// Options.Parallelism, and returns the results in enumeration order.
// Once ctx is done no further cell is scheduled (in-flight cells
// complete) and ctx.Err() is joined with any cell errors; skipped cells
// are left zero in the returned slice. notify, when non-nil, fires once
// for every cell that completes successfully, as soon as it completes,
// with the cell's enumeration index and result. It is the seam the
// serving layer's streaming API hangs off — partial grid results can be
// pushed to clients while later cells are still simulating. notify may
// be called from executor worker goroutines concurrently (never twice
// for the same index).
func (r *Runner) RunGridNotify(ctx context.Context, cells []Cell,
	notify func(i int, rr RunResult)) ([]RunResult, error) {
	rc := r.WithContext(ctx)
	out := make([]RunResult, len(cells))
	err := rc.forEach(len(cells), func(i int) error {
		rr, err := rc.RunCell(ctx, cells[i].Workload, cells[i].Spec)
		if err != nil {
			return fmt.Errorf("cell %d (%s, scheme %v): %w",
				i, cells[i].Workload, cells[i].Spec.Scheme, err)
		}
		out[i] = rr
		if notify != nil {
			notify(i, rr)
		}
		return nil
	})
	return out, err
}

// sweep runs every spec on every workload through RunGridNotify,
// workload-major, and returns the results indexed [workload][spec].
// Every table experiment except AblateOsiris and SeedSweep runs through
// it, so the order cells are enumerated in is decided here alone.
// Traces are generated once per (workload, txSize) by the runner's
// single-flight cache and replayed read-only, so all specs of a
// workload replay one operation stream exactly as in a serial run.
func (r *Runner) sweep(workloads []string, specs []Spec) ([][]RunResult, error) {
	cells := make([]Cell, 0, len(workloads)*len(specs))
	for _, w := range workloads {
		for _, s := range specs {
			cells = append(cells, Cell{w, s})
		}
	}
	flat, err := r.RunGridNotify(r.context(), cells, nil)
	if err != nil {
		return nil, err
	}
	out := make([][]RunResult, len(workloads))
	for i := range out {
		out[i] = flat[i*len(specs) : (i+1)*len(specs)]
	}
	return out, nil
}
