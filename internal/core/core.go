// Package core is the experiment layer of the Dolos reproduction: it
// builds complete simulated systems (workload -> trace -> core + caches ->
// secure memory controller -> NVM) and regenerates every table and figure
// of the paper's evaluation (Section 5). See DESIGN.md for the
// per-experiment index.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/masu"
	"dolos/internal/sim"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// ErrCanceled marks a run or sweep cut short by its context. It wraps
// the underlying context error, so errors.Is(err, ErrCanceled) and
// errors.Is(err, context.Canceled) (or DeadlineExceeded) both hold —
// callers that only care that the run was bounded match the sentinel,
// callers that care why still reach the cause.
var ErrCanceled = errors.New("run canceled")

// canceled wraps a context error with the ErrCanceled sentinel.
func canceled(err error) error { return fmt.Errorf("%w: %w", ErrCanceled, err) }

// Options configures an experiment batch.
type Options struct {
	// Transactions per workload run (the paper uses 50000; the default
	// 1000 reaches queueing steady state in seconds).
	Transactions int
	// Workloads to include (default: all six).
	Workloads []string
	// Seed for the workload generators.
	Seed int64
	// Parallelism is the number of simulations run concurrently by the
	// sweep executor (0 = GOMAXPROCS, 1 = serial). Each cell of a sweep
	// is an independent single-clock-domain system, so output is
	// byte-identical at every setting; see DESIGN.md §9.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Transactions == 0 {
		o.Transactions = 1000
	}
	if len(o.Workloads) == 0 {
		o.Workloads = whisper.Names()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Spec pins down one simulated configuration.
type Spec struct {
	Scheme            controller.Scheme
	Tree              masu.TreeKind
	TxSize            int // bytes per transaction (default whisper.DefaultTxSize)
	HardwareWPQ       int // physical WPQ entries (default controller.DefaultWPQ)
	DisableCoalescing bool
	// CounterCacheBytes overrides the counter metadata cache capacity
	// (0 = Table 1's 128 KB; cache-size ablation).
	CounterCacheBytes uint64
	// MaSUInterval overrides the Ma-SU pipeline initiation interval in
	// cycles (0 = one write per 160-cycle MAC stage; back-end ablation).
	MaSUInterval uint64
	// OsirisPeriod overrides the counter persist period (0 = default 4;
	// write-overhead vs recovery-window ablation).
	OsirisPeriod uint64
	// TriadLevels overrides Triad-NVM's persisted BMT level count N
	// (0 = the scheme default of 1; >= the tree height models full tree
	// persistence). Ignored by other schemes.
	TriadLevels int
	// Cores runs N instances of the workload (per-core seeds, disjoint
	// heaps) contending for one shared controller through the machine's
	// arbiter (cpu.Machine). 0 and 1 both run one core, which reaches
	// the controller directly; at most cpu.MaxCores.
	Cores int
	// OoOWindow is the core's read window (cpu.Issuer). 0 and 1 both
	// issue in order through the same loop, with identical cycles; the
	// record reports the value asked for. Above 1 the core overlaps
	// independent read misses and runs a stride prefetcher.
	OoOWindow int
}

func (s Spec) withDefaults() Spec {
	if s.TxSize == 0 {
		s.TxSize = whisper.DefaultTxSize
	}
	if s.HardwareWPQ == 0 {
		s.HardwareWPQ = controller.DefaultWPQ
	}
	return s
}

// CheckMachine reports a core count outside 0 to cpu.MaxCores (more
// cores' heaps do not fit the data region) or a negative OoO window: the
// two Spec fields that shape the machine around the controller.
func CheckMachine(cores, window int) error {
	if cores < 0 || cores > cpu.MaxCores {
		return fmt.Errorf("cores %d: want 1 to %d, the most whose heaps fit the data region (0 runs one)",
			cores, cpu.MaxCores)
	}
	if window < 0 {
		return fmt.Errorf("ooo window %d: want 0 or more", window)
	}
	return nil
}

// CheckCell reports a cell that cannot run: a workload no spelling rule
// resolves (an error wrapping whisper.ErrUnknown), a machine
// CheckMachine refuses, a controller configuration
// controller.Config.Validate refuses (an error wrapping
// controller.ErrInvalidConfig), or workload parameters whisper.Check
// refuses at opts's transaction count (a payload outside its bounds, or
// a trace that could overflow its persistent heap). It generates
// nothing. On success it returns the workload's canonical name and spec
// with its defaults applied; Runner.Machine runs exactly that cell.
func CheckCell(opts Options, workload string, spec Spec) (string, Spec, error) {
	opts = opts.withDefaults()
	spec = spec.withDefaults()
	canon, err := whisper.Resolve(workload)
	if err != nil {
		return "", spec, err
	}
	if err := CheckMachine(spec.Cores, spec.OoOWindow); err != nil {
		return "", spec, err
	}
	if err := spec.config().Validate(); err != nil {
		return "", spec, err
	}
	w, _ := whisper.ByName(canon)
	if err := whisper.Check(w, whisper.Params{Transactions: opts.Transactions, TxSize: spec.TxSize}); err != nil {
		return "", spec, err
	}
	return canon, spec, nil
}

// EffectiveTree returns the integrity backend the spec will actually
// simulate: the requested one unless the scheme pins a backend (Phoenix
// forces the lazy ToC; reconstruction schemes force the eager BMT).
// Record/display labels use this so they describe the simulated run.
func (s Spec) EffectiveTree() masu.TreeKind {
	return controller.Config{Scheme: s.Scheme, Tree: s.Tree}.EffectiveTree()
}

// traceEntry is one single-flight slot of the trace cache: the first
// requester generates under the entry's once, every concurrent requester
// blocks on the same once and then shares the identical *trace.Trace.
type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
	err  error
}

// traceCache is the shared single-flight trace store behind a Runner.
// It lives behind a pointer so context-scoped views made by WithContext
// share one cache (and its mutex) with the parent runner.
type traceCache struct {
	mu sync.Mutex
	m  map[string]*traceEntry
}

// Runner executes simulations, caching generated traces so every scheme
// replays the identical operation stream (paired comparisons). A Runner
// is safe for concurrent use: the trace cache is guarded by a mutex with
// single-flight generation, and each Run builds a private system around
// its own simulation engine. Replay only reads the shared trace.
type Runner struct {
	opts Options
	// ctx bounds every sweep run through this view of the runner; nil
	// means context.Background(). Set via WithContext.
	ctx context.Context

	traces *traceCache
}

// NewRunner creates a runner with the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:   opts.withDefaults(),
		traces: &traceCache{m: make(map[string]*traceEntry)},
	}
}

// Options returns the effective options.
func (r *Runner) Options() Options { return r.opts }

// WithContext returns a view of the runner whose sweeps run under ctx:
// the executor stops scheduling new cells once ctx is done and joins
// ctx.Err() into the returned error. The view shares the receiver's
// options and trace cache (so single-flight generation still dedups
// across views); the receiver itself is unchanged. Cancellation is
// observed at cell boundaries — a cell already in flight runs to
// completion, keeping every produced result a complete, deterministic
// simulation.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	return &Runner{opts: r.opts, ctx: ctx, traces: r.traces}
}

// context returns the runner's bounding context (Background when unset).
func (r *Runner) context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// Trace returns the (cached) trace for a workload at a transaction size.
// Concurrent callers for the same (workload, txSize) block until the one
// generation completes and then share the same immutable trace. The
// workload spelling is normalized through whisper.Resolve before keying
// the cache, so an alias ("redis") and the canonical name ("Redis")
// share one generated trace instead of silently generating twice. A
// trace CheckCell refuses is never generated.
func (r *Runner) Trace(workload string, txSize int) (*trace.Trace, error) {
	canon, spec, err := CheckCell(r.opts, workload, Spec{TxSize: txSize})
	if err != nil {
		return nil, err
	}
	return r.coreTrace(canon, spec.TxSize, 0)
}

// coreTrace returns the (cached) trace for one core of a cell: the
// same workload with a per-core seed and a disjoint per-core heap
// region. Core 0 is the single-core trace (the base seed and the
// default heap base), so a Cores=N sweep reuses the plain sweep's cache
// entry.
func (r *Runner) coreTrace(canon string, txSize, core int) (*trace.Trace, error) {
	key := fmt.Sprintf("%s/%d", canon, txSize)
	if core > 0 {
		key = fmt.Sprintf("%s/core%d", key, core)
	}
	return r.cachedTrace(key, canon, whisper.Params{
		Transactions: r.opts.Transactions,
		TxSize:       txSize,
		Seed:         cpu.CoreSeed(r.opts.Seed, core),
		HeapBase:     cpu.CoreHeapBase(core),
	})
}

// cachedTrace generates the trace of workload canon with p once per key
// and shares it. Its callers have checked p (CheckCell).
func (r *Runner) cachedTrace(key, canon string, p whisper.Params) (*trace.Trace, error) {
	r.traces.mu.Lock()
	e, ok := r.traces.m[key]
	if !ok {
		e = &traceEntry{}
		r.traces.m[key] = e
	}
	r.traces.mu.Unlock()
	e.once.Do(func() {
		w, err := whisper.ByName(canon)
		if err != nil {
			e.err = err
			return
		}
		e.tr = w.Generate(p)
	})
	return e.tr, e.err
}

// Run simulates one workload under one configuration. It is
// RunContext with context.Background(): an unbounded run.
func (r *Runner) Run(workload string, spec Spec) (cpu.Result, error) {
	return r.RunContext(context.Background(), workload, spec)
}

// RunContext simulates one workload under one configuration, bounded
// by ctx. Like RunCell, the context is checked on entry only — one
// simulation is indivisible, so a context that expires mid-run never
// truncates it. A context already done returns an error matching both
// ErrCanceled and the context's own cause under errors.Is.
func (r *Runner) RunContext(ctx context.Context, workload string, spec Spec) (cpu.Result, error) {
	rr, err := r.RunCell(ctx, workload, spec)
	return rr.Result, err
}

// Machine builds, without running it, the cell that RunCell simulates
// for one workload under one configuration, so a caller can attach a
// probe before the run or inspect controller state after it (the
// crash/recovery ablation). Every core count up to cpu.MaxCores runs on
// one cpu.Machine: core i runs coreTrace(i), and core 0's is the
// single-core trace. A cell CheckCell refuses is refused before any
// trace is generated, and one whose traces lie outside the controller's
// data region (cpu.Machine.CheckTraces) before any is loaded.
func (r *Runner) Machine(workload string, spec Spec) (*cpu.Machine, error) {
	canon, spec, err := CheckCell(r.opts, workload, spec)
	if err != nil {
		return nil, err
	}
	return r.machine(canon, spec, spec.config())
}

// config is the controller configuration spec simulates, under the
// runner's fixed keys.
func (s Spec) config() controller.Config {
	cfg := controller.Config{
		Scheme:            s.Scheme,
		Tree:              s.Tree,
		HardwareWPQ:       s.HardwareWPQ,
		DisableCoalescing: s.DisableCoalescing,
		CounterCacheBytes: s.CounterCacheBytes,
		MaSUInterval:      sim.Cycle(s.MaSUInterval),
		OsirisPeriod:      s.OsirisPeriod,
		TriadLevels:       s.TriadLevels,
	}
	copy(cfg.AESKey[:], "dolos-aes-key-16")
	copy(cfg.MACKey[:], "dolos-mac-key-16")
	return cfg
}

// machine builds the cell of the canonical workload canon under spec,
// which CheckCell accepted, around the controller cfg. Machine passes
// spec.config(); the bit-identity tests pass the same config on the
// latency-only engine.
func (r *Runner) machine(canon string, spec Spec, cfg controller.Config) (*cpu.Machine, error) {
	cores := make([]cpu.CoreSpec, max(spec.Cores, 1))
	for i := range cores {
		tr, err := r.coreTrace(canon, spec.TxSize, i)
		if err != nil {
			return nil, err
		}
		cores[i] = cpu.CoreSpec{Workload: canon, Seed: cpu.CoreSeed(r.opts.Seed, i), Trace: tr}
	}
	m := cpu.NewMachine(cpu.MachineConfig{Ctrl: cfg, Window: spec.OoOWindow}, cores)
	if err := m.CheckTraces(); err != nil {
		return nil, err
	}
	return m, nil
}

// Speedup returns baseline cycles divided by candidate cycles — the
// paper's speedup metric (higher is better for the candidate).
func Speedup(baseline, candidate cpu.Result) float64 {
	if candidate.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(candidate.Cycles)
}
