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
	// FastMode makes every run in the batch use the latency-only crypto
	// provider (see Spec.FastMode) unless a cell asks otherwise. Every
	// deterministic result field is bit-identical to functional mode;
	// crash/recovery and attack experiments refuse it.
	FastMode bool
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
	TxSize            int // bytes per transaction (default 1024)
	HardwareWPQ       int // physical WPQ entries (default 16)
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
	// the controller directly.
	Cores int
	// OoOWindow is the core's read window (cpu.Issuer). 0 and 1 both
	// issue in order through the same loop, with identical cycles; the
	// record reports the value asked for. Above 1 the core overlaps
	// independent read misses and runs a stride prefetcher.
	OoOWindow int
	// FastMode swaps the functional crypto engine (AES-CTR pads,
	// SHA-256 MACs) for a latency-only provider. All simulated timing
	// derives from event counts and latency constants, never from
	// crypto byte values, so every deterministic result field is
	// bit-identical to a functional run (pinned by TestFastMode* in
	// this package) at a fraction of the host CPU cost. Crash,
	// recovery and attack experiments require functional crypto and
	// return masu.ErrFastMode / misu.ErrFastMode if asked to run on a
	// fast-mode system.
	FastMode bool
}

func (s Spec) withDefaults() Spec {
	if s.TxSize == 0 {
		s.TxSize = 1024
	}
	if s.HardwareWPQ == 0 {
		s.HardwareWPQ = 16
	}
	return s
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

// functional returns a view of the runner with the batch-level FastMode
// default cleared (sharing options, context and trace cache otherwise).
// Crash/recovery experiments run through this view: they exist to prove
// real MACs and ECC survive power loss, and the masu/misu guards refuse
// the latency-only provider outright.
func (r *Runner) functional() *Runner {
	if !r.opts.FastMode {
		return r
	}
	o := r.opts
	o.FastMode = false
	return &Runner{opts: o, ctx: r.ctx, traces: r.traces}
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
// share one generated trace instead of silently generating twice.
func (r *Runner) Trace(workload string, txSize int) (*trace.Trace, error) {
	canon, err := whisper.Resolve(workload)
	if err != nil {
		return nil, err
	}
	return r.cachedTrace(fmt.Sprintf("%s/%d", canon, txSize), canon, whisper.Params{
		Transactions: r.opts.Transactions,
		TxSize:       txSize,
		Seed:         r.opts.Seed,
	})
}

// coreTrace returns the (cached) trace for one core of a cell: the
// same workload with a per-core seed and a disjoint per-core heap
// region. Core 0 shares the single-core trace (same seed, same
// heap base), so a Cores=N sweep reuses the plain sweep's cache entry.
func (r *Runner) coreTrace(canon string, txSize, core int) (*trace.Trace, error) {
	if core == 0 {
		return r.Trace(canon, txSize)
	}
	return r.cachedTrace(fmt.Sprintf("%s/%d/core%d", canon, txSize, core), canon, whisper.Params{
		Transactions: r.opts.Transactions,
		TxSize:       txSize,
		Seed:         cpu.CoreSeed(r.opts.Seed, core),
		HeapBase:     cpu.CoreHeapBase(core),
	})
}

// cachedTrace generates the trace of workload canon with p once per key
// and shares it. A run that could overflow its persistent heap
// (whisper.CheckHeap) is never generated: the entry keeps the error
// naming the workload, so every cell of it fails instead of a panic
// part way through generation.
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
		if err == nil {
			err = whisper.CheckHeap(w, p)
		}
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
	res, _, err := r.runSystem(workload, spec)
	return res, err
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

// runSystem simulates one workload under one configuration and also
// returns the quiesced machine, for experiments that inspect controller
// state (write amplification, crash/recovery ablations). Every core
// count runs on one cpu.Machine: core i runs coreTrace(i), and core 0's
// is the single-core trace.
func (r *Runner) runSystem(workload string, spec Spec) (cpu.Result, *cpu.Machine, error) {
	spec = spec.withDefaults()
	cfg := controller.Config{
		Scheme:            spec.Scheme,
		Tree:              spec.Tree,
		HardwareWPQ:       spec.HardwareWPQ,
		DisableCoalescing: spec.DisableCoalescing,
		CounterCacheBytes: spec.CounterCacheBytes,
		MaSUInterval:      sim.Cycle(spec.MaSUInterval),
		OsirisPeriod:      spec.OsirisPeriod,
		TriadLevels:       spec.TriadLevels,
		FastMode:          spec.FastMode || r.opts.FastMode,
	}
	copy(cfg.AESKey[:], "dolos-aes-key-16")
	copy(cfg.MACKey[:], "dolos-mac-key-16")

	canon, err := whisper.Resolve(workload)
	if err != nil {
		return cpu.Result{}, nil, err
	}
	cores := make([]cpu.CoreSpec, max(spec.Cores, 1))
	for i := range cores {
		tr, err := r.coreTrace(canon, spec.TxSize, i)
		if err != nil {
			return cpu.Result{}, nil, err
		}
		cores[i] = cpu.CoreSpec{Workload: canon, Seed: cpu.CoreSeed(r.opts.Seed, i), Trace: tr}
	}
	m := cpu.NewMachine(cpu.MachineConfig{Ctrl: cfg, Window: spec.OoOWindow}, cores)
	return m.Run(), m, nil
}

// Speedup returns baseline cycles divided by candidate cycles — the
// paper's speedup metric (higher is better for the candidate).
func Speedup(baseline, candidate cpu.Result) float64 {
	if candidate.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(candidate.Cycles)
}
