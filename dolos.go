// Package dolos is the public API of the Dolos reproduction: a
// functional + cycle-approximate model of "Dolos: Improving the
// Performance of Persistent Applications in ADR-Supported Secure Memory"
// (Han, Tuck, Awad — MICRO 2021).
//
// The package re-exports the experiment layer: configure a Spec (scheme,
// integrity backend, transaction size, WPQ size), run WHISPER-style
// workloads through a full simulated machine, and regenerate every table
// and figure of the paper's evaluation. Lower-level machinery (the WPQ,
// Mi-SU/Ma-SU units, Merkle trees, crash and attack drivers) lives under
// internal/ and is exercised through this facade, the cmd/ binaries and
// the examples/.
//
// Quick start:
//
//	runner := dolos.NewRunner(dolos.Options{Transactions: 500})
//	base, _ := runner.Run("Hashmap", dolos.Spec{Scheme: dolos.PreWPQSecure})
//	fast, _ := runner.Run("Hashmap", dolos.Spec{Scheme: dolos.DolosPartial})
//	fmt.Printf("speedup: %.2fx\n", dolos.Speedup(base, fast))
package dolos

import (
	"dolos/internal/controller"
	"dolos/internal/core"
	"dolos/internal/cpu"
	"dolos/internal/masu"
	"dolos/internal/stats"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// Sentinel errors of the public API, matchable with errors.Is anywhere
// in a wrapped chain. The HTTP serving stack preserves them too: a
// misspelled workload in a service request fails normalization with an
// error wrapping ErrUnknownWorkload before it is mapped to a 400.
var (
	// ErrUnknownWorkload reports a workload name no spelling rule can
	// resolve. ParseWorkload, Runner.Run and Runner.RunContext all wrap
	// it.
	ErrUnknownWorkload = whisper.ErrUnknown
	// ErrCanceled reports a run or sweep cut short by its context. The
	// chain still carries the underlying context.Canceled or
	// context.DeadlineExceeded for callers that care why.
	ErrCanceled = core.ErrCanceled
	// ErrInvalidConfig reports a SystemConfig the model does not define
	// (an unregistered scheme, an unknown tree kind, a hardware WPQ
	// outside 1 to 1024, a metadata-cache size no cache geometry has, a
	// negative Triad-NVM level count). NewSystem, NewCrashDriver and
	// Runner.Run wrap it.
	ErrInvalidConfig = controller.ErrInvalidConfig
	// ErrTraceOutsideData reports a trace that addresses a line outside
	// the data region of the system it is run on. System.Run and
	// System.Start wrap it, naming the address, before loading anything.
	ErrTraceOutsideData = trace.ErrOutsideData
)

// Scheme selects the secure memory controller configuration.
type Scheme = controller.Scheme

// The five controller configurations of the evaluation.
const (
	// NonSecureADR is the infeasible ideal reference (Figure 5-c).
	NonSecureADR = controller.NonSecureADR
	// PreWPQSecure is the state-of-the-art baseline (Figure 5-b).
	PreWPQSecure = controller.PreWPQSecure
	// DolosFull is Dolos with the Full-WPQ Mi-SU design.
	DolosFull = controller.DolosFull
	// DolosPartial is Dolos with the Partial-WPQ Mi-SU design.
	DolosPartial = controller.DolosPartial
	// DolosPost is Dolos with the Post-WPQ Mi-SU design.
	DolosPost = controller.DolosPost
	// EADRSecure is the extended-ADR platform bound (persistent caches):
	// the expensive alternative the paper positions Dolos against.
	EADRSecure = controller.EADRSecure
)

// Related-work schemes (internal/scheme registry): the persistent-
// security competitors the paper's related-work section positions Dolos
// against, runnable through the same Runner and bench grids. Each
// additionally reports a recovery-cycle estimate (Result.RecoveryCycles)
// — the axis the runtime/recovery trade-off is measured on.
const (
	// TriadNVM persists the counters and the first N BMT levels
	// (Triad-NVM, ISCA 2019); Spec.TriadLevels tunes N (default 1).
	TriadNVM = controller.TriadNVM
	// SuperMem is a write-through counter cache with cross-bank
	// coalescing (SuperMem, MICRO 2019) — Triad with N = 0.
	SuperMem = controller.SuperMem
	// Phoenix keeps the counter tree persistently secure via shadow
	// updates over the lazy ToC backend (Phoenix, 2019).
	Phoenix = controller.Phoenix
	// STUM streamlines BMT updates by skipping shared-ancestor MACs on
	// consecutive persists (STUM-style coalescing).
	STUM = controller.STUM
)

// TreeKind selects the Ma-SU integrity backend.
type TreeKind = masu.TreeKind

// The two integrity backends of Section 5.
const (
	// BMTEager is the 8-ary Bonsai Merkle Tree with eager AGIT updates.
	BMTEager = masu.BMTEager
	// ToCLazy is the lazily-updated Tree of Counters with Phoenix-style
	// shadow protection.
	ToCLazy = masu.ToCLazy
)

// Options configures an experiment batch (transaction count, workload
// subset, seed, sweep parallelism).
type Options = core.Options

// Spec pins one simulated configuration (scheme, tree, transaction size,
// WPQ size).
type Spec = core.Spec

// Runner executes simulations with trace caching for paired comparisons.
// Safe for concurrent use; sweep experiments run their cells on a worker
// pool sized by Options.Parallelism with byte-identical output at any
// setting.
//
// Context-aware callers use RunContext(ctx, workload, spec); Run is
// exactly RunContext with context.Background(). A run bounded by a
// context that is already done fails with an error matching both
// ErrCanceled and the context's own cause.
type Runner = core.Runner

// Result summarizes one simulation (cycles, CPI, retry events, ...).
// Multi-core runs (Spec.Cores > 1) additionally carry the core count,
// OoO window, prefetch count and one CoreResult per core.
type Result = cpu.Result

// CoreResult is one core's share of a multi-core Result: its own
// cycles and progress counters plus the shared-controller fairness
// view (arbiter grants, cumulative wait cycles).
type CoreResult = cpu.CoreResult

// Table is a rendered experiment table.
type Table = stats.Table

// NewRunner creates an experiment runner.
func NewRunner(opts Options) *Runner { return core.NewRunner(opts) }

// Speedup is the paper's metric: baseline cycles over candidate cycles.
func Speedup(baseline, candidate Result) float64 { return core.Speedup(baseline, candidate) }

// Workload names one benchmark. The constants below cover the six
// WHISPER-style workloads of the paper's figures plus the two in-house
// microbenchmarks; ParseWorkload folds any accepted spelling onto them.
type Workload string

// The WHISPER benchmarks in figure order, then the microbenchmarks.
const (
	WorkloadHashmap  Workload = "Hashmap"
	WorkloadCtree    Workload = "Ctree"
	WorkloadBtree    Workload = "Btree"
	WorkloadRBtree   Workload = "RBtree"
	WorkloadYCSB     Workload = "NStore:YCSB"
	WorkloadRedis    Workload = "Redis"
	WorkloadTxStream Workload = "TxStream"
	WorkloadPQueue   Workload = "PQueue"
)

// String returns the canonical name — the spelling Runner.Run and the
// paper's figures use.
func (w Workload) String() string { return string(w) }

// ParseWorkload resolves any accepted workload spelling: canonical
// names in any case or hyphenation ("hashmap", "NStore:YCSB",
// "nstore-ycsb") plus the YCSB short forms ("ycsb", "nstore") — the
// same folding the scheme aliases use. Unknown names fail with an
// error wrapping ErrUnknownWorkload.
func ParseWorkload(name string) (Workload, error) {
	canon, err := whisper.Resolve(name)
	if err != nil {
		return "", err
	}
	return Workload(canon), nil
}

// AllWorkloads lists the six WHISPER-style benchmarks in figure order.
func AllWorkloads() []Workload {
	names := whisper.Names()
	out := make([]Workload, len(names))
	for i, n := range names {
		out[i] = Workload(n)
	}
	return out
}

// MicroWorkloads lists the in-house microbenchmarks (TxStream, PQueue),
// mirroring the paper's "in-house developed workloads".
func MicroWorkloads() []string { return whisper.MicroNames() }

// Table3 returns the static Mi-SU storage-overhead table.
func Table3() *Table { return core.Table3() }

// ADRCompliance returns the drain-cost-versus-ADR-budget audit table.
func ADRCompliance() *Table { return core.ADRCompliance() }

// RecoveryEstimate is the Section 5.5 Mi-SU recovery-time analysis.
type RecoveryEstimate = core.RecoveryEstimate

// Sec55Recovery returns the recovery-time estimates per Mi-SU design.
func Sec55Recovery() []RecoveryEstimate { return core.Sec55Recovery() }
